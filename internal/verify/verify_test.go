package verify_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iloc"
	"repro/internal/target"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// selfContained computes from constants and static data only, so the
// differential check runs on it.
const selfContained = `
routine k()
data out rw 1
entry:
    ldi r1, 5
    ldi r2, 7
    add r3, r1, r2
    lda r4, out
    store r3, r4
    retr r3
`

// loadHeavy defines more simultaneously-live non-rematerializable
// values (loads) than a 2-color machine holds, forcing store/reload
// spill code under ModeChaitin.
const loadHeavy = `
routine k()
data a rw 8 = 1 2 3 4 5 6 7 8
entry:
    lda r1, a
    load r2, r1
    loadai r3, r1, 8
    loadai r4, r1, 16
    loadai r5, r1, 24
    loadai r6, r1, 32
    add r7, r2, r3
    add r7, r7, r4
    add r7, r7, r5
    add r7, r7, r6
    add r7, r7, r2
    retr r7
`

// acrossCall keeps a value live across a call, which the calling
// convention forces into a callee-save color.
const acrossCall = `
routine k()
entry:
    ldi r1, 7
    call g
    getret r2
    add r3, r1, r2
    retr r3
`

func allocate(t *testing.T, src string, opts core.Options) (input, allocated *iloc.Routine) {
	t.Helper()
	input = iloc.MustParse(src)
	res, err := core.Allocate(context.Background(), input, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("test allocation degraded: %s", res.DegradeReason)
	}
	return input, res.Routine
}

// expectRule checks that the mutated allocation is rejected with a
// violation of the given rule.
func expectRule(t *testing.T, input, mutated *iloc.Routine, m *target.Machine, rule string) {
	t.Helper()
	err := verify.Check(input, mutated, m, verify.Options{Differential: true})
	if err == nil {
		t.Fatalf("mutation accepted; want a %s violation\n%s", rule, iloc.Print(mutated))
	}
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("not a *verify.Error: %v", err)
	}
	for _, v := range ve.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %s violation in: %v", rule, err)
}

// findOp locates the first instruction with the op (and, when imm >= 0,
// that immediate) in the routine.
func findOp(t *testing.T, rt *iloc.Routine, op iloc.Op, imm int64) *iloc.Instr {
	t.Helper()
	var found *iloc.Instr
	rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if found == nil && in.Op == op && (imm < 0 || in.Imm == imm) {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("no %v instruction in\n%s", op, iloc.Print(rt))
	}
	return found
}

func TestAcceptsGoodAllocations(t *testing.T) {
	for _, src := range []string{selfContained, loadHeavy} {
		for _, m := range []*target.Machine{target.Standard(), target.WithRegs(3)} {
			for _, mode := range []core.Mode{core.ModeChaitin, core.ModeRemat} {
				input, alloc := allocate(t, src, core.Options{Machine: m, Mode: mode})
				if err := verify.Check(input, alloc, m, verify.Options{Differential: true}); err != nil {
					t.Fatalf("%s %v: %v", m.Name, mode, err)
				}
			}
		}
	}
}

func TestRejectsUnallocatedFlag(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	alloc.Allocated = false
	expectRule(t, input, alloc, m, "structure")
}

func TestRejectsOutOfBankRegister(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	findOp(t, alloc, iloc.OpLdi, 5).Dst.N = m.Regs[iloc.ClassInt] // first color past the bank
	expectRule(t, input, alloc, m, "bounds")
}

// Clobbering a live register: redirecting the second constant's
// definition onto the color holding the first leaves the original
// target undefined on the path to its use.
func TestRejectsClobberedLiveRegister(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	five := findOp(t, alloc, iloc.OpLdi, 5)
	seven := findOp(t, alloc, iloc.OpLdi, 7)
	if five.Dst == seven.Dst {
		t.Fatal("test premise broken: both constants share a color")
	}
	seven.Dst = five.Dst
	expectRule(t, input, alloc, m, "use-before-def")
}

// A silent change of a computed value — one no dataflow rule can see —
// falls to the interpreter differential.
func TestDifferentialCatchesWrongConstant(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	findOp(t, alloc, iloc.OpLdi, 7).Imm = 8
	expectRule(t, input, alloc, m, "differential")
}

// Dropping a spill store leaves its reload reading a slot nothing
// wrote: the restore-without-save half of the classic spill bug.
func TestRejectsDroppedSpillStore(t *testing.T) {
	m := target.WithRegs(3)
	input, alloc := allocate(t, loadHeavy, core.Options{Machine: m, Mode: core.ModeChaitin})
	dropped := false
	for _, b := range alloc.Blocks {
		for i, in := range b.Instrs {
			if !dropped && in.IsSpill && in.Op == iloc.OpStoreai && in.Src[1].IsFP() {
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				dropped = true
				break
			}
		}
	}
	if !dropped {
		t.Fatalf("no spill store to drop in\n%s", iloc.Print(alloc))
	}
	expectRule(t, input, alloc, m, "spill-slots")
}

// A spill access outside the declared frame would alias the routine's
// locals or fall off the frame entirely.
func TestRejectsOutOfFrameSlot(t *testing.T) {
	m := target.WithRegs(3)
	input, alloc := allocate(t, loadHeavy, core.Options{Machine: m, Mode: core.ModeChaitin})
	findOp(t, alloc, iloc.OpStoreai, -1).Imm = int64(alloc.FrameWords)*8 + 64
	expectRule(t, input, alloc, m, "spill-slots")
}

// Moving a callee-save value into the caller-save band leaves it live
// across the call, where the callee may clobber it.
func TestRejectsCallerSaveViolation(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, acrossCall, core.Options{Machine: m, Mode: core.ModeRemat})
	cs := findOp(t, alloc, iloc.OpLdi, 7).Dst.N
	if cs <= m.CallerSave {
		t.Fatalf("test premise broken: value across call in caller-save color %d", cs)
	}
	// Retarget it to a caller-save color nothing else touches, so the
	// value genuinely stays live across the call in the mutant.
	used := map[int]bool{}
	alloc.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Dst.Valid() && in.Dst.Class == iloc.ClassInt {
			used[in.Dst.N] = true
		}
		for i := 0; i < in.Op.NSrc(); i++ {
			if in.Src[i].Class == iloc.ClassInt {
				used[in.Src[i].N] = true
			}
		}
	})
	victim := 0
	for c := 1; c <= m.CallerSave; c++ {
		if !used[c] {
			victim = c
			break
		}
	}
	if victim == 0 {
		t.Fatal("no free caller-save color to move the value into")
	}
	alloc.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if in.Dst.Valid() && in.Dst.Class == iloc.ClassInt && in.Dst.N == cs {
			in.Dst.N = victim
		}
		for i := 0; i < in.Op.NSrc(); i++ {
			if in.Src[i].Class == iloc.ClassInt && in.Src[i].N == cs {
				in.Src[i].N = victim
			}
		}
	})
	expectRule(t, input, alloc, m, "caller-save")
}

// A spill-phase instruction that neither touches a slot nor recomputes
// a never-killed value is not a legitimate rematerialization.
func TestRejectsRematTamper(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	findOp(t, alloc, iloc.OpAdd, -1).IsSpill = true
	expectRule(t, input, alloc, m, "remat")
}

// A remat-candidate op whose register operand is not the frame pointer
// is not always available at its reload points.
func TestRejectsRematWithUnavailableOperand(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	// Insert "addi cX, cX, 0" tagged as spill code right after cX's
	// definition: structurally sound, but its operand is a real
	// register, which a rematerialized value may not read.
	def := findOp(t, alloc, iloc.OpLdi, 5)
	tampered := &iloc.Instr{Op: iloc.OpAddi, Dst: def.Dst, Src: [2]iloc.Reg{def.Dst, iloc.NoReg}, IsSpill: true}
	for _, b := range alloc.Blocks {
		for i, in := range b.Instrs {
			if in == def {
				rest := append([]*iloc.Instr{tampered}, b.Instrs[i+1:]...)
				b.Instrs = append(b.Instrs[:i+1], rest...)
				expectRule(t, input, alloc, m, "remat")
				return
			}
		}
	}
	t.Fatal("definition not found")
}

// The verifier reports every violation, not just the first.
func TestReportsAllViolations(t *testing.T) {
	m := target.Standard()
	input, alloc := allocate(t, selfContained, core.Options{Machine: m, Mode: core.ModeRemat})
	alloc.Allocated = false
	// Widen the virtual space so the out-of-bank colors still pass the
	// structural register check and reach the bounds rule.
	alloc.NextReg[iloc.ClassInt] = m.Regs[iloc.ClassInt] + 8
	findOp(t, alloc, iloc.OpLdi, 5).Dst.N = m.Regs[iloc.ClassInt]
	findOp(t, alloc, iloc.OpLdi, 7).Dst.N = m.Regs[iloc.ClassInt] + 3
	err := verify.Check(input, alloc, m, verify.Options{})
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("not a *verify.Error: %v", err)
	}
	if len(ve.Violations) < 3 {
		t.Fatalf("want >= 3 violations, got: %v", err)
	}
	if !strings.Contains(err.Error(), "violation(s)") {
		t.Fatalf("unexpected message: %v", err)
	}
}

// TestDifferentialCoverageCounters: every differential run bumps one
// coverage counter on the sink — checked when the interpreter compared
// the two routines, otherwise the reason it could not.
func TestDifferentialCoverageCounters(t *testing.T) {
	const withParam = `
routine k(r1)
entry:
    getparam r1, 0
    addi r2, r1, 1
    retr r2
`
	const spins = `
routine k()
entry:
    ldi r1, 1
    jmp loop
loop:
    addi r1, r1, 1
    jmp loop
`
	counters := []string{
		"verify.differential.checked",
		"verify.differential.skipped.params",
		"verify.differential.skipped.calls",
		"verify.differential.skipped.input_fault",
	}
	for _, tc := range []struct {
		name, src, want string
	}{
		{"self-contained", selfContained, "verify.differential.checked"},
		{"parameterized", withParam, "verify.differential.skipped.params"},
		{"calling", acrossCall, "verify.differential.skipped.calls"},
		{"faulting input", spins, "verify.differential.skipped.input_fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := target.Standard()
			input, alloc := allocate(t, tc.src, core.Options{Machine: m, Mode: core.ModeRemat})
			reg := telemetry.NewRegistry()
			opts := verify.Options{Differential: true, MaxSteps: 1000, Telemetry: &telemetry.Sink{Metrics: reg}}
			if err := verify.Check(input, alloc, m, opts); err != nil {
				t.Fatal(err)
			}
			for _, name := range counters {
				want := int64(0)
				if name == tc.want {
					want = 1
				}
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestCheckLeavesAllocatedUnchanged: Check derives its CFG on a view,
// so the allocated routine it was handed keeps its printed code, its
// blocks, their indices and edges — even when that code has an
// unreachable block for the view's cfg.Build to prune.
func TestCheckLeavesAllocatedUnchanged(t *testing.T) {
	shape := func(rt *iloc.Routine) string {
		s := iloc.Print(rt)
		for i, b := range rt.Blocks {
			s += fmt.Sprintf("%d:%p index %d instrs %p/%d succs %v preds %v\n",
				i, b, b.Index, b.Instrs, len(b.Instrs), b.Succs, b.Preds)
		}
		return s
	}
	for _, tc := range []struct {
		src  string
		opts core.Options
	}{
		{loadHeavy, core.Options{Machine: target.WithRegs(3), Mode: core.ModeChaitin}},
		{acrossCall, core.Options{Machine: target.Standard(), Mode: core.ModeRemat}},
		{selfContained, core.Options{Machine: target.WithRegs(4), Mode: core.ModeRemat}},
	} {
		input, allocated := allocate(t, tc.src, tc.opts)
		// An unreachable block after the entry's return.
		allocated.Blocks = append(allocated.Blocks, &iloc.Block{Label: "unreached",
			Instrs: []*iloc.Instr{{Op: iloc.OpRet, Dst: iloc.NoReg}}})
		allocated.Reindex()
		before := shape(allocated)
		err := verify.Check(input, allocated, tc.opts.Machine, verify.Options{Differential: true})
		if err != nil {
			t.Fatalf("%s: %v", input.Name, err)
		}
		if got := shape(allocated); got != before {
			t.Fatalf("Check changed its allocated argument\n--- after ---\n%s--- before ---\n%s", got, before)
		}
	}
}

// spillSlotsSrc is hand-allocated code (two-word frame: slots 0 and 8)
// breaking every spill-slot rule: a reload before any store, a reload
// not stored on one path, reloads outside the frame (stored first and
// not), an unaligned slot (stored and reloaded), a negative slot and a slot stored from both
// banks. A loop whose body stores a slot, and reloads the stores before
// it dominate, must stay clean.
const spillSlotsSrc = `routine s()
entry:
    ldi r1, 5
    fldi f1, 1.5
    storeai r1, fp, 0    ; spill
    loadai r2, fp, 8    ; spill
    loadai r3, fp, 64    ; spill
    storeai r1, fp, 4    ; spill
    fstoreai f1, fp, 0    ; spill
    br lt r1, a, b
a:
    storeai r1, fp, 8    ; spill
    jmp c
b:
    jmp c
c:
    loadai r2, fp, 8    ; spill
    loadai r3, fp, 0    ; spill
    storeai r1, fp, 64
    loadai r3, fp, 64    ; spill
    loadai r3, fp, -8    ; spill
    loadai r3, fp, 4    ; spill
    jmp loop
loop:
    loadai r3, fp, 0    ; spill
    storeai r1, fp, 8    ; spill
    floadai f2, fp, 24    ; spill
    br lt r3, loop, done
done:
    loadai r2, fp, 8    ; spill
    loadai r3, fp, 0    ; spill
    retr r2
`

// TestSpillSlotsErrorText pins the spill-slot diagnostics — their text
// and their order — for every way spill traffic can be wrong.
func TestSpillSlotsErrorText(t *testing.T) {
	rt := iloc.MustParse(spillSlotsSrc)
	rt.Allocated = true
	rt.FrameWords = 2
	err := verify.Check(rt, rt, target.WithRegs(6), verify.Options{})
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("want a *verify.Error, got %v", err)
	}
	var got []string
	for _, v := range ve.Violations {
		got = append(got, v.String())
	}
	want := []string{
		`spill-slots: slot 64 outside the 2-word frame in "loadai r3, fp, 64    ; spill"`,
		`spill-slots: unaligned slot 4 in "storeai r1, fp, 4    ; spill"`,
		`spill-slots: slot 0 aliased across banks (int and flt) in "fstoreai f1, fp, 0    ; spill"`,
		`spill-slots: slot 64 outside the 2-word frame in "loadai r3, fp, 64    ; spill"`,
		`spill-slots: slot -8 outside the 2-word frame in "loadai r3, fp, -8    ; spill"`,
		`spill-slots: unaligned slot 4 in "loadai r3, fp, 4    ; spill"`,
		`spill-slots: slot 24 outside the 2-word frame in "floadai f2, fp, 24    ; spill"`,
		`spill-slots: slot 8 read before any store on some path in "loadai r2, fp, 8    ; spill"`,
		`spill-slots: slot 64 read before any store on some path in "loadai r3, fp, 64    ; spill"`,
		`spill-slots: slot 8 read before any store on some path in "loadai r2, fp, 8    ; spill"`,
		`spill-slots: slot -8 read before any store on some path in "loadai r3, fp, -8    ; spill"`,
		`spill-slots: slot 24 read before any store on some path in "floadai f2, fp, 24    ; spill"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
