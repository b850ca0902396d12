package iloc

import (
	"fmt"
)

// Verify checks the structural invariants of a routine:
//
//   - every block ends in a terminator, except that a non-final block may
//     fall through to the next block;
//   - branch and jump targets name existing blocks;
//   - lda/rload/frload labels name existing data items, and rload/frload
//     only read read-only data;
//   - operand registers have the class the op table demands, fp is never
//     written, and register numbers are within the routine's space;
//   - φ-nodes appear only when allowSSA is set, only at the head of a
//     block, with one argument per predecessor.
//
// It returns the first violation found.
func Verify(r *Routine, allowSSA bool) error {
	if len(r.Blocks) == 0 {
		return fmt.Errorf("%s: no blocks", r.Name)
	}
	seen := make(map[string]bool, len(r.Blocks))
	for _, b := range r.Blocks {
		if seen[b.Label] {
			return fmt.Errorf("%s: duplicate block label %q", r.Name, b.Label)
		}
		seen[b.Label] = true
	}
	for bi, b := range r.Blocks {
		inPhiHead := true
		for ii, in := range b.Instrs {
			if in.Op >= numOps {
				return fmt.Errorf("%s: bad opcode", loc(r, b, ii, in))
			}
			if in.Op == OpPhi {
				if !allowSSA {
					return fmt.Errorf("%s: φ outside SSA form", loc(r, b, ii, in))
				}
				if !inPhiHead {
					return fmt.Errorf("%s: φ not at block head", loc(r, b, ii, in))
				}
				if in.Phi == nil {
					return fmt.Errorf("%s: φ without operands", loc(r, b, ii, in))
				}
				if len(b.Preds) > 0 && len(in.Phi.Args) != len(b.Preds) {
					return fmt.Errorf("%s: φ has %d args for %d preds", loc(r, b, ii, in), len(in.Phi.Args), len(b.Preds))
				}
				for _, a := range in.Phi.Args {
					if err := checkReg(r, a, in.Dst.Class); err != nil {
						return fmt.Errorf("%s: %w", loc(r, b, ii, in), err)
					}
				}
				if err := checkReg(r, in.Dst, in.Dst.Class); err != nil {
					return fmt.Errorf("%s: %w", loc(r, b, ii, in), err)
				}
				if in.Dst.IsFP() {
					return fmt.Errorf("%s: φ writes fp", loc(r, b, ii, in))
				}
				continue
			}
			inPhiHead = false
			if in.Op.IsTerminator() && ii != len(b.Instrs)-1 {
				return fmt.Errorf("%s: terminator not last in block", loc(r, b, ii, in))
			}
			if in.Op.HasDst() {
				if err := checkReg(r, in.Dst, in.Op.DstClass()); err != nil {
					return fmt.Errorf("%s: dst: %w", loc(r, b, ii, in), err)
				}
				if in.Dst.IsFP() {
					return fmt.Errorf("%s: writes fp", loc(r, b, ii, in))
				}
			}
			for i := 0; i < in.Op.NSrc(); i++ {
				if err := checkReg(r, in.Src[i], in.Op.SrcClass(i)); err != nil {
					return fmt.Errorf("%s: src%d: %w", loc(r, b, ii, in), i, err)
				}
			}
			switch in.Op {
			case OpJmp:
				if !seen[in.Label] {
					return fmt.Errorf("%s: jump to unknown label %q", loc(r, b, ii, in), in.Label)
				}
			case OpBr:
				if in.Cond == CondNone {
					return fmt.Errorf("%s: br without condition", loc(r, b, ii, in))
				}
				if !seen[in.Label] || !seen[in.Label2] {
					return fmt.Errorf("%s: branch to unknown label", loc(r, b, ii, in))
				}
			case OpLda:
				if r.DataByLabel(in.Label) == nil {
					return fmt.Errorf("%s: lda of unknown data %q", loc(r, b, ii, in), in.Label)
				}
			case OpRload, OpFrload:
				d := r.DataByLabel(in.Label)
				if d == nil {
					return fmt.Errorf("%s: load from unknown data %q", loc(r, b, ii, in), in.Label)
				}
				if !d.ReadOnly {
					return fmt.Errorf("%s: %s from writable data %q", loc(r, b, ii, in), in.Op, in.Label)
				}
				if in.Imm < 0 || in.Imm/8 >= int64(d.Words) {
					return fmt.Errorf("%s: offset %d outside %q", loc(r, b, ii, in), in.Imm, in.Label)
				}
			case OpGetparam:
				if err := checkParamIndex(r, in.Imm, ClassInt); err != nil {
					return fmt.Errorf("%s: %w", loc(r, b, ii, in), err)
				}
			case OpFgetparam:
				if err := checkParamIndex(r, in.Imm, ClassFlt); err != nil {
					return fmt.Errorf("%s: %w", loc(r, b, ii, in), err)
				}
			case OpSetarg, OpFsetarg, OpLdisp:
				if in.Imm < 0 || in.Imm > 255 {
					return fmt.Errorf("%s: slot index %d out of range", loc(r, b, ii, in), in.Imm)
				}
			case OpCall:
				if in.Label == "" {
					return fmt.Errorf("%s: call without a target", loc(r, b, ii, in))
				}
				// The target routine is resolved at link/execution time.
			}
		}
		if b.Terminator() == nil && bi == len(r.Blocks)-1 {
			return fmt.Errorf("%s: final block %s does not end in a terminator", r.Name, b.Label)
		}
	}
	return nil
}

// loc names an instruction in a diagnostic ("routine/block[i] "instr"").
// It runs only on the failure path: formatting it for every instruction
// would dominate Verify's cost on valid code.
func loc(r *Routine, b *Block, ii int, in *Instr) string {
	return fmt.Sprintf("%s/%s[%d] %q", r.Name, b.Label, ii, in)
}

func checkReg(r *Routine, reg Reg, want Class) error {
	if !reg.Valid() {
		return fmt.Errorf("missing register operand")
	}
	if reg.Class != want {
		return fmt.Errorf("register %s has class %s, want %s", reg, reg.Class, want)
	}
	if !r.Allocated && reg.N >= r.NumRegs(reg.Class) {
		return fmt.Errorf("register %s outside virtual space [0,%d)", reg, r.NumRegs(reg.Class))
	}
	return nil
}

func checkParamIndex(r *Routine, i int64, want Class) error {
	if i < 0 || i >= int64(len(r.Params)) {
		return fmt.Errorf("parameter index %d out of range", i)
	}
	if r.Params[i].Reg.Class != want {
		return fmt.Errorf("parameter %d has class %s", i, r.Params[i].Reg.Class)
	}
	return nil
}
