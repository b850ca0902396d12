package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iloc"
	"repro/internal/machines"
	"repro/internal/remat"
	"repro/internal/target"
)

// runIn allocates rt under strategy spec on machine m with workspace
// ws, shaping the options as Allocate does and verifying the output.
// The iterated strategies and ssa-spill run on ws; spill-everywhere
// takes no workspace.
func runIn(t *testing.T, ws *workspace, rt *iloc.Routine, spec string, m *target.Machine) (*Result, error) {
	t.Helper()
	opts := Options{Machine: m, Strategy: spec, Verify: true}.withDefaults()
	strat, err := LookupStrategy(opts.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	strat.applyTo(&opts)
	opts.Strategy = strat.specFor(opts)
	var res *Result
	switch strat.Name() {
	case "chaitin", "remat":
		res, err = allocateIn(context.Background(), rt, opts, ws)
	case "ssa-spill":
		res, err = ssaSpillIn(rt, opts, ws)
	default:
		res, err = spillEverywhere(rt, opts)
	}
	if err == nil {
		err = verifyResult(rt, res, opts)
	}
	return res, err
}

// printResult renders everything a Result carries except wall times.
func printResult(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(iloc.Print(res.Routine))
	fmt.Fprintf(&b, "spilled %d remat %d mode %v degraded %v %q\n",
		res.SpilledRanges, res.RematSpills, res.Mode, res.Degraded, res.DegradeReason)
	for i, it := range res.Iterations {
		fmt.Fprintf(&b, "iteration %d: spilled %v remat %v coalesced %d splits %d\n",
			i, it.Spilled, it.Remat, it.Coalesced, it.Splits)
		for _, ps := range it.Passes {
			fmt.Fprintf(&b, "  %s nodes %d edges %d coalesced %d splits %d spilled %d remat %d\n",
				ps.Name, ps.Nodes, ps.Edges, ps.Coalesced, ps.Splits, ps.Spilled, ps.Remat)
		}
	}
	return b.String()
}

// holdsStorage fails the test unless the largest routine left storage
// in each per-round table a reuse check should cover: a check over an
// empty table proves nothing.
func holdsStorage(t *testing.T, ws *workspace, how string) {
	t.Helper()
	if len(ws.tree.Idom) == 0 || len(ws.tree.Order) == 0 || len(ws.tree.Children) == 0 {
		t.Fatalf("after %s the workspace holds no dominator tree", how)
	}
	for c := range ws.classes {
		cs := &ws.classes[c]
		if cs.sets.Len() == 0 || cap(cs.tags) == 0 || cap(cs.work) == 0 {
			t.Fatalf("after %s class %d holds sets %d, tags %d, worklist %d", how, c, cs.sets.Len(), cap(cs.tags), cap(cs.work))
		}
	}
}

// poison overwrites what the workspace's union-find forests, tags,
// worklists and dominator tree hold, within their storage, with values
// no allocation leaves: every element in one set with raised ranks,
// every tag ⊥, every worklist entry and tree entry out of range. A
// table that is not fully reset before use then shows in the output.
func poison(ws *workspace) {
	idom := ws.tree.Idom[:cap(ws.tree.Idom)]
	for i := range idom {
		idom[i] = 1 << 20
	}
	children := ws.tree.Children[:cap(ws.tree.Children)]
	for i := range children {
		children[i] = append(children[i][:0], 1<<20)
	}
	for c := range ws.classes {
		cs := &ws.classes[c]
		for i := 1; i < cs.sets.Len(); i++ {
			cs.sets.Union(i-1, i)
		}
		tags := cs.tags[:cap(cs.tags)]
		for i := range tags {
			tags[i] = remat.BottomTag()
		}
		work := cs.work[:cap(cs.work)]
		for i := range work {
			work[i] = -1
		}
	}
}

// TestWorkspaceReuseIsInvisible: a workspace dirtied by the largest
// routine of a small corpus — once by a clean allocation, once by a
// pass that panics midway — allocates every smaller routine under every
// strategy exactly as a fresh workspace does, and a Result printed
// before later allocations reused the workspace prints the same after.
// The dirtying covers every per-round table: liveness (sets and block
// order), SSA, the dominator tree, the loop tables (split=all-loops),
// the union-find forests, tags, worklists, graphs and cost vectors; the
// forests, tags, worklists and tree are then poisoned besides.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	units, err := corpus.Generate(corpus.Spec{Count: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rts := corpus.Routines(units)
	size := func(rt *iloc.Routine) int {
		n := 0
		rt.ForEachInstr(func(*iloc.Block, int, *iloc.Instr) { n++ })
		return n
	}
	largest := rts[0]
	for _, rt := range rts {
		if size(rt) > size(largest) {
			largest = rt
		}
	}
	var smaller []*iloc.Routine
	for _, rt := range rts {
		if size(rt) < size(largest) {
			smaller = append(smaller, rt)
		}
	}
	if len(smaller) < 5 {
		t.Fatalf("corpus has only %d routines smaller than the largest", len(smaller))
	}

	x86, err := machines.Lookup("x86-64")
	if err != nil {
		t.Fatal(err)
	}
	specs := append(StrategyNames(), "remat:split=all-loops", "remat:split=inactive-loops", "remat:no-coalesce")

	ws := new(workspace)
	type kept struct {
		res     *Result
		printed string
	}
	var earlier []kept
	check := func(m *target.Machine, how string) {
		for _, rt := range smaller {
			for _, spec := range specs {
				res, err := runIn(t, ws, rt, spec, m)
				got := printResult(res, err)
				want := printResult(runIn(t, new(workspace), rt, spec, m))
				if got != want {
					t.Fatalf("%s on %s, %s, after %s: reused workspace differs\n--- reused ---\n%s\n--- fresh ---\n%s",
						rt.Name, m.Name, spec, how, got, want)
				}
				if res != nil && len(earlier) < 8 {
					earlier = append(earlier, kept{res, got})
				}
			}
		}
	}

	for _, m := range []*target.Machine{target.WithRegs(6), x86} {
		// Dirty the workspace with the largest routine, then reuse it.
		for _, spec := range []string{"remat", "remat:split=all-loops", "chaitin", "ssa-spill"} {
			if _, err := runIn(t, ws, largest, spec, m); err != nil {
				t.Fatalf("%s on %s, %s: %v", largest.Name, m.Name, spec, err)
			}
		}
		holdsStorage(t, ws, "a clean allocation of "+largest.Name)
		poison(ws)
		check(m, "a clean allocation of "+largest.Name)

		// Dirty it by a pass that panics midway through the allocation:
		// coalesce-cons of the middle round.
		clean, err := runIn(t, new(workspace), largest, "remat", m)
		if err != nil {
			t.Fatal(err)
		}
		panicAt, calls := (len(clean.Iterations)+1)/2, 0
		PanicHook = func(_, pass string) {
			if pass == "coalesce-cons" {
				if calls++; calls == panicAt {
					panic("injected fault")
				}
			}
		}
		_, err = runIn(t, ws, largest, "remat", m)
		PanicHook = nil
		if err == nil || !strings.Contains(err.Error(), "injected fault") {
			t.Fatalf("%s on %s: want the injected coalesce-cons fault, got %v", largest.Name, m.Name, err)
		}
		poison(ws)
		check(m, "a panic in coalesce-cons of round "+fmt.Sprint(panicAt-1))
	}

	if len(earlier) == 0 {
		t.Fatal("no result kept to re-print")
	}
	for _, k := range earlier {
		if got := printResult(k.res, nil); got != k.printed {
			t.Fatalf("a Result changed after later allocations reused the workspace\n--- now ---\n%s\n--- then ---\n%s", got, k.printed)
		}
	}
}
