package liveness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/iloc"
	"repro/internal/raceflag"
)

// loopChain is an n-block routine: a chain of blocks inside one loop, so
// the solver iterates and every block's sets are non-trivial.
func loopChain(n int) string {
	var b strings.Builder
	b.WriteString("routine chain(r1)\nb0:\n    getparam r1, 0\n    ldi r2, 0\n    jmp b1\n")
	for i := 1; i < n-2; i++ {
		fmt.Fprintf(&b, "b%d:\n    addi r2, r2, %d\n    jmp b%d\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n    sub r3, r2, r1\n    br lt r3, b1, b%d\n", n-2, n-1)
	fmt.Fprintf(&b, "b%d:\n    retr r2\n", n-1)
	return b.String()
}

// TestComputeAllocsIndependentOfBlocks: liveness takes every set from
// one slab, so solving a 64-block routine allocates exactly as often as
// solving a 4-block one.
func TestComputeAllocsIndependentOfBlocks(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(n int) float64 {
		rt := build(t, loopChain(n))
		if len(rt.Blocks) != n {
			t.Fatalf("routine has %d blocks, want %d", len(rt.Blocks), n)
		}
		return testing.AllocsPerRun(100, func() { Compute(rt, iloc.ClassInt) })
	}
	small, large := allocs(4), allocs(64)
	if small != large {
		t.Errorf("Compute allocates %.0f times on 4 blocks but %.0f on 64", small, large)
	}
}

// TestSolverReuseAllocs: a solver that has solved a routine keeps its
// slab, pointer array, Info and traversal order, so solving it again
// allocates nothing — on 4 blocks as on 64.
func TestSolverReuseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(n int) float64 {
		rt := build(t, loopChain(n))
		var s Solver
		s.Compute(rt, iloc.ClassInt)
		return testing.AllocsPerRun(100, func() { s.Compute(rt, iloc.ClassInt) })
	}
	small, large := allocs(4), allocs(64)
	if small != large {
		t.Errorf("a second Solver.Compute allocates %.0f times on 4 blocks but %.0f on 64", small, large)
	}
	if fresh := testing.AllocsPerRun(10, func() { Compute(build(t, loopChain(4)), iloc.ClassInt) }); small >= fresh {
		t.Errorf("a second Solver.Compute allocates %.0f times, no fewer than a fresh solve with parsing (%.0f)", small, fresh)
	}
	if small != 0 {
		t.Errorf("a second Solver.Compute allocates %.0f times, want 0", small)
	}
}

// TestSolverReuseMatchesFresh: a solver reused across routines of
// different shapes and classes returns exactly the fresh solution each
// time, and its Info reflects only the latest call.
func TestSolverReuseMatchesFresh(t *testing.T) {
	var s Solver
	for _, n := range []int{64, 4, 17, 4, 64} {
		rt := build(t, loopChain(n))
		for _, c := range []iloc.Class{iloc.ClassInt, iloc.ClassFlt} {
			got, want := s.Compute(rt, c), Compute(rt, c)
			if got.Class != want.Class || len(got.LiveIn) != len(want.LiveIn) {
				t.Fatalf("%d blocks, class %v: reused Info has class %v, %d blocks", n, c, got.Class, len(got.LiveIn))
			}
			for i := range want.LiveIn {
				for _, pair := range [][2]*bitset.Set{
					{got.LiveIn[i], want.LiveIn[i]}, {got.LiveOut[i], want.LiveOut[i]},
					{got.UEVar[i], want.UEVar[i]}, {got.Kill[i], want.Kill[i]},
				} {
					if !pair[0].Equal(pair[1]) {
						t.Fatalf("%d blocks, class %v, block %d: reused %v, fresh %v", n, c, i, pair[0], pair[1])
					}
				}
			}
		}
	}
}
