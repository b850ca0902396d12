package liveness

import (
	"fmt"
	"strings"
	"testing"

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
