package iloc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/raceflag"
)

// chainSrc is a valid routine of n blocks, each branching to the next,
// so Verify checks one branch per block.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("routine chain()\nb0:\n    ldi r1, 1\n    jmp b1\n")
	for i := 1; i < n-1; i++ {
		fmt.Fprintf(&b, "b%d:\n    addi r2, r1, %d\n    sub r3, r2, r1\n    br lt r3, b%d, b%d\n", i, i, i+1, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n    retr r1\n", n-1)
	return b.String()
}

// TestVerifyAllocsOnlyLabelSet: on a valid routine Verify allocates
// nothing but its label set — diagnostics are formatted only when a
// check fails, and branch targets are looked up in that set.
func TestVerifyAllocsOnlyLabelSet(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, n := range []int{4, 64} {
		rt := MustParse(chainSrc(n))
		labelSet := testing.AllocsPerRun(100, func() {
			seen := make(map[string]bool, len(rt.Blocks))
			for _, b := range rt.Blocks {
				seen[b.Label] = true
			}
		})
		var err error
		got := testing.AllocsPerRun(100, func() { err = Verify(rt, false) })
		if err != nil {
			t.Fatal(err)
		}
		if got > labelSet {
			t.Errorf("%d blocks: Verify allocates %.0f times, its label set alone %.0f", n, got, labelSet)
		}
	}
}

// TestCloneAllocsDoNotGrow: a clone takes its instructions, blocks and
// edges from a fixed number of arenas, so a 64-block routine costs as
// many heap allocations to copy as a 4-block one.
func TestCloneAllocsDoNotGrow(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	counts := map[int]float64{}
	for _, n := range []int{4, 64} {
		rt := MustParse(chainSrc(n))
		for i, b := range rt.Blocks[:n-1] {
			next := rt.Blocks[i+1]
			b.Succs = append(b.Succs, next)
			next.Preds = append(next.Preds, b)
		}
		counts[n] = testing.AllocsPerRun(100, func() { _ = rt.Clone() })
	}
	if counts[64] != counts[4] {
		t.Errorf("Clone allocates %.0f times for 4 blocks, %.0f for 64", counts[4], counts[64])
	}
}
