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
