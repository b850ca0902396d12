package ig

import (
	"testing"

	"repro/internal/raceflag"
)

// TestResetAllocatesNothing: resetting to the same or a smaller node
// count reuses the matrix, adjacency and degree storage, and so does
// rebuilding the edges the graph held before.
func TestResetAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 64
	edges := func(g *Graph, n int) {
		for i := 1; i < n; i++ {
			for j := i + 1; j < n; j += 3 {
				g.AddEdge(i, j)
			}
		}
	}
	g := New(n)
	edges(g, n)
	allocs := testing.AllocsPerRun(100, func() {
		g.Reset(n)
		edges(g, n)
		g.Reset(n / 2)
		edges(g, n/2)
	})
	if allocs != 0 {
		t.Fatalf("Reset and rebuild allocate %.1f times per run, want 0", allocs)
	}
}
