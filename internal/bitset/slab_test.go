package bitset

import (
	"testing"

	"repro/internal/raceflag"
)

// TestSlabResetHandsOutEmptyIndependentSets: every set a reset hands
// out is empty even after the previous reset's sets were filled, and a
// set's words are capped so it cannot grow into its neighbor.
func TestSlabResetHandsOutEmptyIndependentSets(t *testing.T) {
	var s Slab
	for _, shape := range [][2]int{{3, 130}, {5, 64}, {2, 200}, {3, 130}, {0, 10}, {4, 0}} {
		k, n := shape[0], shape[1]
		sets := s.Reset(k, n)
		if len(sets) != k {
			t.Fatalf("Reset(%d, %d) returned %d sets", k, n, len(sets))
		}
		for i := range sets {
			if sets[i].Len() != n || !sets[i].Empty() {
				t.Fatalf("Reset(%d, %d): set %d has Len %d, elements %v", k, n, i, sets[i].Len(), sets[i].String())
			}
			if cap(sets[i].words) != len(sets[i].words) {
				t.Fatalf("Reset(%d, %d): set %d is not capacity-capped", k, n, i)
			}
		}
		// Dirty every set; its neighbors must not see the writes.
		for i := range sets {
			for x := i; x < n; x += k {
				sets[i].Add(x)
			}
		}
		for i := range sets {
			for x := 0; x < n; x++ {
				if want := x%k == i; sets[i].Has(x) != want {
					t.Fatalf("Reset(%d, %d): set %d Has(%d) = %v", k, n, i, x, !want)
				}
			}
		}
	}
}

// TestSlabResetAllocs: once a slab has held a shape, resetting it to
// the same or a smaller shape allocates nothing.
func TestSlabResetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var s Slab
	s.Reset(65, 300)
	for _, shape := range [][2]int{{65, 300}, {10, 300}, {65, 64}, {1, 1}} {
		k, n := shape[0], shape[1]
		if allocs := testing.AllocsPerRun(100, func() { s.Reset(k, n) }); allocs != 0 {
			t.Errorf("Reset(%d, %d) after Reset(65, 300) allocates %.0f times, want 0", k, n, allocs)
		}
	}
}
