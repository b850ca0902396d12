package core

import (
	"context"
	"testing"

	"repro/internal/iloc"
	"repro/internal/raceflag"
	"repro/internal/target"
)

// fig1AllocCeiling bounds the heap allocations of one verified remat
// allocation of Figure 1 on a 3-register machine: about 173 with go1.24.
// The allocator made about 2600 before its hot path reused its
// interference graphs, took liveness sets from one slab and formatted
// verifier diagnostics only on failure, about 700 before liveness, SSA,
// graph and cost storage moved into the pooled workspace, and about 440
// before routine copies moved into arenas, the verifier stopped
// deep-cloning and the CFG, dominator, loop, union-find and tag storage
// joined the workspace. A change that brings per-instruction, per-block
// or per-round allocation back trips this ceiling, which leaves under
// 5% headroom.
const fig1AllocCeiling = 181

// TestFigure1AllocCeiling holds one verified allocation of Figure 1
// under a committed allocation budget.
func TestFigure1AllocCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rt := iloc.MustParse(fig1Src)
	opts := Options{Machine: target.WithRegs(3), Mode: ModeRemat, Verify: true}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = Allocate(context.Background(), rt, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Figure 1 allocation: %.0f allocations", allocs)
	if allocs > fig1AllocCeiling {
		t.Errorf("Figure 1 allocation makes %.0f heap allocations, ceiling %d", allocs, fig1AllocCeiling)
	}
}
