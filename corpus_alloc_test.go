package regalloc

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/driver"
	"repro/internal/raceflag"
	"repro/internal/target"
)

// corpusAllocCeiling bounds the heap allocations per routine of a cold,
// verified driver batch over the count=200 seed=7 corpus on regs=6 with
// the remat strategy: the same work as BenchmarkDriverCorpus and
// perfbench's batch-cold, without a cache. It measures about 191 with
// go1.24, and about 527 before routine copies moved into arenas, the
// verifier stopped deep-cloning and the per-round CFG, dominator, loop,
// union-find and tag storage joined the pooled workspace. The ceiling
// leaves under 5% headroom: a change that adds a tenth to the
// allocator's allocations trips it.
const corpusAllocCeiling = 200

// TestCorpusAllocBudget holds a cold corpus batch under a committed
// per-routine allocation budget, so `go test ./...` fails when the
// allocator's hot path starts allocating per instruction, block or
// round again.
func TestCorpusAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	units, err := corpus.Generate(corpus.Spec{Count: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var work []driver.Unit
	for _, rt := range corpus.Routines(units) {
		work = append(work, driver.Unit{Name: rt.Name, Routine: rt})
	}
	opts := core.Options{Machine: target.WithRegs(6), Strategy: "remat", Verify: true}
	var batchErr error
	allocs := testing.AllocsPerRun(3, func() {
		batchErr = driver.New(driver.Config{Options: opts}).Run(context.Background(), work).FirstErr()
	})
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	perRoutine := allocs / float64(len(work))
	t.Logf("%d routines: %.1f allocations per routine", len(work), perRoutine)
	if perRoutine > corpusAllocCeiling {
		t.Errorf("a cold corpus batch makes %.1f heap allocations per routine, ceiling %d", perRoutine, corpusAllocCeiling)
	}
}
