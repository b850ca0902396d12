package core

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/disjoint"
	"repro/internal/dom"
	"repro/internal/ig"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/remat"
	"repro/internal/ssa"
)

// workspace is the allocator's per-round scratch storage: everything
// that dominators, liveness, SSA construction, tag propagation, live
// range unioning, graph building and spill costing would otherwise
// allocate afresh on every call. One allocation holds
// one workspace from start to finish and reuses its storage across
// rounds, coalescing fixpoints and — through the pool — routines.
//
// The lifetime rule: every table is reset before use, a Solver or
// Builder result is valid only until that solver's or builder's next
// call, and nothing in the workspace enters a Result. A pass that
// panics midway therefore leaves nothing the next reset does not clear.
type workspace struct {
	classes [iloc.NumClasses]classScratch
	// live is buildGraph's scratch live set.
	live bitset.Slab
	// tree and loops are the cfa pass's dominator tree
	// (dom.ComputeInto) and loop tables (cfg.LoopFinder), valid for the
	// round that computed them.
	tree  dom.Tree
	loops cfg.LoopFinder
}

// classScratch is the workspace storage for one register class.
type classScratch struct {
	live  liveness.Solver
	ssa   ssa.Builder
	graph ig.Graph
	// sets is the round's union-find forest over SSA values (Reset by
	// renumber); tags and work are remat.PropagateInto's storage.
	sets disjoint.Sets
	tags []remat.Tag
	work []int

	// The classState vectors, rebuilt from scratch every round.
	cost                []float64
	mustNot             []bool
	inCode, acrossCall  []bool
	spillDefs, realDefs []int
	useInstrs           []int
	refs                []costRefs
}

// workspaces pools workspaces across allocations. A workspace is owned
// by one allocation at a time; sync.Pool drops idle ones under memory
// pressure, so the pool needs no size setting.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// zeroed returns s with length n and every element zero, keeping its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
