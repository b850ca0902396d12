// Package dom computes dominator trees and dominance frontiers using the
// iterative algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast
// Dominance Algorithm") and the frontier construction of Cytron et al.
// Both forward and reverse (postdominance) variants are provided; the
// paper's control-flow-analysis phase ("cfa" in Table 2) computes forward
// and reverse dominators plus dominance frontiers.
package dom

import (
	"repro/internal/iloc"
)

// Tree is a dominator tree over the blocks of a routine. Blocks are
// identified by Block.Index.
type Tree struct {
	// Idom[b] is the immediate dominator of block b, or -1 for the root
	// (and for blocks outside the walk, which cannot happen after
	// cfg.Build removes unreachable blocks).
	Idom []int
	// Children[b] lists the blocks immediately dominated by b.
	Children [][]int
	// Order is a reverse postorder of the (possibly reversed) CFG; the
	// renaming walk in SSA construction uses Children, while iterative
	// dataflow uses Order.
	Order []*iloc.Block

	rpoNum []int // block index -> position in Order

	// The walk's scratch marks, kept for the next ComputeInto.
	seen, isRoot, processed []bool
}

// Compute returns the dominator tree of the routine's CFG (edges must be
// built). Blocks[0] is the root.
func Compute(rt *iloc.Routine) *Tree {
	return ComputeInto(nil, rt)
}

// ComputeInto computes the same tree as Compute into t's storage — its
// Idom, Children (outer and per-block slices), Order, block numbering
// and walk scratch — and returns t; a nil t starts a new tree. The
// previous tree in t is overwritten, so a result is valid until the
// next ComputeInto on the same storage. A caller that keeps t across
// routines of the same shape allocates nothing here.
func ComputeInto(t *Tree, rt *iloc.Routine) *Tree {
	if t == nil {
		t = new(Tree)
	}
	succs := func(b *iloc.Block) []*iloc.Block { return b.Succs }
	preds := func(b *iloc.Block) []*iloc.Block { return b.Preds }
	roots := [1]*iloc.Block{rt.Entry()}
	t.compute(roots[:], succs, preds, len(rt.Blocks))
	return t
}

// ComputePost returns the postdominator tree. Because a routine may have
// several exit blocks (ret/retr/retf), the walk starts from all of them;
// Idom of an exit block is -1. Infinite loops (blocks that cannot reach an
// exit) would be unpostdominated; Verify-clean routines produced by the
// suite always reach an exit.
func ComputePost(rt *iloc.Routine) *Tree {
	var exits []*iloc.Block
	for _, b := range rt.Blocks {
		if t := b.Terminator(); t != nil && t.Op.IsRet() {
			exits = append(exits, b)
		}
	}
	succs := func(b *iloc.Block) []*iloc.Block { return b.Preds }
	preds := func(b *iloc.Block) []*iloc.Block { return b.Succs }
	t := new(Tree)
	t.compute(exits, succs, preds, len(rt.Blocks))
	return t
}

// fill returns s with length n and every element v, keeping its storage
// when it is large enough.
func fill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// compute implements Cooper-Harvey-Kennedy over an abstract edge
// orientation, into t's storage. roots lists the entry nodes of the
// walk (several for the reverse graph); a virtual super-root with index
// -1 dominates them all.
func (t *Tree) compute(roots []*iloc.Block, succs, preds func(*iloc.Block) []*iloc.Block, n int) {
	t.Idom = fill(t.Idom, n, -1)
	t.rpoNum = fill(t.rpoNum, n, -1)
	if cap(t.Children) < n {
		grown := make([][]int, n)
		copy(grown, t.Children[:cap(t.Children)])
		t.Children = grown
	}
	t.Children = t.Children[:n]
	for i := range t.Children {
		t.Children[i] = t.Children[i][:0]
	}

	// Reverse postorder from the roots.
	t.seen = fill(t.seen, n, false)
	if cap(t.Order) < n {
		t.Order = make([]*iloc.Block, 0, n)
	}
	order := t.Order[:0]
	for _, r := range roots {
		if !t.seen[r.Index] {
			order = t.postorder(r, succs, order)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	t.Order = order
	for i, b := range order {
		t.rpoNum[b.Index] = i
	}

	// Roots hang off a virtual super-root represented by index -1; their
	// Idom stays -1 (this also makes multi-exit postdominator trees
	// well-defined). processed marks nodes whose Idom chain is valid.
	t.isRoot = fill(t.isRoot, n, false)
	t.processed = fill(t.processed, n, false)
	isRoot, processed := t.isRoot, t.processed
	for _, r := range roots {
		isRoot[r.Index] = true
		processed[r.Index] = true
	}

	// intersect walks both chains up to the common ancestor; reaching the
	// virtual root on either side yields the virtual root.
	intersect := func(a, b int) int {
		for a != b {
			if a == -1 || b == -1 {
				return -1
			}
			if t.rpoNum[a] > t.rpoNum[b] {
				a = t.Idom[a]
			} else {
				b = t.Idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if isRoot[b.Index] {
				continue
			}
			newIdom := -1
			first := true
			for _, p := range preds(b) {
				pi := p.Index
				if t.rpoNum[pi] < 0 || !processed[pi] {
					continue // unreachable in this orientation or not yet processed
				}
				if first {
					newIdom, first = pi, false
				} else {
					newIdom = intersect(pi, newIdom)
				}
			}
			if first {
				continue // no processed predecessor yet
			}
			if !processed[b.Index] || t.Idom[b.Index] != newIdom {
				t.Idom[b.Index] = newIdom
				processed[b.Index] = true
				changed = true
			}
		}
	}
	for b := 0; b < n; b++ {
		if p := t.Idom[b]; p >= 0 {
			t.Children[p] = append(t.Children[p], b)
		}
	}
}

// postorder appends the blocks reachable from b along succs, unmarked
// in t.seen, to post in DFS postorder.
func (t *Tree) postorder(b *iloc.Block, succs func(*iloc.Block) []*iloc.Block, post []*iloc.Block) []*iloc.Block {
	t.seen[b.Index] = true
	for _, s := range succs(b) {
		if !t.seen[s.Index] {
			post = t.postorder(s, succs, post)
		}
	}
	return append(post, b)
}

// Dominates reports whether block a dominates block b (reflexive).
func (t *Tree) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = t.Idom[b]
	}
	return false
}

// Frontiers returns the dominance frontier of every block, per Cytron et
// al.: DF(b) contains each join point j with a predecessor dominated by b
// while b does not strictly dominate j.
func Frontiers(t *Tree, rt *iloc.Routine) [][]int {
	return FrontiersInto(nil, t, rt)
}

// FrontiersInto computes the same frontiers as Frontiers into df,
// reusing its outer slice and every per-block slice: a builder that
// keeps df across routines of the same shape allocates nothing here.
func FrontiersInto(df [][]int, t *Tree, rt *iloc.Routine) [][]int {
	n := len(rt.Blocks)
	if cap(df) < n {
		grown := make([][]int, n)
		copy(grown, df[:cap(df)])
		df = grown
	}
	df = df[:n]
	for i := range df {
		df[i] = df[i][:0]
	}
	add := func(b, j int) {
		for _, x := range df[b] {
			if x == j {
				return
			}
		}
		df[b] = append(df[b], j)
	}
	for _, b := range rt.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p.Index
			for runner != -1 && runner != t.Idom[b.Index] {
				add(runner, b.Index)
				runner = t.Idom[runner]
			}
		}
	}
	return df
}

// PostFrontiers returns reverse dominance frontiers (control dependence),
// used by splitting scheme 5 in §6 of the paper.
func PostFrontiers(t *Tree, rt *iloc.Routine) [][]int {
	n := len(rt.Blocks)
	df := make([][]int, n)
	add := func(b, j int) {
		for _, x := range df[b] {
			if x == j {
				return
			}
		}
		df[b] = append(df[b], j)
	}
	for _, b := range rt.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, p := range b.Succs {
			runner := p.Index
			for runner != -1 && runner != t.Idom[b.Index] {
				add(runner, b.Index)
				runner = t.Idom[runner]
			}
		}
	}
	return df
}
