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
}

// Compute returns the dominator tree of the routine's CFG (edges must be
// built). Blocks[0] is the root.
func Compute(rt *iloc.Routine) *Tree {
	n := len(rt.Blocks)
	succs := func(b *iloc.Block) []*iloc.Block { return b.Succs }
	preds := func(b *iloc.Block) []*iloc.Block { return b.Preds }
	return compute(rt.Blocks, []*iloc.Block{rt.Entry()}, succs, preds, n)
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
	return compute(rt.Blocks, exits, succs, preds, len(rt.Blocks))
}

// compute implements Cooper-Harvey-Kennedy over an abstract edge
// orientation. roots lists the entry nodes of the walk (several for the
// reverse graph); a virtual super-root with index -1 dominates them all.
func compute(blocks []*iloc.Block, roots []*iloc.Block, succs, preds func(*iloc.Block) []*iloc.Block, n int) *Tree {
	t := &Tree{
		Idom:     make([]int, n),
		Children: make([][]int, n),
		rpoNum:   make([]int, n),
	}
	for i := range t.Idom {
		t.Idom[i] = -1
		t.rpoNum[i] = -1
	}

	// Reverse postorder from the roots.
	seen := make([]bool, n)
	var post []*iloc.Block
	var dfs func(b *iloc.Block)
	dfs = func(b *iloc.Block) {
		seen[b.Index] = true
		for _, s := range succs(b) {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	for _, r := range roots {
		if !seen[r.Index] {
			dfs(r)
		}
	}
	order := make([]*iloc.Block, len(post))
	for i, b := range post {
		order[len(post)-1-i] = b
	}
	t.Order = order
	for i, b := range order {
		t.rpoNum[b.Index] = i
	}

	// Roots hang off a virtual super-root represented by index -1; their
	// Idom stays -1 (this also makes multi-exit postdominator trees
	// well-defined). processed marks nodes whose Idom chain is valid.
	isRoot := make([]bool, n)
	processed := make([]bool, n)
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
	return t
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
