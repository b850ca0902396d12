// Package cfg builds and maintains the control-flow graph of an ILOC
// routine: successor/predecessor edges, reachability, reverse postorder,
// critical-edge splitting, and natural-loop nesting depth (which weights
// spill costs by 10^depth, as in the paper).
package cfg

import (
	"fmt"

	"repro/internal/iloc"
)

// Build computes Succs/Preds for every block from terminators and
// fall-through, and removes unreachable blocks. Blocks without a
// terminator fall through to the next block in Routine.Blocks order.
//
// Edge lists keep their storage from an earlier Build when it is large
// enough; the blocks whose lists are too small share one new array, cut
// into capacity-capped runs, so a first Build allocates a fixed number
// of times rather than per block.
func Build(rt *iloc.Routine) error {
	rt.Reindex()
	// A block names at most two successors.
	short := 0
	for _, b := range rt.Blocks {
		if cap(b.Succs) < 2 {
			short++
		}
	}
	spare := make([]*iloc.Block, 2*short)
	for _, b := range rt.Blocks {
		if cap(b.Succs) < 2 {
			b.Succs, spare = spare[:0:2], spare[2:]
		} else {
			b.Succs = b.Succs[:0]
		}
	}
	addSucc := func(from, to *iloc.Block) {
		for _, s := range from.Succs {
			if s == to {
				return // collapse duplicate edges (br cond r, L, L)
			}
		}
		from.Succs = append(from.Succs, to)
	}
	for i, b := range rt.Blocks {
		t := b.Terminator()
		if t == nil {
			if i+1 >= len(rt.Blocks) {
				return fmt.Errorf("cfg: final block %s has no terminator", b.Label)
			}
			addSucc(b, rt.Blocks[i+1])
			continue
		}
		switch t.Op {
		case iloc.OpJmp:
			to := rt.BlockByLabel(t.Label)
			if to == nil {
				return fmt.Errorf("cfg: jmp to unknown label %q", t.Label)
			}
			addSucc(b, to)
		case iloc.OpBr:
			to1, to2 := rt.BlockByLabel(t.Label), rt.BlockByLabel(t.Label2)
			if to1 == nil || to2 == nil {
				return fmt.Errorf("cfg: br to unknown label in %s", b.Label)
			}
			addSucc(b, to1)
			addSucc(b, to2)
		default: // ret/retr/retf: no successors
		}
	}

	// Predecessors, in the order the edges were added: count them, give
	// the blocks without room runs of one array, then fill.
	count := make([]int, len(rt.Blocks))
	for _, b := range rt.Blocks {
		for _, s := range b.Succs {
			count[s.Index]++
		}
	}
	need := 0
	for _, b := range rt.Blocks {
		if cap(b.Preds) < count[b.Index] {
			need += count[b.Index]
		}
	}
	spare = make([]*iloc.Block, need)
	for _, b := range rt.Blocks {
		if n := count[b.Index]; cap(b.Preds) < n {
			b.Preds, spare = spare[:0:n], spare[n:]
		} else {
			b.Preds = b.Preds[:0]
		}
	}
	for _, b := range rt.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
	pruneUnreachable(rt, count)
	rt.Reindex()
	return nil
}

// pruneUnreachable drops the blocks the entry cannot reach, and their
// edges into reachable blocks. Block indices must be current; reach,
// one entry per block, is scratch for the reachability marks.
func pruneUnreachable(rt *iloc.Routine, reach []int) {
	clear(reach)
	if markReachable(rt.Entry(), reach) == len(rt.Blocks) {
		return
	}
	kept := rt.Blocks[:0]
	for _, b := range rt.Blocks {
		if reach[b.Index] != 0 {
			kept = append(kept, b)
		}
	}
	rt.Blocks = kept
	// Drop edges from removed predecessors.
	for _, b := range rt.Blocks {
		preds := b.Preds[:0]
		for _, p := range b.Preds {
			if reach[p.Index] != 0 {
				preds = append(preds, p)
			}
		}
		b.Preds = preds
	}
}

// markReachable marks every block reachable from b and returns how
// many it newly marked.
func markReachable(b *iloc.Block, reach []int) int {
	reach[b.Index] = 1
	n := 1
	for _, s := range b.Succs {
		if reach[s.Index] == 0 {
			n += markReachable(s, reach)
		}
	}
	return n
}

// ReversePostorder returns the blocks in reverse postorder of a DFS from
// the entry. Every block is reachable after Build, so the result covers
// the whole routine.
func ReversePostorder(rt *iloc.Routine) []*iloc.Block {
	rpo, _ := ReversePostorderInto(nil, nil, rt)
	return rpo
}

// ReversePostorderInto computes the same order as ReversePostorder into
// rpo's storage, with seen as the walk's visited marks. It returns both,
// grown if they were too small, for the next call: a caller that keeps
// them across routines of the same size allocates nothing here.
func ReversePostorderInto(rpo []*iloc.Block, seen []bool, rt *iloc.Routine) ([]*iloc.Block, []bool) {
	n := len(rt.Blocks)
	if cap(seen) < n {
		seen = make([]bool, n)
	} else {
		seen = seen[:n]
		clear(seen)
	}
	if cap(rpo) < n {
		rpo = make([]*iloc.Block, 0, n)
	}
	rpo = postorder(rt.Entry(), seen, rpo[:0])
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	return rpo, seen
}

// postorder appends the blocks reachable from b, unmarked in seen, to
// post in DFS postorder.
func postorder(b *iloc.Block, seen []bool, post []*iloc.Block) []*iloc.Block {
	seen[b.Index] = true
	for _, s := range b.Succs {
		if !seen[s.Index] {
			post = postorder(s, seen, post)
		}
	}
	return append(post, b)
}

// SplitCriticalEdges inserts an empty jmp-block on every edge whose source
// has multiple successors and whose target has multiple predecessors.
// Renumber needs this so split copies inserted "in the predecessor block"
// (§4.1 step 6) cannot execute on an unrelated path. It returns the number
// of edges split and rebuilds the CFG if any were.
func SplitCriticalEdges(rt *iloc.Routine) (int, error) {
	type edge struct {
		from *iloc.Block
		to   *iloc.Block
	}
	var critical []edge
	for _, b := range rt.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, s := range b.Succs {
			if len(s.Preds) > 1 {
				critical = append(critical, edge{b, s})
			}
		}
	}
	if len(critical) == 0 {
		return 0, nil
	}
	for _, e := range critical {
		mid := &iloc.Block{
			Label:  rt.FreshLabel(e.from.Label + ".x." + e.to.Label),
			Depth:  min(e.from.Depth, e.to.Depth),
			Instrs: []*iloc.Instr{{Op: iloc.OpJmp, Dst: iloc.NoReg, Label: e.to.Label}},
		}
		t := e.from.Terminator()
		if t == nil || t.Op != iloc.OpBr {
			return 0, fmt.Errorf("cfg: critical edge from %s without br terminator", e.from.Label)
		}
		// Retarget exactly one arm. Build collapses duplicate-target
		// branches to one edge, so Label and Label2 differ here.
		switch e.to.Label {
		case t.Label:
			t.Label = mid.Label
		case t.Label2:
			t.Label2 = mid.Label
		default:
			return 0, fmt.Errorf("cfg: edge %s->%s not in terminator", e.from.Label, e.to.Label)
		}
		rt.Blocks = append(rt.Blocks, mid)
	}
	rt.Reindex()
	return len(critical), Build(rt)
}
