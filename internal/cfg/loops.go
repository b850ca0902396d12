package cfg

import (
	"repro/internal/dom"
	"repro/internal/iloc"
)

// Loop is a natural loop: a header block and the set of blocks in its
// body (header included). Loops sharing a header are merged.
type Loop struct {
	Header *iloc.Block
	Blocks []*iloc.Block
	Depth  int   // nesting depth of this loop (outermost = 1)
	Parent *Loop // innermost enclosing loop, nil for outermost
}

// Contains reports whether b is in the loop body.
func (l *Loop) Contains(b *iloc.Block) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// FindLoops discovers the natural loops of the routine from back edges
// (edges whose target dominates their source) and merges loops with the
// same header. The dominator tree must correspond to the current CFG.
// Loops come in header order, each body in block order. It is
// new(LoopFinder).Find: nothing is kept between calls.
func FindLoops(rt *iloc.Routine, t *dom.Tree) []*Loop {
	return new(LoopFinder).Find(rt, t)
}

// LoopFinder finds loops repeatedly on one set of storage: the header
// numbering, the block-indexed loop bodies, the walk stack, and the
// Loop values, member lists and result slice it returns. The zero value
// is ready to use. A LoopFinder is not safe for concurrent use.
type LoopFinder struct {
	slot   []int
	body   []bool
	stack  []*iloc.Block
	store  []Loop
	blocks []*iloc.Block
	loops  []*Loop
}

// Find computes the loops exactly as FindLoops does. The result — the
// slice, the Loops and their member lists — is valid until the
// finder's next Find, which overwrites it; every table is reset first.
func (f *LoopFinder) Find(rt *iloc.Routine, t *dom.Tree) []*Loop {
	n := len(rt.Blocks)
	// slot[h] numbers the loop headers in block order; -1 elsewhere.
	f.slot = resize(f.slot, n)
	slot := f.slot
	for i := range slot {
		slot[i] = -1
	}
	for _, b := range rt.Blocks {
		for _, s := range b.Succs {
			if t.Dominates(s.Index, b.Index) {
				slot[s.Index] = 0
			}
		}
	}
	nl := 0
	for i := range slot {
		if slot[i] == 0 {
			slot[i] = nl
			nl++
		}
	}
	if nl == 0 {
		return nil
	}

	// body[l*n+b] reports whether block b is in the body of loop l.
	f.body = resize(f.body, nl*n)
	body := f.body
	clear(body)
	stack := f.stack[:0]
	for _, b := range rt.Blocks {
		for _, s := range b.Succs {
			if !t.Dominates(s.Index, b.Index) {
				continue
			}
			// Back edge b -> s: body = s plus all blocks reaching b
			// without passing through s.
			in := body[slot[s.Index]*n : (slot[s.Index]+1)*n]
			in[s.Index] = true
			if !in[b.Index] {
				in[b.Index] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range x.Preds {
					if !in[p.Index] {
						in[p.Index] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	f.stack = stack

	members := 0
	for _, in := range body {
		if in {
			members++
		}
	}
	f.store = resize(f.store, nl)
	f.blocks = resize(f.blocks, members)
	f.loops = resize(f.loops, nl)
	store, blocks, loops := f.store, f.blocks, f.loops
	for _, h := range rt.Blocks {
		l := slot[h.Index]
		if l < 0 {
			continue
		}
		in := body[l*n : (l+1)*n]
		k := 0
		for _, b := range rt.Blocks {
			if in[b.Index] {
				blocks[k] = b
				k++
			}
		}
		store[l] = Loop{Header: h, Blocks: blocks[:k:k]}
		blocks = blocks[k:]
		loops[l] = &store[l]
	}
	// Nesting: loop A encloses B if A contains B's header and A != B.
	for _, l := range loops {
		for mi, m := range loops {
			if m == l || !body[mi*n+l.Header.Index] {
				continue
			}
			// m encloses l; pick the smallest such m as parent.
			if l.Parent == nil || len(m.Blocks) < len(l.Parent.Blocks) {
				l.Parent = m
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	return loops
}

// resize returns s with length n, keeping its storage when it is large
// enough; the elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Analyze builds the CFG, computes dominators, discovers loops and
// assigns each block its loop nesting depth (0 outside any loop). It
// returns the dominator tree and the loops for reuse by later phases.
func Analyze(rt *iloc.Routine) (*dom.Tree, []*Loop, error) {
	if err := Build(rt); err != nil {
		return nil, nil, err
	}
	t, loops := AnalyzeInto(nil, nil, rt)
	return t, loops, nil
}

// AnalyzeInto is Analyze on a routine whose CFG is already built, with
// the dominator tree computed into t's storage (dom.ComputeInto) and
// the loops found by f (LoopFinder.Find); a nil t or f starts afresh.
// The results are valid until the next use of the same storage.
func AnalyzeInto(t *dom.Tree, f *LoopFinder, rt *iloc.Routine) (*dom.Tree, []*Loop) {
	if f == nil {
		f = new(LoopFinder)
	}
	t = dom.ComputeInto(t, rt)
	loops := f.Find(rt, t)
	for _, b := range rt.Blocks {
		b.Depth = 0
	}
	for _, l := range loops {
		for _, b := range l.Blocks {
			if l.Depth > b.Depth {
				b.Depth = l.Depth
			}
		}
	}
	return t, loops
}
