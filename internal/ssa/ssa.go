// Package ssa builds the pruned static single assignment form of one
// register class of an ILOC routine: φ-nodes are inserted on the iterated
// dominance frontiers of definition sites, but only where the original
// register is live (dead φ-nodes are never created), and a walk over the
// dominator tree renames every definition to a fresh register number.
//
// After Build, each register number of the class identifies a *value* in
// the paper's sense: one definition (an instruction or a φ-node) plus its
// uses. Renumber unions these values back into live ranges after tag
// propagation.
package ssa

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
)

// Graph is the SSA value graph for one register class. Values are
// register numbers in [1, NumValues); index 0 is the reserved register.
type Graph struct {
	Class     iloc.Class
	NumValues int

	// DefOf[v] is the instruction defining value v (possibly a φ);
	// DefBlockOf[v] is its block. Index 0 is nil.
	DefOf      []*iloc.Instr
	DefBlockOf []*iloc.Block

	// UsesOf[v] lists the instructions that read value v (φ-nodes
	// included); the sparse propagation worklist follows these edges.
	UsesOf [][]*iloc.Instr

	// OrigOf[v] is the register number the value had before renaming.
	OrigOf []int
}

// Build converts the class-c registers of rt to pruned SSA in place and
// returns the value graph. Critical edges must already be split and the
// CFG built; live is the pre-SSA liveness solution for the class and tree
// the dominator tree. It is new(Builder).Build: nothing is kept between
// calls.
func Build(rt *iloc.Routine, c iloc.Class, tree *dom.Tree, live *liveness.Info) (*Graph, error) {
	return new(Builder).Build(rt, c, tree, live)
}

// Builder builds SSA repeatedly on one set of storage: the dominance
// frontiers, the flat tables behind the definition sites, renaming
// stacks and def-use chains, the φ bookkeeping, the walk's popped stack
// and the Graph itself. The zero value is ready to use. A Builder is not
// safe for concurrent use.
type Builder struct {
	df [][]int

	// Run offsets (see prefixSum) and the flat arrays carved into runs.
	defStart, stackStart, useStart []int
	defFlat                        []*iloc.Block
	defBlocks                      [][]*iloc.Block
	stackFlat                      []int
	stacks                         [][]int
	useFlat                        []*iloc.Instr

	hasPhi, inWork []int
	work           []*iloc.Block
	popped         []int
	phiOrig        map[*iloc.Instr]int
	// sites lists the φ-nodes to insert, in insertion order.
	sites []phiSite

	g Graph

	// The routine and class of the Build in progress, for the renaming
	// walk.
	rt        *iloc.Routine
	c         iloc.Class
	tree      *dom.Tree
	renameErr error
}

// phiNode is a φ instruction with its operand list header, allocated
// together.
type phiNode struct {
	in  iloc.Instr
	phi iloc.Phi
}

// phiSite is a φ-node to insert: at the head of block index block, for
// original register reg.
type phiSite struct{ block, reg int }

// Build converts the class-c registers of rt to pruned SSA exactly as the
// package-level Build does. The returned Graph is valid until the
// builder's next Build, which overwrites it; every table is reset first,
// so a call abandoned by a panic leaves nothing behind.
func (bd *Builder) Build(rt *iloc.Routine, c iloc.Class, tree *dom.Tree, live *liveness.Info) (*Graph, error) {
	bd.rt, bd.c, bd.tree, bd.renameErr = rt, c, tree, nil
	bd.df = dom.FrontiersInto(bd.df, tree, rt)
	df := bd.df
	nOrig := rt.NumRegs(c)

	// Definition sites per original register, in block order: one flat
	// table, each register's run sized by a counting pass.
	bd.defStart = zeroed(bd.defStart, nOrig+1)
	defStart := bd.defStart
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				defStart[d.N+1]++
			}
		}
	}
	prefixSum(defStart)
	defBlocks := runs(&bd.defFlat, &bd.defBlocks, defStart)
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				defBlocks[d.N] = append(defBlocks[d.N], b)
			}
		}
	}

	// Insert pruned φ-nodes. phiOrig remembers which original register a
	// φ merges, for the renaming walk. hasPhi and inWork are shared by
	// every register: an entry equal to v means "set for register v", so
	// moving to the next register clears them for free. stackStart[v+1]
	// counts register v's φ-nodes here and its definitions below: the
	// deepest its renaming stack can get.
	if bd.phiOrig == nil {
		bd.phiOrig = make(map[*iloc.Instr]int)
	} else {
		clear(bd.phiOrig)
	}
	phiOrig := bd.phiOrig
	bd.stackStart = zeroed(bd.stackStart, nOrig+1)
	stackStart := bd.stackStart
	bd.hasPhi = zeroed(bd.hasPhi, len(rt.Blocks))
	bd.inWork = zeroed(bd.inWork, len(rt.Blocks))
	hasPhi, inWork := bd.hasPhi, bd.inWork
	work, sites := bd.work[:0], bd.sites[:0]
	for v := 1; v < nOrig; v++ {
		if len(defBlocks[v]) == 0 {
			continue
		}
		work = append(work[:0], defBlocks[v]...)
		for _, b := range work {
			inWork[b.Index] = v
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fi := range df[d.Index] {
				f := rt.Blocks[fi]
				if hasPhi[fi] == v || !live.LiveIn[fi].Has(v) {
					continue // pruning: dead φ never inserted
				}
				hasPhi[fi] = v
				sites = append(sites, phiSite{block: fi, reg: v})
				if inWork[fi] != v {
					inWork[fi] = v
					work = append(work, f)
				}
			}
		}
	}
	bd.work, bd.sites = work[:0], sites

	// Place the φ-nodes in the order they were found. The nodes and
	// their operand lists are allocated together, exactly sized, and
	// fresh for this Build: they live on in the routine, so no later
	// Build may reuse them. Each operand list is capacity-capped.
	nargs := 0
	for _, st := range sites {
		nargs += len(rt.Blocks[st.block].Preds)
	}
	nodes := make([]phiNode, len(sites))
	args := make([]iloc.Reg, nargs)
	for i, st := range sites {
		f, r := rt.Blocks[st.block], iloc.Reg{Class: c, N: st.reg}
		n := &nodes[i]
		n.phi.Args, args = args[:len(f.Preds):len(f.Preds)], args[len(f.Preds):]
		for k := range n.phi.Args {
			n.phi.Args[k] = r
		}
		n.in = iloc.Instr{Op: iloc.OpPhi, Dst: r, Phi: &n.phi}
		f.InsertBefore(0, &n.in)
		phiOrig[&n.in] = st.reg
		stackStart[st.reg+1]++
	}

	// Rename over the dominator tree. Every renaming stack is a
	// capacity-capped run of one flat array, and the value tables are
	// sized for every definition and φ up front.
	for v := 1; v < nOrig; v++ {
		stackStart[v+1] += len(defBlocks[v])
	}
	prefixSum(stackStart)
	runs(&bd.stackFlat, &bd.stacks, stackStart)
	nNames := 1 + stackStart[nOrig]
	g := &bd.g
	*g = Graph{
		Class:      c,
		DefOf:      append(resize(g.DefOf, 0, nNames), nil),
		DefBlockOf: append(resize(g.DefBlockOf, 0, nNames), nil),
		UsesOf:     g.UsesOf,
		OrigOf:     append(resize(g.OrigOf, 0, nNames), 0),
	}
	bd.popped = bd.popped[:0]
	bd.walk(rt.Entry().Index)
	if bd.renameErr != nil {
		return nil, bd.renameErr
	}

	g.NumValues = len(g.DefOf)
	rt.NextReg[c] = g.NumValues

	// Def-use chains: one flat table, each value's run sized by a
	// counting pass.
	bd.useStart = zeroed(bd.useStart, g.NumValues+1)
	useStart := bd.useStart
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 {
					useStart[u.N+1]++
				}
			}
		}
	}
	prefixSum(useStart)
	runs(&bd.useFlat, &g.UsesOf, useStart)
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 {
					g.UsesOf[u.N] = append(g.UsesOf[u.N], in)
				}
			}
		}
	}
	return g, nil
}

// newName records a fresh value for a definition of orig by def in
// block b and pushes it on orig's renaming stack.
func (bd *Builder) newName(orig int, def *iloc.Instr, b *iloc.Block) int {
	g := &bd.g
	v := len(g.DefOf)
	g.DefOf = append(g.DefOf, def)
	g.DefBlockOf = append(g.DefBlockOf, b)
	g.OrigOf = append(g.OrigOf, orig)
	bd.stacks[orig] = append(bd.stacks[orig], v)
	return v
}

// top returns the current name of orig, read in block label (at a φ
// argument when phi is set); the location is formatted only when the use
// has no reaching definition.
func (bd *Builder) top(orig int, label string, phi bool) int {
	st := bd.stacks[orig]
	if len(st) == 0 {
		if bd.renameErr == nil {
			where := label
			if phi {
				where += "(φ)"
			}
			bd.renameErr = fmt.Errorf("ssa: use of undefined register %s%d at %s",
				map[iloc.Class]string{iloc.ClassInt: "r", iloc.ClassFlt: "f"}[bd.c], orig, where)
		}
		return 0
	}
	return st[len(st)-1]
}

// walk renames block bi and its dominator-tree descendants. popped is
// one stack shared by the whole walk: each block pushes the registers it
// named and pops back to where it started.
func (bd *Builder) walk(bi int) {
	c := bd.c
	b := bd.rt.Blocks[bi]
	mark := len(bd.popped)
	for _, in := range b.Instrs {
		if in.Op == iloc.OpPhi {
			if in.Dst.Class != c {
				continue
			}
			orig := bd.phiOrig[in]
			in.Dst = iloc.Reg{Class: c, N: bd.newName(orig, in, b)}
			bd.popped = append(bd.popped, orig)
			continue
		}
		for i := range in.Src[:in.Op.NSrc()] {
			if in.Src[i].Class == c && in.Src[i].N != 0 {
				in.Src[i] = iloc.Reg{Class: c, N: bd.top(in.Src[i].N, b.Label, false)}
			}
		}
		if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
			orig := d.N
			in.Dst = iloc.Reg{Class: c, N: bd.newName(orig, in, b)}
			bd.popped = append(bd.popped, orig)
		}
	}
	for _, s := range b.Succs {
		pi := s.PredIndex(b)
		for _, in := range s.Instrs {
			if in.Op != iloc.OpPhi {
				break
			}
			if in.Dst.Class != c {
				continue
			}
			orig := in.Phi.Args[pi].N
			if v, named := bd.phiOrig[in]; named {
				orig = v
			}
			in.Phi.Args[pi] = iloc.Reg{Class: c, N: bd.top(orig, s.Label, true)}
		}
	}
	for _, child := range bd.tree.Children[bi] {
		bd.walk(child)
	}
	for _, orig := range bd.popped[mark:] {
		bd.stacks[orig] = bd.stacks[orig][:len(bd.stacks[orig])-1]
	}
	bd.popped = bd.popped[:mark]
}

// prefixSum turns per-entry counts stored one slot late (count of entry
// v at start[v+1]) into run offsets: entry v's run is
// [start[v], start[v+1]).
func prefixSum(start []int) {
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
}

// runs carves *flat into len(start)-1 empty slices stored in *out, run v
// with room for exactly start[v+1]-start[v] elements, and returns *out.
// Both tables keep their storage when it is large enough. The capacity
// cap keeps an append to one run from spilling into the next; the runs
// start empty, so the flat array needs no clearing.
func runs[T any](flat *[]T, out *[][]T, start []int) [][]T {
	*flat = resize(*flat, start[len(start)-1], start[len(start)-1])
	*out = resize(*out, len(start)-1, len(start)-1)
	f, o := *flat, *out
	for v := range o {
		o[v] = f[start[v]:start[v]:start[v+1]]
	}
	return o
}

// resize returns s with length n and room for at least c elements,
// keeping its storage when it is large enough. Kept elements are not
// cleared.
func resize[T any](s []T, n, c int) []T {
	if cap(s) < c {
		return make([]T, n, c)
	}
	return s[:n]
}

// zeroed returns s with length n and every element zero, keeping its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n, n)
	clear(s)
	return s
}
