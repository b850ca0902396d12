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
// the dominator tree.
func Build(rt *iloc.Routine, c iloc.Class, tree *dom.Tree, live *liveness.Info) (*Graph, error) {
	df := dom.Frontiers(tree, rt)
	nOrig := rt.NumRegs(c)

	// Definition sites per original register, in block order: one flat
	// table, each register's run sized by a counting pass.
	defStart := make([]int, nOrig+1)
	for _, b := range rt.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				defStart[d.N+1]++
			}
		}
	}
	prefixSum(defStart)
	defBlocks := runs[*iloc.Block](defStart)
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
	phiOrig := make(map[*iloc.Instr]int)
	stackStart := make([]int, nOrig+1)
	hasPhi := make([]int, len(rt.Blocks))
	inWork := make([]int, len(rt.Blocks))
	var work []*iloc.Block
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
				phi := &iloc.Instr{
					Op:  iloc.OpPhi,
					Dst: iloc.Reg{Class: c, N: v},
					Phi: &iloc.Phi{Args: make([]iloc.Reg, len(f.Preds))},
				}
				for i := range phi.Phi.Args {
					phi.Phi.Args[i] = iloc.Reg{Class: c, N: v}
				}
				f.InsertBefore(0, phi)
				phiOrig[phi] = v
				stackStart[v+1]++
				if inWork[fi] != v {
					inWork[fi] = v
					work = append(work, f)
				}
			}
		}
	}

	// Rename over the dominator tree. Every renaming stack is a
	// capacity-capped run of one flat array, and the value tables are
	// sized for every definition and φ up front.
	for v := 1; v < nOrig; v++ {
		stackStart[v+1] += len(defBlocks[v])
	}
	prefixSum(stackStart)
	stacks := runs[int](stackStart)
	nNames := 1 + stackStart[nOrig]
	g := &Graph{
		Class:      c,
		DefOf:      make([]*iloc.Instr, 1, nNames),
		DefBlockOf: make([]*iloc.Block, 1, nNames),
		OrigOf:     make([]int, 1, nNames),
	}
	newName := func(orig int, def *iloc.Instr, b *iloc.Block) int {
		v := len(g.DefOf)
		g.DefOf = append(g.DefOf, def)
		g.DefBlockOf = append(g.DefBlockOf, b)
		g.OrigOf = append(g.OrigOf, orig)
		stacks[orig] = append(stacks[orig], v)
		return v
	}
	var renameErr error
	// top returns the current name of orig, read in block label (at a
	// φ argument when phi is set); the location is formatted only when
	// the use has no reaching definition.
	top := func(orig int, label string, phi bool) int {
		st := stacks[orig]
		if len(st) == 0 {
			if renameErr == nil {
				where := label
				if phi {
					where += "(φ)"
				}
				renameErr = fmt.Errorf("ssa: use of undefined register %s%d at %s",
					map[iloc.Class]string{iloc.ClassInt: "r", iloc.ClassFlt: "f"}[c], orig, where)
			}
			return 0
		}
		return st[len(st)-1]
	}

	// popped is one stack shared by the whole walk: each block pushes
	// the registers it named and pops back to where it started.
	var popped []int
	var walk func(bi int)
	walk = func(bi int) {
		b := rt.Blocks[bi]
		mark := len(popped)
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				if in.Dst.Class != c {
					continue
				}
				orig := phiOrig[in]
				in.Dst = iloc.Reg{Class: c, N: newName(orig, in, b)}
				popped = append(popped, orig)
				continue
			}
			for i := range in.Src[:in.Op.NSrc()] {
				if in.Src[i].Class == c && in.Src[i].N != 0 {
					in.Src[i] = iloc.Reg{Class: c, N: top(in.Src[i].N, b.Label, false)}
				}
			}
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				orig := d.N
				in.Dst = iloc.Reg{Class: c, N: newName(orig, in, b)}
				popped = append(popped, orig)
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
				if v, named := phiOrig[in]; named {
					orig = v
				}
				in.Phi.Args[pi] = iloc.Reg{Class: c, N: top(orig, s.Label, true)}
			}
		}
		for _, child := range tree.Children[bi] {
			walk(child)
		}
		for _, orig := range popped[mark:] {
			stacks[orig] = stacks[orig][:len(stacks[orig])-1]
		}
		popped = popped[:mark]
	}
	walk(rt.Entry().Index)
	if renameErr != nil {
		return nil, renameErr
	}

	g.NumValues = len(g.DefOf)
	rt.NextReg[c] = g.NumValues

	// Def-use chains: one flat table, each value's run sized by a
	// counting pass.
	useStart := make([]int, g.NumValues+1)
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
	g.UsesOf = runs[*iloc.Instr](useStart)
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

// prefixSum turns per-entry counts stored one slot late (count of entry
// v at start[v+1]) into run offsets: entry v's run is
// [start[v], start[v+1]).
func prefixSum(start []int) {
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
}

// runs carves one flat array into len(start)-1 empty slices, run v with
// room for exactly start[v+1]-start[v] elements. The capacity cap keeps
// an append to one run from spilling into the next.
func runs[T any](start []int) [][]T {
	flat := make([]T, start[len(start)-1])
	out := make([][]T, len(start)-1)
	for v := range out {
		out[v] = flat[start[v]:start[v]:start[v+1]]
	}
	return out
}
