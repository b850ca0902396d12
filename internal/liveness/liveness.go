// Package liveness computes live-in/live-out sets for one register class
// of a routine with an iterative bitset worklist.
//
// The paper's renumber uses the sparse data-flow evaluation graphs of
// Choi, Cytron and Ferrante for the same job; the dense iterative solver
// reaches the identical fixpoint (see DESIGN.md §4 on substitutions).
package liveness

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cfg"
	"repro/internal/iloc"
)

// Info holds the liveness solution for one register class. All sets are
// indexed by Block.Index and sized to the routine's register space for
// the class; the reserved register 0 never appears.
type Info struct {
	Class   iloc.Class
	LiveIn  []*bitset.Set
	LiveOut []*bitset.Set
	UEVar   []*bitset.Set // upward-exposed uses per block
	Kill    []*bitset.Set // registers defined per block
}

// Compute solves liveness for class c. CFG edges must be built, and the
// code must not contain φ-nodes (renumber removes them before liveness is
// next needed). It is new(Solver).Compute: nothing is kept between calls.
func Compute(rt *iloc.Routine, c iloc.Class) *Info {
	return new(Solver).Compute(rt, c)
}

// Solver solves liveness repeatedly on one set of storage: its slab of
// bit sets, the pointer array behind the Info vectors, and the Info
// itself. The zero value is ready to use. A Solver is not safe for
// concurrent use.
type Solver struct {
	slab bitset.Slab
	ptrs []*bitset.Set
	info Info
	// rpo and seen are the block order and its walk's marks
	// (cfg.ReversePostorderInto).
	rpo  []*iloc.Block
	seen []bool
}

// Compute solves liveness for class c exactly as the package-level
// Compute does. The result is valid until the solver's next Compute,
// which overwrites it; every table is reset first, so a call abandoned
// by a panic leaves nothing behind.
func (s *Solver) Compute(rt *iloc.Routine, c iloc.Class) *Info {
	nb := len(rt.Blocks)
	n := rt.NumRegs(c)
	// Every set, the solver's temporary included, comes from one slab,
	// and the four per-block vectors share one pointer array: the
	// allocation count does not grow with the routine, and a solver
	// that has seen a routine this large allocates neither again.
	slab := s.slab.Reset(4*nb+1, n)
	if cap(s.ptrs) >= 4*nb {
		s.ptrs = s.ptrs[:4*nb]
	} else {
		s.ptrs = make([]*bitset.Set, 4*nb)
	}
	ptrs := s.ptrs
	for i := range ptrs {
		ptrs[i] = &slab[i]
	}
	info := &s.info
	*info = Info{
		Class:   c,
		LiveIn:  ptrs[0*nb : 1*nb : 1*nb],
		LiveOut: ptrs[1*nb : 2*nb : 2*nb],
		UEVar:   ptrs[2*nb : 3*nb : 3*nb],
		Kill:    ptrs[3*nb : 4*nb : 4*nb],
	}

	for _, b := range rt.Blocks {
		ue, kill := info.UEVar[b.Index], info.Kill[b.Index]
		for _, in := range b.Instrs {
			if in.Op == iloc.OpPhi {
				panic(fmt.Sprintf("liveness: φ-node in %s/%s", rt.Name, b.Label))
			}
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 && !kill.Has(u.N) {
					ue.Add(u.N)
				}
			}
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				kill.Add(d.N)
			}
		}
	}

	// Backward problem: iterate blocks in postorder (reverse RPO) until
	// the fixpoint.
	s.rpo, s.seen = cfg.ReversePostorderInto(s.rpo, s.seen, rt)
	rpo := s.rpo
	tmp := &slab[4*nb]
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			out := info.LiveOut[b.Index]
			for _, s := range b.Succs {
				if out.UnionWith(info.LiveIn[s.Index]) {
					changed = true
				}
			}
			// LiveIn = UEVar ∪ (LiveOut − Kill)
			tmp.CopyFrom(out)
			tmp.DifferenceWith(info.Kill[b.Index])
			tmp.UnionWith(info.UEVar[b.Index])
			if !tmp.Equal(info.LiveIn[b.Index]) {
				info.LiveIn[b.Index].CopyFrom(tmp)
				changed = true
			}
		}
	}
	return info
}

// LiveAcross reports whether register r is live out of block b.
func (in *Info) LiveAcross(b *iloc.Block, r int) bool {
	return in.LiveOut[b.Index].Has(r)
}
