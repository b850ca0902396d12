package core

import (
	"math"
	"slices"

	"repro/internal/iloc"
)

// pow10 returns 10^d as a float, saturating for absurd depths.
func pow10(d int) float64 {
	if d > 12 {
		d = 12
	}
	p := 1.0
	for i := 0; i < d; i++ {
		p *= 10
	}
	return p
}

// computeCosts estimates, for every live range, the run-time cycles that
// spilling it would add, weighted by 10^depth per reference (§2, "spill
// costs"). A ⊥ range pays a store per definition and a load per use; a
// never-killed range pays only the tag instruction per use and *saves*
// its definitions, which are deleted (§3.2: no stores are needed).
// Spill-born temporaries get infinite cost so they are never respilled.
func (a *allocator) computeCosts(cs *classState) {
	c := cs.c
	n := a.rt.NumRegs(c)
	sc := &a.ws.classes[c]
	sc.cost = zeroed(sc.cost, n)
	sc.mustNot = zeroed(sc.mustNot, n)
	cs.cost, cs.mustNot = sc.cost, sc.mustNot
	m := a.opts.Machine

	loadCost := float64(m.MemCycles)
	storeCost := float64(m.MemCycles)

	// A range must not be respilled only when doing so cannot shrink it:
	// every definition is spill-born (a reload or rematerialization) and
	// a single instruction consumes it. Such a range is already minimal —
	// respilling would just add a load/store shuttle. Crucially, a range
	// that coalescing merged with real code keeps real definitions or
	// extra uses and stays spillable; marking it unspillable would let
	// the infinite cost infect the merged range and leave the colorer
	// facing unresolvable pressure (found by the random-program tests).
	sc.spillDefs = zeroed(sc.spillDefs, n)
	sc.realDefs = zeroed(sc.realDefs, n)
	sc.useInstrs = zeroed(sc.useInstrs, n)
	spillDefs, realDefs, useInstrs := sc.spillDefs, sc.realDefs, sc.useInstrs

	for _, b := range a.rt.Blocks {
		w := pow10(b.Depth)
		for _, in := range b.Instrs {
			uses := in.Uses()
			for i, u := range uses {
				if u.Class != c || u.N == 0 {
					continue
				}
				if !slices.Contains(uses[:i], u) {
					useInstrs[u.N]++ // once per instruction
				}
				t := cs.tags[u.N]
				if t.Rematerializable() {
					cs.cost[u.N] += float64(m.Cycles(t.Instr.Op)) * w
				} else {
					cs.cost[u.N] += loadCost * w
				}
			}
			d := in.Def()
			if d.Valid() && d.Class == c && d.N != 0 {
				if in.IsSpill {
					spillDefs[d.N]++
				} else {
					realDefs[d.N]++
				}
				t := cs.tags[d.N]
				if t.Rematerializable() {
					// The definition disappears when the range is
					// rematerialized; spilling saves its cycles.
					cs.cost[d.N] -= float64(m.Cycles(in.Op)) * w
				} else {
					cs.cost[d.N] += storeCost * w
				}
			}
		}
	}
	for v := 1; v < n; v++ {
		if spillDefs[v] > 0 && realDefs[v] == 0 && useInstrs[v] <= 1 {
			cs.mustNot[v] = true
		}
	}
	// Chaitin's adjacency rule: a range with a single definition whose
	// only use immediately follows it gains nothing from spilling — the
	// reload would sit exactly where the value already is. Give it
	// infinite cost so simplify never chooses it.
	sc.refs = zeroed(sc.refs, n)
	seen := sc.refs
	for _, b := range a.rt.Blocks {
		for i, in := range b.Instrs {
			for _, u := range in.Uses() {
				if u.Class != c || u.N == 0 {
					continue
				}
				seen[u.N].uses++
				if i > 0 {
					if d := b.Instrs[i-1].Def(); d.Valid() && d.Class == c && d.N == u.N {
						seen[u.N].adjacent = true
					}
				}
			}
			if d := in.Def(); d.Valid() && d.Class == c && d.N != 0 {
				seen[d.N].defs++
			}
		}
	}
	for v, r := range seen {
		if r.defs == 1 && r.uses == 1 && r.adjacent {
			cs.mustNot[v] = true
		}
	}

	for i := range cs.cost {
		if cs.mustNot[i] {
			cs.cost[i] = math.Inf(1)
		}
	}
}

// costRefs counts one live range's references for Chaitin's adjacency
// rule in computeCosts.
type costRefs struct {
	defs, uses int
	adjacent   bool
}

// findPartners records, for biased coloring, the ranges connected by the
// copies (splits and ordinary) that survive coalescing (§4.3: "before
// coloring, the allocator finds partners — values connected by splits").
func (a *allocator) findPartners(cs *classState) {
	n := a.rt.NumRegs(cs.c)
	cs.partners = make([][]int, n)
	add := func(x, y int) {
		for _, p := range cs.partners[x] {
			if p == y {
				return
			}
		}
		cs.partners[x] = append(cs.partners[x], y)
	}
	a.rt.ForEachInstr(func(_ *iloc.Block, _ int, in *iloc.Instr) {
		if !in.Op.IsCopy() || in.Dst.Class != cs.c || in.Src[0].IsFP() {
			return
		}
		d, s := cs.find(in.Dst.N), cs.find(in.Src[0].N)
		if d != s {
			add(d, s)
			add(s, d)
		}
	})
}
