package core

import (
	"repro/internal/remat"
)

// buildGraph constructs the interference graph for one class with
// Chaitin's backward walk: starting from each block's live-out set, a
// definition interferes with everything currently live — except that a
// copy does not interfere with its own source, which is what lets
// coalescing and biased coloring combine the two ends.
//
// The graph, the inCode/acrossCall vectors, the liveness solution and
// the walk's live set all live in the workspace, reset rather than
// reallocated: every rebuild — across the coalescing fixpoints, rounds
// and routines — reuses their storage.
func (a *allocator) buildGraph(cs *classState) {
	c := cs.c
	n := a.rt.NumRegs(c)
	sc := &a.ws.classes[c]
	sc.graph.Reset(n)
	cs.graph = &sc.graph
	sc.inCode = zeroed(sc.inCode, n)
	sc.acrossCall = zeroed(sc.acrossCall, n)
	cs.inCode, cs.acrossCall = sc.inCode, sc.acrossCall
	live := sc.live.Compute(a.rt, c)

	lv := &a.ws.live.Reset(1, n)[0]
	for _, b := range a.rt.Blocks {
		lv.CopyFrom(live.LiveOut[b.Index])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Op.IsCall() {
				// Everything live across the call must survive the
				// callee clobbering the caller-save colors.
				lv.ForEach(func(x int) { cs.acrossCall[x] = true })
			}
			d := in.Def()
			if d.Valid() && d.Class == c && d.N != 0 {
				cs.inCode[d.N] = true
				copySrc := -1
				if in.Op.IsCopy() && in.Src[0].Class == c && in.Src[0].N != 0 {
					copySrc = in.Src[0].N
					lv.Remove(copySrc)
				}
				lv.ForEach(func(x int) {
					if x != d.N {
						cs.graph.AddEdge(d.N, x)
					}
				})
				lv.Remove(d.N)
				if copySrc >= 0 {
					lv.Add(copySrc)
				}
			}
			for _, u := range in.Uses() {
				if u.Class == c && u.N != 0 {
					cs.inCode[u.N] = true
					lv.Add(u.N)
				}
			}
		}
	}
}

// coalescePass scans for removable copies of one kind. The pipeline's
// two coalescing passes drive it to a fixpoint — unrestricted over
// ordinary copies, then (in ModeRemat) conservative over split copies —
// rebuilding the interference graph between scans; see pipeline.go.
// Ordinary copies
// (splitRound false) coalesce whenever the ends do not interfere; split
// copies additionally require the merged node to have fewer than k
// neighbors of significant degree, so the combined range provably still
// simplifies. The graph is updated in place (Merge) so later decisions in
// the same pass see earlier ones.
func (a *allocator) coalescePass(cs *classState, splitRound bool) int {
	k := a.opts.Machine.K(cs.c)
	removed := 0
	for _, b := range a.rt.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !in.Op.IsCopy() || in.Dst.Class != cs.c || in.IsSplit != splitRound || in.Src[0].IsFP() {
				kept = append(kept, in)
				continue
			}
			d, s := cs.find(in.Dst.N), cs.find(in.Src[0].N)
			if d == s {
				removed++ // redundant copy: both ends already one range
				continue
			}
			if cs.graph.Interfere(d, s) {
				kept = append(kept, in)
				continue
			}
			if splitRound && cs.graph.CombinedSignificant(d, s, k) >= k {
				kept = append(kept, in)
				continue
			}
			root, _ := cs.sets.Union(d, s)
			other := d + s - root
			cs.graph.Merge(root, other)
			if root < len(cs.tags) && other < len(cs.tags) {
				cs.tags[root] = remat.Meet(cs.tags[root], cs.tags[other])
			}
			removed++
		}
		b.Instrs = kept
	}
	if removed > 0 {
		a.rewriteToRoots(cs)
	}
	return removed
}
