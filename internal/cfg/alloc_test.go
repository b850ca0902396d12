package cfg

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/raceflag"
)

// loopChainSrc is an n-block routine: a chain of blocks inside one loop
// (one back edge), so dominators, order and loops are all non-trivial.
func loopChainSrc(n int) string {
	var b strings.Builder
	b.WriteString("routine chain(r1)\nb0:\n    getparam r1, 0\n    ldi r2, 0\n    jmp b1\n")
	for i := 1; i < n-2; i++ {
		fmt.Fprintf(&b, "b%d:\n    addi r2, r2, %d\n    jmp b%d\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n    sub r3, r2, r1\n    br lt r3, b1, b%d\n", n-2, n-1)
	fmt.Fprintf(&b, "b%d:\n    retr r2\n", n-1)
	return b.String()
}

// TestReusedAnalysisAllocs: reverse postorder, the dominator tree and
// the loop tables keep their storage, so a second computation on the
// same routine allocates nothing — on 4 blocks as on 64 — and a CFG
// rebuild allocates the same fixed count on both.
func TestReusedAnalysisAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	counts := func(n int) map[string]float64 {
		rt := build(t, loopChainSrc(n))
		if len(rt.Blocks) != n {
			t.Fatalf("routine has %d blocks, want %d", len(rt.Blocks), n)
		}
		var (
			rpo   []*iloc.Block
			seen  []bool
			tree  dom.Tree
			loops LoopFinder
		)
		rpo, seen = ReversePostorderInto(rpo, seen, rt)
		dom.ComputeInto(&tree, rt)
		if got := len(loops.Find(rt, &tree)); got != 1 {
			t.Fatalf("%d blocks: %d loops, want 1", n, got)
		}
		return map[string]float64{
			"ReversePostorderInto": testing.AllocsPerRun(100, func() { rpo, seen = ReversePostorderInto(rpo, seen, rt) }),
			"dom.ComputeInto":      testing.AllocsPerRun(100, func() { dom.ComputeInto(&tree, rt) }),
			"LoopFinder.Find":      testing.AllocsPerRun(100, func() { loops.Find(rt, &tree) }),
			"AnalyzeInto":          testing.AllocsPerRun(100, func() { AnalyzeInto(&tree, &loops, rt) }),
			"Build": testing.AllocsPerRun(100, func() {
				if err := Build(rt); err != nil {
					t.Fatal(err)
				}
			}),
		}
	}
	small, large := counts(4), counts(64)
	for name, s := range small {
		if l := large[name]; s != l {
			t.Errorf("a second %s allocates %.0f times on 4 blocks but %.0f on 64", name, s, l)
		}
		if name != "Build" && s != 0 {
			t.Errorf("a second %s allocates %.0f times, want 0", name, s)
		}
	}
}

// TestReusedAnalysisMatchesFresh: storage dirtied by larger routines
// gives exactly the fresh order, tree and loops on smaller ones.
func TestReusedAnalysisMatchesFresh(t *testing.T) {
	var (
		rpo   []*iloc.Block
		seen  []bool
		tree  dom.Tree
		loops LoopFinder
	)
	for _, src := range []string{loopChainSrc(64), nestedLoopSrc, loopChainSrc(4), diamondSrc, loopChainSrc(17), nestedLoopSrc} {
		rt := build(t, src)
		rpo, seen = ReversePostorderInto(rpo, seen, rt)
		if want := ReversePostorder(rt); !reflect.DeepEqual(rpo, want) {
			t.Fatalf("%s: reused order %v, fresh %v", rt.Name, rpo, want)
		}
		gotT, gotL := AnalyzeInto(&tree, &loops, rt)
		gotDepth := depths(rt)
		wantT, wantL, err := Analyze(rt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotT.Idom, wantT.Idom) || !reflect.DeepEqual(gotT.Order, wantT.Order) ||
			!reflect.DeepEqual(children(gotT), children(wantT)) {
			t.Fatalf("%s: reused tree differs: idom %v/%v order %v/%v children %v/%v", rt.Name,
				gotT.Idom, wantT.Idom, gotT.Order, wantT.Order, children(gotT), children(wantT))
		}
		if got, want := loopText(gotL), loopText(wantL); got != want {
			t.Fatalf("%s: reused loops\n%s\nfresh\n%s", rt.Name, got, want)
		}
		if want := depths(rt); !reflect.DeepEqual(gotDepth, want) {
			t.Fatalf("%s: reused depths %v, fresh %v", rt.Name, gotDepth, want)
		}
	}
}

func depths(rt *iloc.Routine) []int {
	var d []int
	for _, b := range rt.Blocks {
		d = append(d, b.Depth)
	}
	return d
}

// children lists the dominator tree's children with leaves as empty
// lists, whether their storage is nil or reused.
func children(t *dom.Tree) [][]int {
	out := make([][]int, len(t.Children))
	for i, c := range t.Children {
		out[i] = append([]int{}, c...)
	}
	return out
}

func loopText(loops []*Loop) string {
	var b strings.Builder
	for _, l := range loops {
		parent := "-"
		if l.Parent != nil {
			parent = l.Parent.Header.Label
		}
		fmt.Fprintf(&b, "%s depth %d parent %s:", l.Header.Label, l.Depth, parent)
		for _, x := range l.Blocks {
			b.WriteString(" " + x.Label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
