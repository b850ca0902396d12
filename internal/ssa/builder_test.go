package ssa_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/iloc"
	"repro/internal/liveness"
	"repro/internal/raceflag"
	"repro/internal/rgen"
	"repro/internal/ssa"
)

// ssaInput is a routine ready for SSA construction: CFG built, critical
// edges split, dominators and liveness solved.
type ssaInput struct {
	rt   *iloc.Routine
	tree *dom.Tree
	live [iloc.NumClasses]*liveness.Info
}

func prepare(t testing.TB, rt *iloc.Routine) ssaInput {
	t.Helper()
	if err := cfg.Build(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.SplitCriticalEdges(rt); err != nil {
		t.Fatal(err)
	}
	in := ssaInput{rt: rt, tree: dom.Compute(rt)}
	for c := iloc.Class(0); c < iloc.NumClasses; c++ {
		in.live[c] = liveness.Compute(rt, c)
	}
	return in
}

// describe renders the SSA form and its value graph as text, so graphs
// built on different copies of one routine compare by value.
func describe(rt *iloc.Routine, g *ssa.Graph) string {
	var b strings.Builder
	b.WriteString(iloc.Print(rt))
	fmt.Fprintf(&b, "class %v, %d values\n", g.Class, g.NumValues)
	for v := 1; v < g.NumValues; v++ {
		fmt.Fprintf(&b, "v%d orig %d def %q in %s uses", v, g.OrigOf[v], g.DefOf[v], g.DefBlockOf[v].Label)
		for _, u := range g.UsesOf[v] {
			fmt.Fprintf(&b, " %q", u)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBuilderReuseMatchesFresh: one Builder reused across random
// routines of different shapes, both classes, and a failing build
// returns exactly what a fresh Build returns each time.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	var bd ssa.Builder
	for seed := int64(0); seed < 12; seed++ {
		regions := 1 + int(seed%4)*2
		src := rgen.Generate(rand.New(rand.NewSource(seed)), rgen.Config{Regions: regions})
		for _, c := range []iloc.Class{iloc.ClassInt, iloc.ClassFlt} {
			fresh, reused := prepare(t, src.Clone()), prepare(t, src.Clone())
			want, err := ssa.Build(fresh.rt, c, fresh.tree, fresh.live[c])
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got, err := bd.Build(reused.rt, c, reused.tree, reused.live[c])
			if err != nil {
				t.Fatalf("seed %d, reused builder: %v", seed, err)
			}
			if d, w := describe(reused.rt, got), describe(fresh.rt, want); d != w {
				t.Fatalf("seed %d class %v: reused builder differs\n--- reused ---\n%s\n--- fresh ---\n%s", seed, c, d, w)
			}
		}
		// A failed build in between must leave nothing behind.
		bad := prepare(t, iloc.MustParse("routine f()\nentry:\n    retr r1\n"))
		if _, err := bd.Build(bad.rt, iloc.ClassInt, bad.tree, bad.live[iloc.ClassInt]); err == nil {
			t.Fatal("use of undefined register not reported by a reused builder")
		}
	}
}

// chainSrc is an n-block routine: a chain of blocks inside one loop,
// so every block but the entry has a dominance frontier.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("routine chain(r1)\nb0:\n    getparam r1, 0\n    ldi r2, 0\n    jmp b1\n")
	for i := 1; i < n-2; i++ {
		fmt.Fprintf(&b, "b%d:\n    addi r2, r2, %d\n    jmp b%d\n", i, i, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n    sub r3, r2, r1\n    br lt r3, b1, b%d\n", n-2, n-1)
	fmt.Fprintf(&b, "b%d:\n    retr r2\n", n-1)
	return b.String()
}

// TestBuilderReuseAllocs: a builder that has built a routine keeps every
// table, so building a same-size routine again allocates only the
// φ-nodes it inserts into the code — the same small count on 4 blocks as
// on 64. Build converts in place, so each run gets its own prepared copy.
func TestBuilderReuseAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const runs = 50
	allocs := func(n int) float64 {
		src := iloc.MustParse(chainSrc(n))
		inputs := make([]ssaInput, runs+2)
		for i := range inputs {
			inputs[i] = prepare(t, src.Clone())
		}
		if got := len(inputs[0].rt.Blocks); got < n {
			t.Fatalf("routine has %d blocks, want at least %d", got, n)
		}
		var bd ssa.Builder
		next := 0
		build := func() {
			in := inputs[next]
			next++
			if _, err := bd.Build(in.rt, iloc.ClassInt, in.tree, in.live[iloc.ClassInt]); err != nil {
				t.Fatal(err)
			}
		}
		build()
		return testing.AllocsPerRun(runs, build)
	}
	small, large := allocs(4), allocs(64)
	t.Logf("a second Builder.Build allocates %.0f times on 4 blocks, %.0f on 64", small, large)
	if small != large {
		t.Errorf("a second Builder.Build allocates %.0f times on 4 blocks but %.0f on 64", small, large)
	}
	if small > 6 {
		t.Errorf("a second Builder.Build allocates %.0f times, want at most 6", small)
	}
}
