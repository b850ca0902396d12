package iloc_test

import (
	"fmt"
	"testing"

	"repro/internal/cfg"
	"repro/internal/iloc"
)

// shape records everything about a routine's blocks that cfg.Build
// could touch: the block list, each block's index, edges and
// instruction list, and the printed code.
func shape(rt *iloc.Routine) string {
	s := iloc.Print(rt)
	for i, b := range rt.Blocks {
		s += fmt.Sprintf("%d:%p index %d label %s instrs %p/%d succs %v preds %v\n",
			i, b, b.Index, b.Label, b.Instrs, len(b.Instrs), b.Succs, b.Preds)
	}
	return s
}

// TestViewBuildLeavesOriginal: running cfg.Build on a View — which here
// prunes an unreachable block and reindexes — gives the view its own
// edges and leaves the original's Blocks, Succs, Preds, Index and
// instructions exactly as they were.
func TestViewBuildLeavesOriginal(t *testing.T) {
	rt := iloc.MustParse(`routine v(r1)
a:
    br lt r1, b, c
dead:
    ldi r2, 3
    jmp c
b:
    ldi r2, 1
    jmp c
c:
    retr r1
`)
	// Edges the view must not take: stand-ins for an allocator's own.
	a, dead, b, c := rt.Blocks[0], rt.Blocks[1], rt.Blocks[2], rt.Blocks[3]
	a.Succs = []*iloc.Block{dead}
	dead.Preds, dead.Succs = []*iloc.Block{a}, []*iloc.Block{c}
	c.Preds = []*iloc.Block{dead, b}
	before := shape(rt)

	v := rt.View()
	if err := cfg.Build(v); err != nil {
		t.Fatal(err)
	}
	if got := shape(rt); got != before {
		t.Fatalf("cfg.Build on a view changed the original\n--- now ---\n%s--- before ---\n%s", got, before)
	}
	if len(v.Blocks) != 3 {
		t.Fatalf("view has %d blocks after pruning, want 3", len(v.Blocks))
	}
	for i, vb := range v.Blocks {
		if vb.Index != i {
			t.Errorf("view block %s has index %d at position %d", vb.Label, vb.Index, i)
		}
		for _, ob := range rt.Blocks {
			if vb == ob {
				t.Errorf("view shares block header %s with the original", vb.Label)
			}
		}
	}
	va, vb, vc := v.Blocks[0], v.Blocks[1], v.Blocks[2]
	if len(va.Succs) != 2 || va.Succs[0] != vb || va.Succs[1] != vc ||
		len(vc.Preds) != 2 || vc.Preds[0] != va || vc.Preds[1] != vb {
		t.Fatalf("view edges not derived from terminators: a→%v, c←%v", va.Succs, vc.Preds)
	}
	if va.Instrs[0] != a.Instrs[0] {
		t.Fatal("view does not share the original's instructions")
	}
	// An append through the view reallocates rather than writing into
	// the original's list.
	vb.Instrs = append(vb.Instrs, iloc.MakeLdi(iloc.IntReg(5), 5))
	if got := shape(rt); got != before {
		t.Fatal("appending to a view block changed the original")
	}
}
