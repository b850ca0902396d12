package iloc

import (
	"strings"
	"testing"
)

// diamondSrc is a four-block diamond: every block has instructions, so
// each block's instruction list sits next to another in a clone's arena.
const diamondSrc = `routine diamond(r1)
a:
    ldi r2, 1
    br lt r1, b, c
b:
    addi r3, r2, 1
    jmp d
c:
    addi r3, r2, 2
    jmp d
d:
    add r4, r3, r2
    retr r4
`

// linkDiamond fills in the diamond's CFG edges by hand (cfg.Build lives
// above this package).
func linkDiamond(rt *Routine) {
	a, b, c, d := rt.Blocks[0], rt.Blocks[1], rt.Blocks[2], rt.Blocks[3]
	a.Succs = []*Block{b, c}
	b.Preds, b.Succs = []*Block{a}, []*Block{d}
	c.Preds, c.Succs = []*Block{a}, []*Block{d}
	d.Preds = []*Block{b, c}
}

func blockText(b *Block) string {
	var s []string
	for _, in := range b.Instrs {
		s = append(s, in.String())
	}
	return strings.Join(s, "; ")
}

// TestArenaBlockEditsStayInBlock: inserting into or appending to one
// block of a clone, or of a freshly parsed routine, never overwrites
// the instructions of the block after it — every block's list is
// capacity-capped inside the shared pointer array.
func TestArenaBlockEditsStayInBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   *Routine
	}{
		{"clone", MustParse(diamondSrc).Clone()},
		{"parse", MustParse(diamondSrc)},
	} {
		rt := tc.rt
		var before []string
		for _, b := range rt.Blocks {
			before = append(before, blockText(b))
		}
		extra := MakeLdi(IntReg(9), 7)
		rt.Blocks[1].InsertBefore(0, extra)
		rt.Blocks[2].Instrs = append(rt.Blocks[2].Instrs, MakeLdi(IntReg(8), 8))
		rt.Blocks[0].AppendBeforeTerminator(MakeLdi(IntReg(7), 9))
		if got := blockText(rt.Blocks[3]); got != before[3] {
			t.Errorf("%s: block d changed to %q, want %q", tc.name, got, before[3])
		}
		if got, want := blockText(rt.Blocks[2]), before[2]+"; ldi r8, 8"; got != want {
			t.Errorf("%s: block c is %q, want %q", tc.name, got, want)
		}
		if got, want := blockText(rt.Blocks[1]), "ldi r9, 7; "+before[1]; got != want {
			t.Errorf("%s: block b is %q, want %q", tc.name, got, want)
		}
		if got, want := blockText(rt.Blocks[0]), "ldi r2, 1; ldi r7, 9; br lt r1, b, c"; got != want {
			t.Errorf("%s: block a is %q, want %q", tc.name, got, want)
		}
	}
}

// TestCloneEditsLeaveOriginal: a clone's instructions, φ argument lists
// and data are its own.
func TestCloneEditsLeaveOriginal(t *testing.T) {
	rt := MustParse(diamondSrc)
	phi := &Instr{Op: OpPhi, Dst: IntReg(5), Phi: &Phi{Args: []Reg{IntReg(3), IntReg(2)}}}
	rt.Blocks[3].InsertBefore(0, phi)
	want := Print(rt)

	c := rt.Clone()
	c.Blocks[0].Instrs[0].Imm = 99
	c.Blocks[1].Instrs[0].Src[0] = IntReg(4)
	c.Blocks[3].Instrs[0].Phi.Args[1] = IntReg(6)
	c.Blocks[3].Instrs[0].Phi.Args = append(c.Blocks[3].Instrs[0].Phi.Args, IntReg(1))
	c.Blocks[2].Instrs[0] = MakeLdi(IntReg(3), 5)
	if got := Print(rt); got != want {
		t.Fatalf("editing the clone changed the original:\n%s\nwant\n%s", got, want)
	}
	if rt.Blocks[3].Instrs[0] != phi || len(phi.Phi.Args) != 2 || phi.Phi.Args[1] != IntReg(2) {
		t.Fatalf("original φ changed: %v", phi)
	}
}

// TestCloneRemapsEdgesWithStaleIndex: edges are remapped by block
// identity even when Index no longer matches each block's position.
func TestCloneRemapsEdgesWithStaleIndex(t *testing.T) {
	for _, stale := range []bool{false, true} {
		rt := MustParse(diamondSrc)
		linkDiamond(rt)
		if stale {
			// Swap b and c without Reindex: b.Index is 1 at position 2.
			rt.Blocks[1], rt.Blocks[2] = rt.Blocks[2], rt.Blocks[1]
		}
		c := rt.Clone()
		pos := map[*Block]int{}
		for i, b := range c.Blocks {
			pos[b] = i
		}
		for i, ob := range rt.Blocks {
			nb := c.Blocks[i]
			if nb == ob || nb.Label != ob.Label || nb.Index != ob.Index {
				t.Fatalf("stale=%v: clone block %d is %s/%d, want a copy of %s/%d", stale, i, nb.Label, nb.Index, ob.Label, ob.Index)
			}
			for _, e := range []struct {
				name     string
				old, new []*Block
			}{{"succs", ob.Succs, nb.Succs}, {"preds", ob.Preds, nb.Preds}} {
				if len(e.new) != len(e.old) {
					t.Fatalf("stale=%v: %s %s: %d edges, want %d", stale, ob.Label, e.name, len(e.new), len(e.old))
				}
				for k, o := range e.old {
					p, ok := pos[e.new[k]]
					if !ok || c.Blocks[p].Label != o.Label {
						t.Fatalf("stale=%v: %s %s[%d] does not point at the clone of %s", stale, ob.Label, e.name, k, o.Label)
					}
				}
			}
		}
	}
}
