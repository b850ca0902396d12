package iloc

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual form of one routine. The grammar, by line:
//
//	routine NAME(r1, r2, f1)        ; header, params by register
//	data NAME ro 4 = 1.0 2.0        ; static data: ro|rw, size in words,
//	data NAME rw 16                 ;   optional float/int initializers
//	label:                          ; starts a new basic block
//	op operands                     ; instruction, operands comma-separated
//	; comment  or  # comment
//
// Instructions follow Instr.String's syntax exactly, so Print output
// round-trips. Control falls through from a block without a terminator to
// the next block in the file.
// A ParseError locates a syntax error in the source handed to Parse or
// ParseProgram. Line is 1-based; 0 means the error concerns the source
// as a whole (no routine header, no code) rather than one line.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string {
	if e.Line == 0 {
		return e.Err.Error()
	}
	return fmt.Sprintf("line %d: %v", e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

func Parse(src string) (*Routine, error) {
	return parseLines(strings.Split(src, "\n"))
}

// parseLines parses one routine from its source lines; error line
// numbers count from the first of them.
func parseLines(lines []string) (*Routine, error) {
	p := newParser(lines)
	for ln, raw := range lines {
		if err := p.line(raw); err != nil {
			return nil, &ParseError{Line: ln + 1, Err: err}
		}
	}
	if p.rt == nil {
		return nil, &ParseError{Err: fmt.Errorf("no routine header")}
	}
	if len(p.rt.Blocks) == 0 {
		return nil, &ParseError{Err: fmt.Errorf("routine %s has no code", p.rt.Name)}
	}
	for _, b := range p.rt.Blocks {
		if n := len(b.Instrs); n > 0 {
			b.Instrs = b.Instrs[:n:n]
		} else {
			b.Instrs = nil
		}
	}
	p.rt.Reindex()
	return p.rt, nil
}

// MustParse is Parse that panics on error. It exists for compile-time
// constant sources — test fixtures and the embedded figure listings —
// where a parse failure is a bug in this repository, not in input.
// Anything parsing caller-supplied or generated text must use Parse and
// handle the *ParseError it returns.
func MustParse(src string) *Routine {
	rt, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("iloc.MustParse on embedded source: %v", err))
	}
	return rt
}

// ParseProgram reads a file holding several routines (each introduced by
// its own "routine" header). The first routine is conventionally the
// entry point; the rest are callees.
func ParseProgram(src string) ([]*Routine, error) {
	lines := strings.Split(src, "\n")
	// starts[i] is the first line of routine i: its header, or the line
	// after the previous routine's last line, so leading comments stay
	// attached to the routine that follows.
	var starts []int
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(stripComment(line)), "routine ") {
			if len(starts) == 0 {
				starts = append(starts, 0)
			} else {
				starts = append(starts, i)
			}
		}
	}
	if len(starts) == 0 {
		return nil, &ParseError{Err: fmt.Errorf("no routine header")}
	}
	out := make([]*Routine, 0, len(starts))
	seen := make(map[string]bool, len(starts))
	for i, start := range starts {
		end := len(lines)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		rt, err := parseLines(lines[start:end])
		if err != nil {
			return nil, err
		}
		if seen[rt.Name] {
			return nil, &ParseError{Err: fmt.Errorf("duplicate routine %q", rt.Name)}
		}
		seen[rt.Name] = true
		out = append(out, rt)
	}
	return out, nil
}

type parser struct {
	rt  *Routine
	cur *Block

	// The routine's storage, sized by newParser from a count of its
	// lines: every instruction comes from instrs, every block's
	// instruction list is a run of ptrs (blocks fill in order, so a
	// block appends into the slots after its last instruction), and
	// every block from blocks. parseLines caps each list at the end.
	instrs []Instr
	ptrs   []*Instr
	blocks []Block
	// toks is parseInstr's operand buffer, reused across lines.
	toks []string
}

// lineKind classifies a source line with its comment stripped and
// space trimmed, the way parser.line dispatches it.
type lineKind uint8

const (
	lineBlank lineKind = iota
	lineHeader
	lineData
	lineLabel
	lineInstr
)

func kindOf(s string) lineKind {
	switch {
	case s == "":
		return lineBlank
	case strings.HasPrefix(s, "routine "):
		return lineHeader
	case strings.HasPrefix(s, "data "):
		return lineData
	case strings.HasSuffix(s, ":"):
		return lineLabel
	}
	return lineInstr
}

// newParser sizes the parser's arenas from lines: one instruction per
// instruction line, one block per label plus the implicit entry block
// when code precedes the first label.
func newParser(lines []string) *parser {
	ninstr, nblock, labelled := 0, 0, false
	for _, raw := range lines {
		switch kindOf(strings.TrimSpace(stripComment(raw))) {
		case lineLabel:
			nblock++
			labelled = true
		case lineInstr:
			if !labelled && ninstr == 0 {
				nblock++
			}
			ninstr++
		}
	}
	return &parser{instrs: make([]Instr, ninstr), ptrs: make([]*Instr, ninstr), blocks: make([]Block, nblock)}
}

// newInstr returns the next instruction from the arena.
func (p *parser) newInstr() *Instr {
	if len(p.instrs) == 0 {
		p.instrs = make([]Instr, 1)
	}
	in := &p.instrs[0]
	p.instrs = p.instrs[1:]
	return in
}

// newBlock returns the next block from the arena, its instruction list
// starting at the next free pointer slot.
func (p *parser) newBlock(label string) *Block {
	if len(p.blocks) == 0 {
		p.blocks = make([]Block, 1)
	}
	b := &p.blocks[0]
	p.blocks = p.blocks[1:]
	*b = Block{Label: label, Instrs: p.ptrs[:0]}
	if p.rt.Blocks == nil {
		p.rt.Blocks = make([]*Block, 0, len(p.blocks)+1)
	}
	p.rt.Blocks = append(p.rt.Blocks, b)
	return b
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		return s[:i]
	}
	return s
}

func (p *parser) line(raw string) error {
	s := strings.TrimSpace(stripComment(raw))
	switch kindOf(s) {
	case lineBlank:
		return nil
	case lineHeader:
		return p.header(strings.TrimPrefix(s, "routine "))
	case lineData:
		return p.data(strings.TrimPrefix(s, "data "))
	case lineLabel:
		return p.label(strings.TrimSuffix(s, ":"))
	default:
		if err := p.instr(s); err != nil {
			return err
		}
		p.annotate(raw)
		return nil
	}
}

// annotate restores the structured annotations Print attaches as
// comments ("; split", "; spill") onto the instruction just parsed, so
// Print(Parse(Print(rt))) round-trips byte for byte — the persistent
// result store depends on that. Only a comment segment that is exactly
// one marker word counts; free-form comments stay comments.
func (p *parser) annotate(raw string) {
	i := strings.IndexAny(raw, ";#")
	if i < 0 {
		return
	}
	in := p.cur.Instrs[len(p.cur.Instrs)-1]
	for _, seg := range strings.FieldsFunc(raw[i:], func(r rune) bool { return r == ';' || r == '#' }) {
		switch strings.TrimSpace(seg) {
		case "split":
			in.IsSplit = true
		case "spill":
			in.IsSpill = true
		}
	}
}

func (p *parser) header(s string) error {
	if p.rt != nil {
		return fmt.Errorf("duplicate routine header")
	}
	open := strings.IndexByte(s, '(')
	closeP := strings.LastIndexByte(s, ')')
	if open < 0 || closeP < open {
		return fmt.Errorf("malformed routine header %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return fmt.Errorf("routine needs a name")
	}
	p.rt = &Routine{Name: name}
	args := strings.TrimSpace(s[open+1 : closeP])
	if args == "" {
		return nil
	}
	for _, a := range strings.Split(args, ",") {
		r, err := parseReg(strings.TrimSpace(a))
		if err != nil {
			return fmt.Errorf("parameter: %w", err)
		}
		if r.IsFP() {
			return fmt.Errorf("fp cannot be a parameter")
		}
		p.rt.Params = append(p.rt.Params, Param{Reg: r})
		p.noteReg(r)
	}
	return nil
}

func (p *parser) data(s string) error {
	if p.rt == nil {
		return fmt.Errorf("data before routine header")
	}
	var init string
	if i := strings.IndexByte(s, '='); i >= 0 {
		init = strings.TrimSpace(s[i+1:])
		s = s[:i]
	}
	fields := strings.Fields(s)
	if len(fields) != 3 {
		return fmt.Errorf("data wants: data NAME ro|rw WORDS [= v...]")
	}
	d := Data{Label: fields[0]}
	switch fields[1] {
	case "ro":
		d.ReadOnly = true
	case "rw":
	default:
		return fmt.Errorf("data mode %q (want ro or rw)", fields[1])
	}
	words, err := strconv.Atoi(fields[2])
	if err != nil || words <= 0 {
		return fmt.Errorf("bad data size %q", fields[2])
	}
	d.Words = words
	if init != "" {
		for _, tok := range strings.Fields(init) {
			v, err := strconv.ParseFloat(tok, 64)
			if err != nil {
				return fmt.Errorf("bad initializer %q", tok)
			}
			if strings.ContainsAny(tok, ".eE") {
				d.IsFloat = true
			}
			d.Init = append(d.Init, v)
		}
		if len(d.Init) > d.Words {
			return fmt.Errorf("data %s: %d initializers for %d words", d.Label, len(d.Init), d.Words)
		}
	}
	if p.rt.DataByLabel(d.Label) != nil {
		return fmt.Errorf("duplicate data label %q", d.Label)
	}
	p.rt.Data = append(p.rt.Data, d)
	return nil
}

func (p *parser) label(name string) error {
	if p.rt == nil {
		return fmt.Errorf("label before routine header")
	}
	name = strings.TrimSpace(name)
	if name == "" {
		return fmt.Errorf("empty label")
	}
	if p.rt.BlockByLabel(name) != nil {
		return fmt.Errorf("duplicate label %q", name)
	}
	p.cur = p.newBlock(name)
	return nil
}

func (p *parser) instr(s string) error {
	if p.rt == nil {
		return fmt.Errorf("instruction before routine header")
	}
	if p.cur == nil {
		// Implicit entry block.
		p.cur = p.newBlock("entry")
	}
	if t := p.cur.Terminator(); t != nil {
		return fmt.Errorf("instruction after terminator %q", t)
	}
	in, err := p.parseInstr(s)
	if err != nil {
		return err
	}
	p.cur.Instrs = append(p.cur.Instrs, in)
	if len(p.ptrs) > 0 {
		p.ptrs = p.ptrs[1:]
	}
	return nil
}

func (p *parser) parseInstr(s string) (*Instr, error) {
	// Mnemonic is the first space-delimited token.
	mn := s
	rest := ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	op, ok := OpFromString(mn)
	if !ok {
		return nil, fmt.Errorf("unknown op %q", mn)
	}
	in := p.newInstr()
	*in = Instr{Op: op, Dst: NoReg, Src: [2]Reg{NoReg, NoReg}}

	if op == OpBr {
		// br cond rS, Ltrue, Lfalse
		i := strings.IndexAny(rest, " \t")
		if i < 0 {
			return nil, fmt.Errorf("br wants a condition")
		}
		cond, ok := CondFromString(rest[:i])
		if !ok {
			return nil, fmt.Errorf("unknown condition %q", rest[:i])
		}
		in.Cond = cond
		rest = strings.TrimSpace(rest[i+1:])
	}

	toks := p.toks[:0]
	for rest != "" {
		i := strings.IndexByte(rest, ',')
		if i < 0 {
			toks = append(toks, strings.TrimSpace(rest))
			break
		}
		toks = append(toks, strings.TrimSpace(rest[:i]))
		if rest = rest[i+1:]; rest == "" {
			toks = append(toks, "") // a trailing comma leaves an empty operand
		}
	}
	p.toks = toks
	take := func() (string, error) {
		if len(toks) == 0 {
			return "", fmt.Errorf("%s: missing operand", op)
		}
		t := toks[0]
		toks = toks[1:]
		return t, nil
	}
	takeReg := func(want Class) (Reg, error) {
		t, err := take()
		if err != nil {
			return NoReg, err
		}
		r, err := parseReg(t)
		if err != nil {
			return NoReg, err
		}
		if r.Class != want {
			return NoReg, fmt.Errorf("%s: operand %s has class %s, want %s", op, t, r.Class, want)
		}
		p.noteReg(r)
		return r, nil
	}

	var err error
	switch op {
	case OpPhi:
		return nil, fmt.Errorf("phi is not accepted in source text")
	case OpJmp:
		in.Label, err = take()
		return in, err
	case OpBr:
		if in.Src[0], err = takeReg(ClassInt); err != nil {
			return nil, err
		}
		if in.Label, err = take(); err != nil {
			return nil, err
		}
		if in.Label2, err = take(); err != nil {
			return nil, err
		}
		if len(toks) != 0 {
			return nil, fmt.Errorf("br: trailing operands")
		}
		return in, nil
	}

	if op.HasDst() {
		if in.Dst, err = takeReg(op.DstClass()); err != nil {
			return nil, err
		}
		if in.Dst.IsFP() {
			return nil, fmt.Errorf("%s: fp is not writable", op)
		}
	}
	for i := 0; i < op.NSrc(); i++ {
		if in.Src[i], err = takeReg(op.SrcClass(i)); err != nil {
			return nil, err
		}
	}
	if op.HasLabel() {
		if in.Label, err = take(); err != nil {
			return nil, err
		}
	}
	if op.HasImm() {
		t, err := take()
		if err != nil {
			return nil, err
		}
		in.Imm, err = strconv.ParseInt(t, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad immediate %q", op, t)
		}
	}
	if op.HasFImm() {
		t, err := take()
		if err != nil {
			return nil, err
		}
		in.FImm, err = strconv.ParseFloat(t, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad float immediate %q", op, t)
		}
	}
	if len(toks) != 0 {
		return nil, fmt.Errorf("%s: trailing operands %v", op, toks)
	}
	return in, nil
}

func (p *parser) noteReg(r Reg) {
	if r.N >= p.rt.NextReg[r.Class] {
		p.rt.NextReg[r.Class] = r.N + 1
	}
}

func parseReg(s string) (Reg, error) {
	if s == "fp" {
		return FP, nil
	}
	if len(s) < 2 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	var c Class
	switch s[0] {
	case 'r':
		c = ClassInt
	case 'f':
		c = ClassFlt
	default:
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return NoReg, fmt.Errorf("bad register %q", s)
	}
	if n == 0 {
		return NoReg, fmt.Errorf("register %s0 is reserved", string(s[0]))
	}
	return Reg{Class: c, N: n}, nil
}
