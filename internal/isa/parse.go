package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes an assembly syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("isa: line %d: %s", e.Line, e.Msg) }

// Parse assembles kernel source text into a Program. The grammar is
// line-oriented:
//
//	.kernel <name>
//	.reg <n>
//	<label>:
//	[@p0|@!p0] <op>[.mod] <operands>
//
// Comments start with '#' or "//" and run to end of line. Operands are
// registers (r0..r62, rz), immediates, constant-bank slots c[i], special
// registers (%tid.x, ...), predicates (p0..p3), and memory references
// [rN+off].
func Parse(src string) (*Program, error) {
	// A first pass counts instructions and labels, so the instructions
	// land in one exact-length slab and the label map is sized once.
	nInstrs, nLabels := Count(src)
	p := &Program{Labels: make(map[string]int, nLabels)}
	slab := make([]Instr, 0, nInstrs)
	line := 0
	for rest := src; rest != ""; {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		line++
		text := strings.TrimSpace(stripComment(raw))
		if text == "" {
			continue
		}
		switch {
		case strings.HasPrefix(text, ".kernel"):
			// A clone: a substring would keep the whole source alive
			// for as long as anything holds the name, a cached result
			// among them.
			p.Name = strings.Clone(strings.TrimSpace(strings.TrimPrefix(text, ".kernel")))
			if p.Name == "" {
				return nil, &ParseError{line, ".kernel requires a name"}
			}
		case strings.HasPrefix(text, ".reg"):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(text, ".reg")))
			if err != nil || n < 0 || n > MaxRegsPerThread {
				return nil, &ParseError{line, fmt.Sprintf(".reg must be 0..%d", MaxRegsPerThread)}
			}
			p.RegCount = n
		case strings.HasSuffix(text, ":"):
			name := strings.TrimSuffix(text, ":")
			if !validLabel(name) {
				return nil, &ParseError{line, fmt.Sprintf("invalid label %q", name)}
			}
			if _, dup := p.Labels[name]; dup {
				return nil, &ParseError{line, fmt.Sprintf("duplicate label %q", name)}
			}
			p.Labels[name] = len(slab)
		default:
			slab = append(slab, Instr{PC: len(slab)})
			if err := parseInstr(&slab[len(slab)-1], text); err != nil {
				return nil, &ParseError{line, err.Error()}
			}
		}
	}
	p.Instrs = make([]*Instr, len(slab))
	for i := range slab {
		p.Instrs[i] = &slab[i]
	}
	if p.Name == "" {
		// Keep print/parse round-trips closed for sources without a
		// .kernel directive.
		p.Name = "kernel"
	}
	if p.RegCount == 0 {
		p.RegCount = p.MaxUsedReg() + 1
	}
	if err := p.Rebuild(); err != nil {
		return nil, err
	}
	return p, nil
}

// Count is Parse's first pass: how many instruction lines and label
// lines src holds, by Parse's own line grammar, without parsing any
// instruction. It allocates nothing, so a caller can bound a kernel's
// size before paying for Parse and the compiler.
func Count(src string) (instrs, labels int) {
	for rest := src; rest != ""; {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		switch text := strings.TrimSpace(stripComment(raw)); {
		case text == "", isDirective(text):
		case strings.HasSuffix(text, ":"):
			labels++
		default:
			instrs++
		}
	}
	return instrs, labels
}

// isDirective reports whether a trimmed source line is a .kernel or
// .reg directive rather than a label or an instruction.
func isDirective(text string) bool {
	return strings.HasPrefix(text, ".kernel") || strings.HasPrefix(text, ".reg")
}

// MustParse is Parse that panics on error; for tests and the built-in
// workload generators whose output is known-good.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func validLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// parseInstr decodes one instruction line into in, whose PC the caller
// has set.
func parseInstr(in *Instr, text string) error {
	in.Guard, in.SetPred, in.Target, in.Reconv = NoPred, -1, -1, -1

	// Optional predicate guard.
	if strings.HasPrefix(text, "@") {
		sp := strings.IndexAny(text, " \t")
		if sp < 0 {
			return fmt.Errorf("guard without instruction")
		}
		g, err := parseGuard(text[:sp])
		if err != nil {
			return err
		}
		in.Guard = g
		text = strings.TrimSpace(text[sp:])
	}

	op, rest := splitOp(text)
	mnemonic, mod := op, ""
	if !strings.HasPrefix(op, ".") { // .pir/.pbr keep their leading dot
		mnemonic, mod, _ = strings.Cut(op, ".")
	}
	var argBuf [PbrMaxRegs]string
	args := splitArgs(rest, argBuf[:0])

	switch mnemonic {
	case "nop":
		in.Op = OpNop
	case "exit":
		in.Op = OpExit
	case "bar":
		in.Op = OpBar
	case "bra":
		in.Op = OpBra
		if len(args) != 1 {
			return fmt.Errorf("bra takes one target")
		}
		if num, ok := strings.CutPrefix(args[0], "@"); ok {
			pc, err := strconv.Atoi(num)
			if err != nil {
				return fmt.Errorf("invalid branch target %q", args[0])
			}
			in.Target = pc
		} else if validLabel(args[0]) {
			in.TargetLabel = args[0]
		} else {
			return fmt.Errorf("invalid branch target %q", args[0])
		}
	case "mov", "movi", "s2r", "rcp":
		in.Op = opNamed(mnemonic)
		if err := parseDstSrcs(in, args, 1); err != nil {
			return err
		}
	case "iadd", "isub", "imul", "and", "or", "xor", "shl", "shr", "fadd", "fmul":
		in.Op = opNamed(mnemonic)
		if err := parseDstSrcs(in, args, 2); err != nil {
			return err
		}
	case "imad", "ffma":
		in.Op = opNamed(mnemonic)
		if err := parseDstSrcs(in, args, 3); err != nil {
			return err
		}
	case "sel":
		in.Op = OpSel
		if len(args) != 4 {
			return fmt.Errorf("sel takes rd, ra, rb, pN")
		}
		if err := parseDstSrcs(in, args[:3], 2); err != nil {
			return err
		}
		pr, neg, err := parsePredName(args[3])
		if err != nil {
			return err
		}
		in.Guard = Pred{Reg: pr, Neg: neg}
	case "isetp":
		in.Op = OpISetp
		c, err := parseCmp(mod)
		if err != nil {
			return err
		}
		in.Cmp = c
		if len(args) != 3 {
			return fmt.Errorf("isetp takes pd, ra, rb")
		}
		pr, neg, err := parsePredName(args[0])
		if err != nil || neg {
			return fmt.Errorf("isetp destination must be a plain predicate")
		}
		in.SetPred = pr
		for i, a := range args[1:] {
			o, err := parseOperand(a)
			if err != nil {
				return err
			}
			in.Srcs[i] = o
		}
		in.NSrc = 2
	case "ld":
		in.Op = OpLd
		sp, err := parseSpace(mod)
		if err != nil {
			return err
		}
		in.Space = sp
		if len(args) != 2 {
			return fmt.Errorf("ld takes rd, [addr]")
		}
		d, err := parseOperand(args[0])
		if err != nil || d.Kind != OpdReg {
			return fmt.Errorf("ld destination must be a register")
		}
		in.Dst = d
		base, off, err := parseMemRef(args[1])
		if err != nil {
			return err
		}
		in.Srcs[0] = base
		in.MemOff = off
		in.NSrc = 1
	case "st":
		in.Op = OpSt
		sp, err := parseSpace(mod)
		if err != nil {
			return err
		}
		in.Space = sp
		if len(args) != 2 {
			return fmt.Errorf("st takes [addr], rs")
		}
		base, off, err := parseMemRef(args[0])
		if err != nil {
			return err
		}
		v, err := parseOperand(args[1])
		if err != nil {
			return err
		}
		in.Srcs[0] = base
		in.Srcs[1] = v
		in.MemOff = off
		in.NSrc = 2
	case ".pir":
		in.Op = OpPir
		if len(args) != 1 {
			return fmt.Errorf(".pir takes one hex payload")
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(args[0], "0x"), 16, 64)
		if err != nil || v >= 1<<54 {
			return fmt.Errorf("invalid .pir payload %q", args[0])
		}
		in.PirFlags = v
	case ".pbr":
		in.Op = OpPbr
		if len(args) == 0 || len(args) > PbrMaxRegs {
			return fmt.Errorf(".pbr takes 1..%d registers", PbrMaxRegs)
		}
		for _, a := range args {
			o, err := parseOperand(a)
			if err != nil || o.Kind != OpdReg {
				return fmt.Errorf("invalid .pbr register %q", a)
			}
			in.PbrRegs = append(in.PbrRegs, o.Reg)
		}
	default:
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return nil
}

func splitOp(text string) (op, rest string) {
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		return text[:i], strings.TrimSpace(text[i:])
	}
	return text, ""
}

// opNamed returns the opcode whose mnemonic is name (the caller has
// matched name against a known mnemonic).
func opNamed(name string) Opcode {
	for op, n := range opNames {
		if n == name {
			return Opcode(op)
		}
	}
	return OpNop
}

// splitArgs appends the comma-separated, trimmed operands of rest to
// dst and returns it.
func splitArgs(rest string, dst []string) []string {
	if rest == "" {
		return dst
	}
	for {
		arg, tail, more := strings.Cut(rest, ",")
		dst = append(dst, strings.TrimSpace(arg))
		if !more {
			return dst
		}
		rest = tail
	}
}

func parseDstSrcs(in *Instr, args []string, nsrc int) error {
	if len(args) != nsrc+1 {
		return fmt.Errorf("%s takes %d operands", in.Op, nsrc+1)
	}
	d, err := parseOperand(args[0])
	if err != nil {
		return err
	}
	if d.Kind != OpdReg {
		return fmt.Errorf("destination must be a register, got %q", args[0])
	}
	in.Dst = d
	for i, a := range args[1:] {
		o, err := parseOperand(a)
		if err != nil {
			return err
		}
		in.Srcs[i] = o
	}
	in.NSrc = nsrc
	return nil
}

func parseGuard(s string) (Pred, error) {
	s = strings.TrimPrefix(s, "@")
	neg := strings.HasPrefix(s, "!")
	s = strings.TrimPrefix(s, "!")
	pr, n2, err := parsePredName(s)
	if err != nil || n2 {
		return NoPred, fmt.Errorf("invalid guard %q", s)
	}
	return Pred{Reg: pr, Neg: neg}, nil
}

func parsePredName(s string) (reg int8, neg bool, err error) {
	if strings.HasPrefix(s, "!") {
		neg = true
		s = s[1:]
	}
	if !strings.HasPrefix(s, "p") {
		return 0, false, fmt.Errorf("invalid predicate %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumPredRegs {
		return 0, false, fmt.Errorf("invalid predicate %q", s)
	}
	return int8(n), neg, nil
}

func parseCmp(mod string) (CmpOp, error) {
	for i, n := range cmpNames {
		if n == mod {
			return CmpOp(i), nil
		}
	}
	return 0, fmt.Errorf("unknown comparison %q", mod)
}

func parseSpace(mod string) (MemSpace, error) {
	for i, n := range spaceNames {
		if n == mod {
			return MemSpace(i), nil
		}
	}
	return 0, fmt.Errorf("unknown memory space %q", mod)
}

func parseMemRef(s string) (base Operand, off int32, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return Operand{}, 0, fmt.Errorf("memory reference must be [reg+off], got %q", s)
	}
	body := s[1 : len(s)-1]
	regPart, offPart := body, ""
	if i := strings.IndexAny(body, "+-"); i > 0 {
		regPart, offPart = body[:i], body[i:]
	}
	base, err = parseOperand(strings.TrimSpace(regPart))
	if err != nil || base.Kind != OpdReg {
		return Operand{}, 0, fmt.Errorf("memory base must be a register in %q", s)
	}
	if offPart != "" {
		n, err := strconv.ParseInt(strings.TrimPrefix(offPart, "+"), 10, 32)
		if err != nil {
			return Operand{}, 0, fmt.Errorf("invalid offset in %q", s)
		}
		off = int32(n)
	}
	return base, off, nil
}

func parseOperand(s string) (Operand, error) {
	switch {
	case s == "rz":
		return R(RZ), nil
	case strings.HasPrefix(s, "r"):
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n < MaxRegsPerThread {
			return R(RegID(n)), nil
		}
		return Operand{}, fmt.Errorf("invalid register %q", s)
	case strings.HasPrefix(s, "c["):
		if !strings.HasSuffix(s, "]") {
			return Operand{}, fmt.Errorf("invalid constant %q", s)
		}
		body := strings.TrimPrefix(s[:len(s)-1], "c[")
		n, err := strconv.ParseUint(strings.TrimPrefix(body, "0x"), pick(strings.HasPrefix(body, "0x"), 16, 10), 8)
		if err != nil {
			return Operand{}, fmt.Errorf("invalid constant %q", s)
		}
		return C(uint8(n)), nil
	case strings.HasPrefix(s, "%"):
		for i, n := range specNames {
			if n == s[1:] {
				return Spec(Special(i)), nil
			}
		}
		return Operand{}, fmt.Errorf("unknown special register %q", s)
	default:
		n, err := strconv.ParseInt(s, 0, 64)
		if err != nil || n < -(1<<31) || n > (1<<32)-1 {
			return Operand{}, fmt.Errorf("invalid operand %q", s)
		}
		return Imm(int32(n)), nil
	}
}

func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}
