// Package asm implements a small two-pass assembler for the simulated
// ISA. Guest programs — the microbenchmark loops, the libc variants, the
// coreutils, the JIT demo, the web servers — are written in this assembly
// dialect and assembled at run time.
//
// Syntax, one statement per line:
//
//	; comment                        # comment
//	label:                           define a label
//	.equ NAME 123                    define a numeric constant
//	.byte 1, 2, 0x0f                 raw bytes
//	.quad 0x1234, label              8-byte little-endian values
//	.ascii "text\n"                  raw string bytes
//	.space 64                        zero fill
//	.align 16                        zero-pad to alignment
//	mov64 rax, label                 an instruction
//
// The instructions, and each one's operands, are isa's opTable: a
// mnemonic is looked up there (isa.Lookup) and its operands are parsed by
// the syntax the table names: a register, an xmm register, a [reg±disp]
// memory operand, an immediate (or gs displacement), or a target.
// Immediate operands may be decimal, 0x-hex, a defined constant, a label,
// or label+offset / const+offset, and must fit their field. Branch and
// lea targets are labels (or absolute immediates), encoded relative to
// the instruction's end.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"lazypoline/internal/isa"
)

// Program is the result of assembling a source file.
type Program struct {
	// Code is the assembled machine code.
	Code []byte
	// Base is the load address the program was assembled for.
	Base uint64
	// Symbols maps every label to its absolute address.
	Symbols map[string]uint64
}

// Symbol returns the address of a label, or an error naming it.
func (p *Program) Symbol(name string) (uint64, error) {
	v, ok := p.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("asm: undefined symbol %q", name)
	}
	return v, nil
}

// MustSymbol is Symbol for symbols the caller knows exist; it panics on a
// missing symbol (programming error, not input error).
func MustSymbol(p *Program, name string) uint64 {
	v, err := p.Symbol(name)
	if err != nil {
		panic(err)
	}
	return v
}

// SyntaxError reports an assembly failure with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// Assemble assembles src for loading at base.
func Assemble(src string, base uint64) (*Program, error) {
	a := &assembler{
		base:   base,
		labels: make(map[string]uint64),
		consts: make(map[string]int64),
	}
	// Pass 1: sizes and label addresses.
	if err := a.run(src, 1); err != nil {
		return nil, err
	}
	// Pass 2: emit with all symbols known.
	a.buf = a.buf[:0]
	if err := a.run(src, 2); err != nil {
		return nil, err
	}
	syms := make(map[string]uint64, len(a.labels))
	for k, v := range a.labels {
		syms[k] = v
	}
	return &Program{Code: a.buf, Base: base, Symbols: syms}, nil
}

type assembler struct {
	base   uint64
	buf    []byte
	labels map[string]uint64
	consts map[string]int64
	pass   int
	line   int
}

func (a *assembler) errf(format string, args ...interface{}) error {
	return &SyntaxError{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

// pc is the absolute address of the next byte to emit.
func (a *assembler) pc() uint64 { return a.base + uint64(len(a.buf)) }

func (a *assembler) run(src string, pass int) error {
	a.pass = pass
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several, possibly followed by a statement).
		for {
			idx := strings.Index(line, ":")
			if idx < 0 || strings.ContainsAny(line[:idx], " \t\",[") {
				break
			}
			name := line[:idx]
			if !validName(name) {
				return a.errf("bad label %q", name)
			}
			if pass == 1 {
				if _, dup := a.labels[name]; dup {
					return a.errf("duplicate label %q", name)
				}
			}
			a.labels[name] = a.pc()
			line = strings.TrimSpace(line[idx+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}
		if err := a.statement(line); err != nil {
			return err
		}
		if len(a.buf) > MaxProgram {
			return a.errf("the program passes its %d-byte limit", MaxProgram)
		}
	}
	return nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case ';', '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// statement assembles one directive or instruction.
func (a *assembler) statement(line string) error {
	mnem, rest := splitMnem(line)
	ops := splitOperands(rest)
	switch mnem {
	case ".equ":
		if len(ops) == 1 {
			ops = strings.Fields(ops[0])
		}
		if len(ops) != 2 {
			return a.errf(".equ wants NAME VALUE")
		}
		v, err := a.imm(ops[1])
		if err != nil {
			return err
		}
		a.consts[ops[0]] = v
		return nil
	case ".byte":
		for _, op := range ops {
			v, err := a.imm(op)
			if err != nil {
				return err
			}
			a.buf = append(a.buf, byte(v))
		}
		return nil
	case ".quad":
		for _, op := range ops {
			v, err := a.imm(op)
			if err != nil {
				return err
			}
			for i := 0; i < 8; i++ {
				a.buf = append(a.buf, byte(uint64(v)>>(8*i)))
			}
		}
		return nil
	case ".ascii":
		s, err := strconv.Unquote(strings.TrimSpace(rest))
		if err != nil {
			return a.errf(".ascii wants a quoted string: %v", err)
		}
		a.buf = append(a.buf, s...)
		return nil
	case ".space":
		if len(ops) != 1 {
			return a.errf(".space wants a size")
		}
		n, err := a.imm(ops[0])
		if err != nil {
			return err
		}
		if n < 0 {
			return a.errf(".space size must be non-negative")
		}
		return a.zeros(uint64(n))
	case ".align":
		if len(ops) != 1 {
			return a.errf(".align wants an alignment")
		}
		n, err := a.imm(ops[0])
		if err != nil {
			return err
		}
		if n <= 0 || n&(n-1) != 0 {
			return a.errf(".align wants a power of two")
		}
		return a.zeros(-a.pc() & uint64(n-1))
	}
	return a.instruction(mnem, ops)
}

// MaxProgram bounds the bytes one source may assemble to, so a .space or
// .align line cannot ask the host for more. The largest guest program, the
// lighttpd-style web server, is 1087 bytes; the largest program a test
// assembles is 4118.
const MaxProgram = 1 << 20

// zeros appends n zero bytes. It checks the size before it allocates: a
// statement that would take the program past MaxProgram is refused.
func (a *assembler) zeros(n uint64) error {
	if n > MaxProgram-uint64(len(a.buf)) {
		return a.errf("%d bytes of fill take the program past its %d-byte limit", n, MaxProgram)
	}
	a.buf = append(a.buf, make([]byte, n)...)
	return nil
}

// instruction assembles one instruction: the first of the mnemonic's
// forms (isa.Lookup) whose operands parse.
func (a *assembler) instruction(mnem string, ops []string) error {
	forms := isa.Lookup(mnem)
	if forms == nil {
		return a.errf("unknown mnemonic %q", mnem)
	}
	var err error
	for _, in := range forms {
		if in, err = a.operands(mnem, in, ops); err == nil {
			a.buf = (&isa.Enc{Buf: a.buf}).Emit(in).Buf
			return nil
		}
	}
	return err
}

// operands parses ops by in's syntax into in's fields. A target is made
// relative to the instruction's end. Field ranges are checked in pass 2,
// when every label has its value.
func (a *assembler) operands(mnem string, in isa.Inst, ops []string) (isa.Inst, error) {
	syntax := in.Syntax()
	if len(ops) != len(syntax) {
		return in, a.errf("%s wants %d operands, got %d", mnem, len(syntax), len(ops))
	}
	for i, o := range syntax {
		var r isa.Reg
		var v int64
		var err error
		switch o {
		case isa.RegA, isa.RegB:
			r, err = a.reg(ops[i])
		case isa.XRegA, isa.XRegB:
			r, err = a.xreg(ops[i])
		case isa.MemA, isa.MemB:
			r, v, err = a.memOp(ops[i])
		default:
			v, err = a.imm(ops[i])
			if o == isa.Target {
				v -= int64(a.pc()) + int64(in.Len)
			}
		}
		if err != nil {
			return in, err
		}
		if err := in.Put(o, r, v); err != nil && a.pass == 2 {
			return in, a.errf("%s: %v", mnem, err)
		}
	}
	return in, nil
}

func splitMnem(line string) (string, string) {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' {
			return line[:i], line[i+1:]
		}
	}
	return line, ""
}

// splitOperands splits on commas outside quotes/brackets.
func splitOperands(s string) []string {
	var out []string
	depth, inStr, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" {
		out = append(out, last)
	}
	return out
}

// imm evaluates an immediate expression: number, constant, label, or
// name+number / name-number.
func (a *assembler) imm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf("empty immediate")
	}
	// name+off / name-off (split at the last +/- not at position 0).
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '+' || s[i] == '-' {
			if s[i-1] == 'x' || s[i-1] == 'X' || (s[i-1] >= '0' && s[i-1] <= '9' && !nameStart(s[0])) {
				continue
			}
			baseV, err := a.imm(s[:i])
			if err != nil {
				return 0, err
			}
			off, err := a.imm(s[i+1:])
			if err != nil {
				return 0, err
			}
			if s[i] == '-' {
				return baseV - off, nil
			}
			return baseV + off, nil
		}
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return int64(v), nil
	}
	if v, ok := a.consts[s]; ok {
		return v, nil
	}
	if v, ok := a.labels[s]; ok {
		return int64(v), nil
	}
	if a.pass == 1 && validName(s) {
		// Forward reference: size is unaffected, value resolved in pass 2.
		return 0, nil
	}
	return 0, a.errf("bad immediate %q", s)
}

func nameStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func (a *assembler) reg(s string) (isa.Reg, error) {
	r, ok := isa.RegByName(strings.TrimSpace(s))
	if !ok {
		return 0, a.errf("bad register %q", s)
	}
	return r, nil
}

func (a *assembler) xreg(s string) (isa.Reg, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "xmm") {
		return 0, a.errf("bad xmm register %q", s)
	}
	n, err := strconv.Atoi(s[3:])
	if err != nil || n < 0 || n >= isa.NumXRegs {
		return 0, a.errf("bad xmm register %q", s)
	}
	return isa.Reg(n), nil
}

// memOp parses "[reg+disp]" or "[reg]" or "[reg-disp]".
func (a *assembler) memOp(s string) (isa.Reg, int64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, a.errf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			r, err := a.reg(inner[:i])
			if err != nil {
				return 0, 0, err
			}
			d, err := a.imm(inner[i+1:])
			if err != nil {
				return 0, 0, err
			}
			if inner[i] == '-' {
				d = -d
			}
			return r, d, nil
		}
	}
	r, err := a.reg(inner)
	return r, 0, err
}
