// Package isa defines the instruction set architecture of the simulated
// machine used throughout lazypoline-go.
//
// The ISA is a compact, byte-encoded, variable-length instruction set that
// deliberately preserves the x86-64 properties the lazypoline paper depends
// on:
//
//   - SYSCALL is the two-byte sequence 0F 05 and SYSENTER is 0F 34, exactly
//     as on x86-64.
//   - CALL RAX is the two-byte sequence FF D0, exactly as on x86-64, so a
//     syscall instruction can be rewritten in place without moving any
//     surrounding code.
//   - NOP is the single byte 90, so a nop sled can be built byte-by-byte.
//   - Instructions have variable length and immediates may contain arbitrary
//     bytes — including 0F 05 — which reproduces the classic static
//     disassembly hazard (a "syscall" appearing inside another instruction's
//     immediate or inside data).
//
// Everything else about the encoding is our own, kept simple enough to
// decode in a few lines while being rich enough to write real guest
// programs (loops, calls, memory, atomics, SSE-like vector registers, x87-
// like stack registers, and %gs-relative addressing for per-task state).
package isa

import "fmt"

// Reg identifies a general purpose register. The numbering follows the
// x86-64 convention so that the syscall ABI (nr in RAX, args in RDI, RSI,
// RDX, R10, R8, R9; RCX and R11 clobbered) reads naturally.
type Reg uint8

// General purpose registers.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumRegs is the number of general purpose registers.
	NumRegs = 16
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String returns the conventional lower-case register name.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg%d", uint8(r))
}

// RegByName maps a register name ("rax", "r10", ...) to its Reg value.
// The boolean reports whether the name is known.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return 0, false
}

// XReg identifies one of the 16 vector (xmm-like) registers. Each holds 16
// bytes of extended state that the kernel does NOT preserve across a
// syscall unless an interposer explicitly saves and restores it — the crux
// of the paper's ABI-compatibility analysis (Listing 1, Table III).
type XReg uint8

// NumXRegs is the number of vector registers.
const NumXRegs = 16

// String returns the conventional xmm register name.
func (x XReg) String() string { return fmt.Sprintf("xmm%d", uint8(x)) }

// Op is an opcode. Values below 0x80 are single-byte opcodes; the special
// x86-compatible encodings (0F 05, 0F 34, FF D0, 90, C3, CC, F4) are
// handled explicitly by the decoder.
type Op uint8

// Opcode space. The x86-faithful encodings come first.
const (
	// OpNop is the 1-byte nop (0x90), used verbatim for the zpoline nop sled.
	OpNop Op = 0x90
	// OpRet (0xC3) pops a return address and jumps to it.
	OpRet Op = 0xC3
	// OpTrap (0xCC, int3) raises a trap to the kernel (SIGTRAP).
	OpTrap Op = 0xCC
	// OpHlt (0xF4) halts the task; used to end guest programs that do not
	// call exit. Executing it raises an exit event with status 0.
	OpHlt Op = 0xF4
	// OpPrefix0F (0x0F) introduces SYSCALL (0F 05) and SYSENTER (0F 34).
	OpPrefix0F Op = 0x0F
	// OpPrefixFF (0xFF) introduces CALL/JMP-indirect-through-register:
	// FF D0+r = call reg, FF E0+r = jmp reg (r in 0..15 via low nibble of
	// the following byte; FF D0 is "call rax" exactly as on x86-64).
	OpPrefixFF Op = 0xFF

	// OpMovImm64 loads a 64-bit immediate: [op][reg][imm64] (10 bytes).
	OpMovImm64 Op = 0x01
	// OpMovReg copies a register: [op][dst<<4|src] (2 bytes).
	OpMovReg Op = 0x02
	// OpLoad loads 8 bytes from [src+disp32]: [op][dst<<4|src][disp32] (6).
	OpLoad Op = 0x03
	// OpStore stores 8 bytes to [dst+disp32]: [op][dst<<4|src][disp32] (6).
	OpStore Op = 0x04
	// OpAdd adds src to dst: [op][dst<<4|src] (2).
	OpAdd Op = 0x05
	// OpSub subtracts src from dst and sets flags: [op][dst<<4|src] (2).
	OpSub Op = 0x06
	// OpAddImm adds a signed 32-bit immediate: [op][reg][imm32] (6).
	OpAddImm Op = 0x07
	// OpCmp compares two registers and sets flags: [op][a<<4|b] (2).
	OpCmp Op = 0x08
	// OpCmpImm compares a register with an imm32: [op][reg][imm32] (6).
	OpCmpImm Op = 0x09
	// OpJmp jumps relative: [op][rel32] (5); target = next insn + rel32.
	OpJmp Op = 0x0A
	// OpJz jumps if the zero flag is set: [op][rel32] (5).
	OpJz Op = 0x0B
	// OpJnz jumps if the zero flag is clear: [op][rel32] (5).
	OpJnz Op = 0x0C
	// OpCall pushes the return address and jumps: [op][rel32] (5).
	OpCall Op = 0x0D
	// OpPush pushes a register: [op][reg] (2).
	OpPush Op = 0x0E
	// OpPop pops into a register: [op][reg] (2).
	OpPop Op = 0x10
	// OpMovImm32 loads a zero-extended 32-bit immediate: [op][reg][imm32] (6).
	OpMovImm32 Op = 0x11
	// OpMul multiplies dst by src: [op][dst<<4|src] (2).
	OpMul Op = 0x12
	// OpAnd, OpOr, OpXor are bitwise ops: [op][dst<<4|src] (2).
	OpAnd Op = 0x13
	OpOr  Op = 0x14
	OpXor Op = 0x15
	// OpShlImm and OpShrImm shift by an immediate: [op][reg][imm8] (3).
	OpShlImm Op = 0x16
	OpShrImm Op = 0x17
	// OpJl/OpJg/OpJle/OpJge are signed conditional jumps: [op][rel32] (5).
	OpJl  Op = 0x18
	OpJg  Op = 0x19
	OpJle Op = 0x1A
	OpJge Op = 0x1B
	// OpLea computes a RIP-relative address: [op][reg][disp32] (6);
	// reg = address of next instruction + disp32.
	OpLea Op = 0x1C
	// OpLoadB loads one byte zero-extended: [op][dst<<4|src][disp32] (6).
	OpLoadB Op = 0x1D
	// OpStoreB stores the low byte of src: [op][dst<<4|src][disp32] (6).
	OpStoreB Op = 0x1E
	// OpLoad32 loads 4 bytes zero-extended: [op][dst<<4|src][disp32] (6).
	OpLoad32 Op = 0x1F

	// OpMovQ2X moves a GPR into the low 8 bytes of an xmm register,
	// zeroing the high half: [op][xmm<<4|reg] (2).
	OpMovQ2X Op = 0x20
	// OpMovX2Q moves the low 8 bytes of an xmm register into a GPR:
	// [op][reg<<4|xmm] (2).
	OpMovX2Q Op = 0x21
	// OpPunpck duplicates the low 8 bytes of an xmm into its high 8 bytes
	// (the punpcklqdq xmm,xmm idiom from Listing 1): [op][xmm] (2).
	OpPunpck Op = 0x22
	// OpMovupsStore stores 16 bytes of an xmm: [op][xmm<<4|reg][disp32] (6).
	OpMovupsStore Op = 0x23
	// OpMovupsLoad loads 16 bytes into an xmm: [op][xmm<<4|reg][disp32] (6).
	OpMovupsLoad Op = 0x24
	// OpXorps zeroes/xors an xmm with another: [op][dst<<4|src] (2).
	OpXorps Op = 0x25
	// OpFld pushes a GPR value onto the x87-like register stack: [op][reg] (2).
	OpFld Op = 0x26
	// OpFst pops the x87-like stack top into a GPR: [op][reg] (2).
	OpFst Op = 0x27

	// OpRdCycle reads the current cycle counter into a register (rdtsc-
	// like): [op][reg] (2).
	OpRdCycle Op = 0x30
	// OpGsLoad loads 8 bytes from gs:[disp32]: [op][reg][disp32] (6).
	OpGsLoad Op = 0x31
	// OpGsStore stores 8 bytes to gs:[disp32]: [op][reg][disp32] (6).
	OpGsStore Op = 0x32
	// OpGsLoadB loads 1 byte zero-extended from gs:[disp32]: [op][reg][disp32] (6).
	OpGsLoadB Op = 0x33
	// OpGsStoreB stores the low byte of reg to gs:[disp32]: [op][reg][disp32] (6).
	OpGsStoreB Op = 0x34
	// OpGsStoreBI stores an immediate byte to gs:[disp32]: [op][imm8][disp32] (6).
	// Register-free so interposer stubs can flip the SUD selector without
	// clobbering application state.
	OpGsStoreBI Op = 0x35
	// OpGsPush pushes the 8-byte value at gs:[disp32] without touching any
	// GPR: [op][disp32] (5). Used by the sigreturn trampoline, which must
	// not clobber application registers.
	OpGsPush Op = 0x36
	// OpGsAddI adds a signed imm32 to the 8-byte value at gs:[disp32]
	// without touching any GPR: [op][disp32][imm32] (9).
	OpGsAddI Op = 0x37
	// OpGsMovB copies one byte gs:[dstdisp32] = gs:[srcdisp32] without
	// touching any GPR: [op][dst disp32][src disp32] (9).
	OpGsMovB Op = 0x38
	// OpGsMov copies 8 bytes gs:[dstdisp32] = gs:[srcdisp32] without
	// touching any GPR: [op][dst disp32][src disp32] (9).
	OpGsMov Op = 0x39
	// OpGsLoadIdxB loads 1 byte from gs:[base reg] (register-indexed, no
	// displacement): [op][dst<<4|idx] (2).
	OpGsLoadIdxB Op = 0x3A
	// OpGsLoadIdx loads 8 bytes from gs:[idx reg + disp32]:
	// [op][dst<<4|idx][disp32] (6). Unlike Load, it does not touch flags
	// (none of the gs ops do), which the sigreturn trampoline depends on.
	OpGsLoadIdx Op = 0x3D

	// OpXchg atomically exchanges [mem]+0 with a register: [op][mem<<4|val]
	// (2 bytes). val gets the old memory value. Used for spinlocks.
	OpXchg Op = 0x3B
	// OpPause is a spin-wait hint (1 byte).
	OpPause Op = 0x3C

	// OpXsave saves the full extended state (all xmm + x87) to the
	// absolute address held in a register: [op][reg] (2). Models the x86
	// XSAVE instruction; the register operand (rather than a fixed
	// displacement) is what lets lazypoline manage its per-task xstate
	// save area as a stack for nested interposer invocations.
	OpXsave Op = 0x40
	// OpXrstor restores the full extended state from [reg]: [op][reg] (2).
	OpXrstor Op = 0x41

	// OpWrpkru writes the PKRU register from a GPR's low 32 bits:
	// [op][reg] (2). Models the x86 WRPKRU instruction that MPK-based
	// intra-process isolation (ERIM, Jenny, ...) toggles domains with.
	OpWrpkru Op = 0x43
	// OpRdpkru reads PKRU into a GPR: [op][reg] (2).
	OpRdpkru Op = 0x44

	// OpHcall invokes a registered host-callback (the "interposer body"):
	// [op][imm32 handler id] (5). This is the boundary at which mechanism
	// stubs hand over to user-supplied Go interposer functions. The cost
	// model charges a fixed body cost for it.
	OpHcall Op = 0x42

	// OpJmpInd jumps to the address held in a register: handled via the FF
	// prefix (FF E0+r) like x86; no standalone opcode value.
)

// Kind classifies how an instruction's operands are encoded, which
// determines its length.
type Kind uint8

// Operand encoding kinds.
const (
	KindNone      Kind = iota + 1 // [op]                       1 byte
	KindReg                       // [op][reg]                  2 bytes
	KindRegReg                    // [op][a<<4|b]               2 bytes
	KindRegImm64                  // [op][reg][imm64]           10 bytes
	KindRegImm32                  // [op][reg][imm32]           6 bytes
	KindRegImm8                   // [op][reg][imm8]            3 bytes
	KindRegRegD32                 // [op][a<<4|b][disp32]       6 bytes
	KindRel32                     // [op][rel32]                5 bytes
	KindImm8D32                   // [op][imm8][disp32]         6 bytes
	KindD32                       // [op][disp32]               5 bytes
	KindD32Imm32                  // [op][disp32][imm32]        9 bytes
	KindD32D32                    // [op][disp32][disp32]       9 bytes
	KindImm32                     // [op][imm32]                5 bytes
	KindPrefix0F                  // 0F 05 / 0F 34              2 bytes
	KindPrefixFF                  // FF D0+r / FF E0+r          2 bytes
)

// opInfo describes one opcode's mnemonic and encoding kind.
type opInfo struct {
	name string
	kind Kind
}

// opTable is indexed by opcode byte; an entry with kind 0 is not an
// opcode. Decode runs once per byte of every image zpoline scans, so the
// lookup is an array index.
var opTable = [256]opInfo{
	OpNop:         {"nop", KindNone},
	OpRet:         {"ret", KindNone},
	OpTrap:        {"int3", KindNone},
	OpHlt:         {"hlt", KindNone},
	OpPause:       {"pause", KindNone},
	OpMovImm64:    {"mov64", KindRegImm64},
	OpMovImm32:    {"mov32", KindRegImm32},
	OpMovReg:      {"mov", KindRegReg},
	OpLoad:        {"load", KindRegRegD32},
	OpStore:       {"store", KindRegRegD32},
	OpLoadB:       {"loadb", KindRegRegD32},
	OpStoreB:      {"storeb", KindRegRegD32},
	OpLoad32:      {"load32", KindRegRegD32},
	OpAdd:         {"add", KindRegReg},
	OpSub:         {"sub", KindRegReg},
	OpMul:         {"mul", KindRegReg},
	OpAnd:         {"and", KindRegReg},
	OpOr:          {"or", KindRegReg},
	OpXor:         {"xor", KindRegReg},
	OpAddImm:      {"addi", KindRegImm32},
	OpCmp:         {"cmp", KindRegReg},
	OpCmpImm:      {"cmpi", KindRegImm32},
	OpShlImm:      {"shli", KindRegImm8},
	OpShrImm:      {"shri", KindRegImm8},
	OpJmp:         {"jmp", KindRel32},
	OpJz:          {"jz", KindRel32},
	OpJnz:         {"jnz", KindRel32},
	OpJl:          {"jl", KindRel32},
	OpJg:          {"jg", KindRel32},
	OpJle:         {"jle", KindRel32},
	OpJge:         {"jge", KindRel32},
	OpCall:        {"call", KindRel32},
	OpPush:        {"push", KindReg},
	OpPop:         {"pop", KindReg},
	OpLea:         {"lea", KindRegImm32},
	OpMovQ2X:      {"movq2x", KindRegReg},
	OpMovX2Q:      {"movx2q", KindRegReg},
	OpPunpck:      {"punpck", KindReg},
	OpMovupsStore: {"movups_st", KindRegRegD32},
	OpMovupsLoad:  {"movups_ld", KindRegRegD32},
	OpXorps:       {"xorps", KindRegReg},
	OpFld:         {"fld", KindReg},
	OpFst:         {"fst", KindReg},
	OpRdCycle:     {"rdcycle", KindReg},
	OpGsLoad:      {"gsload", KindRegImm32},
	OpGsStore:     {"gsstore", KindRegImm32},
	OpGsLoadB:     {"gsloadb", KindRegImm32},
	OpGsStoreB:    {"gsstoreb", KindRegImm32},
	OpGsStoreBI:   {"gsstorebi", KindImm8D32},
	OpGsPush:      {"gspush", KindD32},
	OpGsAddI:      {"gsaddi", KindD32Imm32},
	OpGsMovB:      {"gsmovb", KindD32D32},
	OpGsMov:       {"gsmov", KindD32D32},
	OpGsLoadIdxB:  {"gsloadidxb", KindRegReg},
	OpGsLoadIdx:   {"gsloadidx", KindRegRegD32},
	OpXchg:        {"xchg", KindRegReg},
	OpXsave:       {"xsave", KindReg},
	OpXrstor:      {"xrstor", KindReg},
	OpWrpkru:      {"wrpkru", KindReg},
	OpRdpkru:      {"rdpkru", KindReg},
	OpHcall:       {"hcall", KindImm32},
}

// Info returns the mnemonic and encoding kind for an opcode. ok is false
// for unknown opcodes and for the 0F/FF prefix bytes (which are not
// standalone opcodes).
func Info(op Op) (name string, kind Kind, ok bool) {
	in := &opTable[op]
	return in.name, in.kind, in.kind != 0
}

// Sizes of the x86-faithful special encodings.
const (
	// SyscallLen is the length in bytes of the SYSCALL (0F 05) and
	// SYSENTER (0F 34) instructions — and, critically, of CALL RAX
	// (FF D0), which is what makes in-place rewriting possible.
	SyscallLen = 2
)

// Bytes of the x86-faithful special encodings.
const (
	Byte0F      = 0x0F
	ByteSyscall = 0x05 // 0F 05
	ByteSysent  = 0x34 // 0F 34
	ByteFF      = 0xFF
	ByteCallReg = 0xD0 // FF D0+r, call reg
	ByteJmpReg  = 0xE0 // FF E0+r, jmp reg
)

// SyscallBytes returns the 2-byte encoding of the SYSCALL instruction.
func SyscallBytes() [2]byte { return [2]byte{Byte0F, ByteSyscall} }

// SysenterBytes returns the 2-byte encoding of the SYSENTER instruction.
func SysenterBytes() [2]byte { return [2]byte{Byte0F, ByteSysent} }

// CallRaxBytes returns the 2-byte encoding of CALL RAX, the replacement
// zpoline and lazypoline write over a syscall instruction.
func CallRaxBytes() [2]byte { return [2]byte{ByteFF, ByteCallReg} }
