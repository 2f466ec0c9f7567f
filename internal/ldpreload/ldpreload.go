// Package ldpreload implements function-level syscall interposition —
// the LD_PRELOAD / ltrace family the paper's Related Work contrasts with
// instruction-level mechanisms:
//
//	"Some work interposes syscall wrapper functions instead of syscalls
//	directly. The performance impact of these solutions is minimal but
//	comes at the cost of exhaustiveness, since syscall instructions can
//	also appear outside of wrapper functions. In addition, function-level
//	interposers must identify all syscall wrapper functions and map them
//	to the syscalls they perform, which does not scale in practice."
//
// The mechanism hooks named wrapper functions (our guests' libc_* entry
// points) by planting a jump to a per-wrapper stub at the function's
// entry. Each stub runs the interposer payload, re-executes the
// displaced entry instructions, and continues in the original wrapper —
// classic inline hooking.
//
// Both limitations are structural and demonstrated by tests: a guest
// that issues a raw SYSCALL (or whose wrapper is not in the symbol map)
// bypasses interposition entirely, and hooking requires symbol
// knowledge the loader may simply not have.
package ldpreload

import (
	"fmt"
	"sort"

	"lazypoline/internal/interpose"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
	"lazypoline/internal/telemetry"
)

// WrapperInfo describes one known syscall wrapper: its symbol and the
// syscall number it performs (the mapping the paper notes "does not
// scale in practice" — here it must be provided by hand).
type WrapperInfo struct {
	Symbol string
	Nr     int64
}

// DefaultWrappers maps the guest corpus's libc entry points.
var DefaultWrappers = []WrapperInfo{
	{"libc_read", kernel.SysRead},
	// libc_write's retry/partial-write loop needs setup before its first
	// syscall, so the raw issue point is a separate symbol with the
	// canonical hookable prologue.
	{"libc_write_raw", kernel.SysWrite},
	{"libc_open", kernel.SysOpen},
	{"libc_close", kernel.SysClose},
	{"libc_stat", kernel.SysStat},
	{"libc_getcwd", kernel.SysGetcwd},
	{"libc_mkdir", kernel.SysMkdir},
	{"libc_chmod", kernel.SysChmod},
	{"libc_unlink", kernel.SysUnlink},
	{"libc_rename", kernel.SysRename},
	{"libc_utimensat", kernel.SysUtimensat},
	{"libc_getdents", kernel.SysGetdents64},
	{"libc_exit", kernel.SysExit},
}

// Mechanism is an attached function-level interposer.
type Mechanism struct {
	// Hooked lists the wrappers that were found and hooked.
	Hooked []string
	// Missing lists requested wrappers absent from the symbol table.
	Missing []string

	ip interpose.Interposer
}

// stubArea is where the per-wrapper hook stubs are mapped.
const stubArea = 0xE100_0000

// Attach hooks the given wrappers in the task's image. symbols maps
// names to addresses (from the loader); wrappers gives the hand-curated
// function→syscall mapping.
func Attach(k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer,
	symbols map[string]uint64, wrappers []WrapperInfo) (*Mechanism, error) {
	m := &Mechanism{ip: ip}

	if err := t.AS.MapFixed(stubArea, mem.PageSize, mem.ProtRW); err != nil {
		return nil, fmt.Errorf("ldpreload: map stub area: %w", err)
	}
	var stubs isa.Enc

	// Deterministic hook order.
	sorted := append([]WrapperInfo(nil), wrappers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Symbol < sorted[j].Symbol })

	for _, w := range sorted {
		addr, ok := symbols[w.Symbol]
		if !ok {
			// The unscalable part: unknown wrappers simply are not hooked.
			m.Missing = append(m.Missing, w.Symbol)
			continue
		}
		if err := m.hook(k, t, &stubs, w, addr); err != nil {
			return nil, err
		}
		m.Hooked = append(m.Hooked, w.Symbol)
	}

	if err := t.AS.WriteAt(stubArea, stubs.Buf); err != nil {
		return nil, err
	}
	if err := t.AS.Protect(stubArea, mem.PageSize, mem.ProtRX); err != nil {
		return nil, err
	}

	if tel := k.Telemetry(); tel != nil && tel.Metrics != nil {
		tel.Metrics.AddCollector(func(r *telemetry.Registry) {
			r.Counter("ldpreload.hooked").Set(uint64(len(m.Hooked)))
			r.Counter("ldpreload.missing").Set(uint64(len(m.Missing)))
		})
	}
	return m, nil
}

// Symbols names the mechanism's injected code for profiler output.
func (m *Mechanism) Symbols() map[string]uint64 {
	return map[string]uint64{"ldpreload_stubs": stubArea}
}

// hook plants `mov64 r11, stub ; jmp r11` (12 bytes) at the wrapper
// entry and emits a stub that runs the payload and then the displaced
// prologue. Our wrappers begin with `mov64 rax, NR` (10 bytes), so the
// patch displaces that instruction plus two bytes of the following
// SYSCALL — the stub re-materialises both.
func (m *Mechanism) hook(k *kernel.Kernel, t *kernel.Task, stubs *isa.Enc, w WrapperInfo, addr uint64) error {
	// Verify the expected prologue (mov64 rax, NR ; syscall ; ret).
	var prologue [13]byte
	if err := t.AS.ReadForce(addr, prologue[:]); err != nil {
		return err
	}
	in, err := isa.Decode(prologue[:])
	if err != nil || in.Op != isa.OpMovImm64 || in.A != isa.RAX || in.Imm != w.Nr {
		return fmt.Errorf("ldpreload: %s does not look like a wrapper for nr %d", w.Symbol, w.Nr)
	}

	nr := w.Nr
	hcall := k.RegisterHcall(func(hc *kernel.HcallCtx) error {
		t := hc.Task
		// Function-level visibility only: the wrapper's register
		// arguments happen to be the syscall arguments in our ABI.
		stack := interpose.Pending(t, m)
		c := stack.Push(t)
		c.Nr, c.Args = nr, t.SyscallArgs()
		// There is no exit point, so the call closes right after Enter.
		// Emulation is not supported at function level (the stub cannot
		// skip the original body without symbol-level CFG knowledge);
		// verdicts other than Continue are ignored, another
		// expressiveness gap of this mechanism class.
		m.ip.Enter(c)
		stack.Pop()
		return nil
	})

	stubAddr := stubArea + uint64(stubs.Len())
	stubs.Hcall(hcall)
	// The 12-byte patch displaces the whole `mov64 rax, NR ; syscall`
	// prologue; the stub re-materialises both and resumes at the
	// wrapper's RET.
	stubs.MovImm64(isa.RAX, nr)
	stubs.Syscall()
	stubs.MovImm64(isa.R11, int64(addr+12))
	stubs.JmpReg(isa.R11)

	// Patch the wrapper entry. R11 is syscall-clobbered anyway, so the
	// trampoline may use it, as real inline hooks do.
	var patch isa.Enc
	patch.MovImm64(isa.R11, int64(stubAddr))
	patch.JmpReg(isa.R11)
	prot, _ := t.AS.ProtAt(addr)
	page := addr &^ (mem.PageSize - 1)
	length := ((addr + uint64(patch.Len()) - page) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if err := t.AS.Protect(page, length, mem.ProtRW); err != nil {
		return err
	}
	if err := t.AS.WriteAt(addr, patch.Buf); err != nil {
		return err
	}
	return t.AS.Protect(page, length, prot)
}
