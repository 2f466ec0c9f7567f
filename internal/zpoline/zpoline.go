// Package zpoline reimplements the zpoline binary-rewriting syscall
// interposition mechanism (Yasukata et al., ATC '23) on the simulated
// machine, as the paper's fast-path baseline.
//
// At load time it scans every executable region, disassembles it, and
// replaces each two-byte SYSCALL/SYSENTER instruction with the two-byte
// CALL RAX. Because the x86-64 ABI puts the syscall number in RAX, the
// call lands inside a nop sled mapped at virtual address 0 covering
// [0, MaxSyscallNr]; the sled slides into the generic interposer entry
// stub.
//
// zpoline's defining property — "it cannot fail to rewrite a syscall
// instruction", since the replacement has exactly the same length — is
// preserved bit-for-bit. So is its defining limitation: it is a static
// rewriter, so syscall instructions materialised after the scan
// (JIT-compiled or dynamically loaded code) are invisible to it, and its
// disassembly is subject to the classic hazards (ScanNaive demonstrates
// the false-positive failure mode).
package zpoline

import (
	"errors"
	"fmt"

	"lazypoline/internal/interpose"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
	"lazypoline/internal/telemetry"
)

// ScanMode selects how the rewriter identifies syscall instructions.
type ScanMode uint8

// Scan modes.
const (
	// ScanLinear performs linear-sweep disassembly, resynchronising one
	// byte forward on undecodable bytes. This is the faithful default.
	ScanLinear ScanMode = iota + 1
	// ScanNaive rewrites every 0F 05 / 0F 34 byte pair wherever it
	// appears — including inside immediates — demonstrating the
	// misidentification hazard static rewriters risk ("the risk of
	// accidentally destroying misidentified code", §V-A).
	ScanNaive
)

// Options configures Attach.
type Options struct {
	// SaveXState preserves vector/x87 state across interposition.
	// zpoline's prototype does not (one of the compatibility issues the
	// paper quantifies in Table III), so the default is off.
	SaveXState bool
	// Mode is the scan strategy (default ScanLinear).
	Mode ScanMode
}

// Stats reports what the rewriter did.
type Stats struct {
	// ScannedBytes is the number of executable bytes disassembled.
	ScannedBytes uint64
	// Rewritten is the number of syscall instructions replaced.
	Rewritten int
	// Sites are the rewritten addresses.
	Sites []uint64
}

// Mechanism is an attached zpoline instance.
type Mechanism struct {
	Binder *interpose.Binder
	Stats  Stats

	entry uint64
}

// ErrTrampolineArea is returned when VA 0 is already mapped.
var ErrTrampolineArea = errors.New("zpoline: virtual address 0 already mapped")

// TrampolineSize is the size of the VA-0 mapping (one page: the sled
// plus the entry stub).
const TrampolineSize = mem.PageSize

// Attach installs zpoline for a task: maps the trampoline at VA 0, sets
// up the per-task gs scratch region, registers the interposer payloads,
// and statically rewrites all current executable mappings.
func Attach(k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer, opts Options) (*Mechanism, error) {
	if opts.Mode == 0 {
		opts.Mode = ScanLinear
	}
	m := &Mechanism{Binder: interpose.NewBinder(ip)}

	enterID := k.RegisterHcall(m.Binder.Enter)
	exitID := k.RegisterHcall(m.Binder.Exit)

	// gs scratch region (emulate flag, optional xstate stack).
	gsBase, err := t.AS.MapAnon(interpose.GSSize, mem.ProtRW)
	if err != nil {
		return nil, fmt.Errorf("zpoline: map gs region: %w", err)
	}
	t.CPU.GSBase = gsBase
	if err := interpose.InitGSRegion(t, gsBase); err != nil {
		return nil, err
	}

	// Trampoline at VA 0: nop sled over [0, MaxSyscallNr], then the
	// generic entry stub. Every attach with the same options encodes the
	// same page, so it maps as one process-wide frame (mem.FramesOf) and
	// its sled is decoded once per process, not once per task.
	var e isa.Enc
	e.Nop(kernel.MaxSyscallNr + 1)
	m.entry = uint64(e.Len())
	interpose.BuildEntryStub(&e, interpose.StubOpts{
		UseSUD:     false,
		SaveXState: opts.SaveXState,
		EnterHcall: enterID,
		ExitHcall:  exitID,
	})
	if len(e.Buf) > TrampolineSize {
		return nil, fmt.Errorf("zpoline: trampoline too large: %d", len(e.Buf))
	}
	if err := t.AS.MapFrames(0, mem.FramesOf(e.Buf, TrampolineSize), mem.ProtRX); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTrampolineArea, err)
	}

	// Static rewriting pass over everything currently executable.
	if err := m.RewriteAll(t, opts.Mode); err != nil {
		return nil, err
	}

	if tel := k.Telemetry(); tel != nil && tel.Metrics != nil {
		tel.Metrics.AddCollector(func(r *telemetry.Registry) {
			r.Counter("zpoline.scanned_bytes").Set(m.Stats.ScannedBytes)
			r.Counter("zpoline.rewritten").Set(uint64(m.Stats.Rewritten))
		})
	}
	return m, nil
}

// Symbols names the mechanism's injected code for profiler output.
func (m *Mechanism) Symbols() map[string]uint64 {
	return map[string]uint64{
		"zpoline_trampoline": 0,
		"zpoline_entry":      m.entry,
	}
}

// RewriteAll scans all executable regions and rewrites the syscall
// instructions it can identify. It skips the trampoline page itself and
// the kernel's vdso (a real loader scans only the mapped ELF objects).
func (m *Mechanism) RewriteAll(t *kernel.Task, mode ScanMode) error {
	for _, r := range t.AS.Regions() {
		if r.Prot&mem.ProtExec == 0 {
			continue
		}
		if r.Addr == 0 || r.Addr == kernel.VdsoBase {
			continue
		}
		if err := m.rewriteRegion(t, r, mode); err != nil {
			return err
		}
	}
	return nil
}

// FindSyscallSites scans a code image loaded at base and returns the
// addresses of the syscall instructions the given strategy identifies.
// Exported because lazypoline's optional up-front rewriting pass (used
// by the paper's microbenchmark to measure pure steady state) reuses it.
func FindSyscallSites(code []byte, base uint64, mode ScanMode) []uint64 {
	var sites []uint64
	switch mode {
	case ScanNaive:
		for off := 0; off+1 < len(code); off++ {
			if isa.IsSyscallBytes(code[off:]) {
				sites = append(sites, base+uint64(off))
				off++ // do not re-match the second byte
			}
		}
	default: // ScanLinear
		for off := 0; off < len(code); {
			if code[off] == 0 {
				// No instruction starts with a zero byte, so a run of
				// them — page padding — resynchronises in one step
				// instead of one rejected Decode per byte.
				for off < len(code) && code[off] == 0 {
					off++
				}
				continue
			}
			in, err := isa.Decode(code[off:])
			if err != nil {
				off++ // resynchronise — the heuristic real rewriters need
				continue
			}
			if in.Mnem == isa.MSyscall || in.Mnem == isa.MSysenter {
				sites = append(sites, base+uint64(off))
			}
			off += in.Len
		}
	}
	return sites
}

// rewriteRegion scans one executable region.
func (m *Mechanism) rewriteRegion(t *kernel.Task, r mem.Region, mode ScanMode) error {
	code := make([]byte, r.Length)
	if err := t.AS.ReadForce(r.Addr, code); err != nil {
		return err
	}
	sites := FindSyscallSites(code, r.Addr, mode)
	m.Stats.ScannedBytes += r.Length

	if len(sites) == 0 {
		return nil
	}
	// The mprotect dance: code pages are RX; flip to RW, patch, restore.
	if err := t.AS.Protect(r.Addr, r.Length, mem.ProtRW); err != nil {
		return err
	}
	patch := isa.CallRaxBytes()
	for _, addr := range sites {
		if err := t.AS.WriteAt(addr, patch[:]); err != nil {
			return err
		}
	}
	if err := t.AS.Protect(r.Addr, r.Length, r.Prot); err != nil {
		return err
	}
	m.Stats.Rewritten += len(sites)
	m.Stats.Sites = append(m.Stats.Sites, sites...)
	return nil
}
