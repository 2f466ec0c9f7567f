package kernel

import "lazypoline/internal/mem"

// The kernel-side guest-memory accessors (DESIGN.md §5). Code that runs
// on behalf of a task inside that task's own quantum — syscall copy-in and
// copy-out, signal frames, hcall payloads, ptrace stops — reads and writes
// the task's memory through these rather than through t.AS: they resolve
// through the task's software D-TLB, so an access to a page the task has
// touched skips the page-map walk and, for a store to a non-executable
// page, issues no page generation; a span that crosses pages is served a
// page at a time. Misses, executable pages and every fault hand the rest
// of the span to the checked AddressSpace path, so the bytes, errors,
// fault addresses and the fault and code-mutation counters are those of
// t.AS.ReadAt and friends.
//
// The TLB is the task's own. Accesses to another task's memory (clone and
// execve hooks reaching into a child, host-side tooling) and set-up
// before the task first runs go through t.AS.

// ReadAt reads len(p) bytes at addr with the task's own read permission
// (copy_from_user).
func (t *Task) ReadAt(addr uint64, p []byte) error { return t.CPU.ReadAt(addr, p) }

// CheckRead reports what ReadAt of n bytes at addr would — nil or the
// fault, counted — without copying: a transfer that must not start
// unless the whole buffer is readable checks it first.
func (t *Task) CheckRead(addr uint64, n int) error { return t.CPU.CheckRead(addr, n) }

// WriteAt writes p at addr with the task's own write permission
// (copy_to_user).
func (t *Task) WriteAt(addr uint64, p []byte) error { return t.CPU.WriteAt(addr, p) }

// ReadU64 reads a little-endian uint64 with read permission.
func (t *Task) ReadU64(addr uint64) (uint64, error) { return t.CPU.ReadU64(addr) }

// WriteU64 writes a little-endian uint64 with write permission.
func (t *Task) WriteU64(addr, v uint64) error { return t.CPU.WriteU64(addr, v) }

// ReadForce reads ignoring page protections and protection keys
// (kernel-privileged); unmapped and PROT_NONE pages still fault.
func (t *Task) ReadForce(addr uint64, p []byte) error { return t.CPU.ReadForce(addr, p) }

// WriteForce writes ignoring page protections and protection keys
// (kernel-privileged: signal frames, ptrace pokes); unmapped and
// PROT_NONE pages still fault.
func (t *Task) WriteForce(addr uint64, p []byte) error { return t.CPU.WriteForce(addr, p) }

// AliasFrames backs the pages from addr with a sealed file's frames, as
// read(2) of whole pages does (fs.FrameSink): see mem.AddressSpace.Alias,
// which refuses, changing nothing, unless every page is mapped, writable,
// not executable and writable under the task's protection keys. The
// task's D-TLB entries over the pages stop validating, as after a checked
// write.
func (t *Task) AliasFrames(addr uint64, frames []mem.Frame) bool {
	return t.CPU.AS.Alias(addr, frames)
}

// guestSource is the task's memory as a netstack.Source: write(2) to a
// socket reads the guest's buffer straight into the peer's receive
// buffer with it, off being the guest address, or lends it when the
// buffer is a sealed file's pages that read(2) aliased there. The buffer
// has been checked whole first (Task.CheckRead), so its reads do not
// fault.
type guestSource Task

func (g *guestSource) ReadAt(p []byte, addr uint64) (int, error) {
	if err := (*Task)(g).ReadAt(addr, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// SealedExtent lends all n bytes at addr when every page they touch is
// backed by consecutive lent frames of one sealed file
// (mem.AddressSpace.LentRun): those bytes never change, and a store the
// guest makes after write(2) returns privatizes its page first. Anything
// else lends nothing. It never lends a prefix, since a short lend would
// change what write(2) returns.
func (g *guestSource) SealedExtent(addr uint64, n int) ([]byte, bool) {
	p := g.CPU.AS.LentRun(addr, n)
	return p, p != nil
}
