package kernel

// The kernel-side guest-memory accessors (DESIGN.md §19). Code that runs
// on behalf of a task inside that task's own quantum — syscall copy-in and
// copy-out, signal frames, hcall payloads, ptrace stops — reads and writes
// the task's memory through these rather than through t.AS: they resolve
// through the task's software D-TLB, so an access to a page the task has
// touched takes no lock and, for a store to a non-executable page, issues
// no page generation; a span that crosses pages is served a page at a
// time. Misses, executable pages and every fault hand the rest of the
// span to the locked AddressSpace path, so the bytes, errors, fault
// addresses and the fault and code-mutation counters are those of
// t.AS.ReadAt and friends.
//
// The TLB is unsynchronised and belongs to the goroutine running the
// task's quantum. Accesses to another task's memory (clone and execve
// hooks reaching into a child, host-side tooling) and set-up before the
// task first runs go through t.AS.

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

// guestSource is the task's memory as a netstack.Source: write(2) to a
// socket reads the guest's buffer straight into the peer's receive
// buffer with it, off being the guest address. The buffer has been
// checked whole first (Task.CheckRead), so its reads do not fault.
type guestSource Task

func (g *guestSource) ReadAt(p []byte, addr uint64) (int, error) {
	if err := (*Task)(g).ReadAt(addr, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// SealedExtent lends nothing: the guest may change its buffer as soon as
// write(2) returns.
func (g *guestSource) SealedExtent(uint64, int) ([]byte, bool) { return nil, false }
