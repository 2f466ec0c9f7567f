package kernel

// The kernel-side guest-memory accessors (DESIGN.md §19). Code that runs
// on behalf of a task inside that task's own quantum — syscall copy-in and
// copy-out, signal frames, hcall payloads, ptrace stops — reads and writes
// the task's memory through these rather than through t.AS: they resolve
// through the task's software D-TLB, so an access to a page the task has
// touched takes no lock and, for a store to a non-executable page, issues
// no page generation. Misses, page-crossing spans, executable pages and
// every fault fall back to the locked AddressSpace path, so the bytes,
// errors, fault addresses and the fault and code-mutation counters are
// those of t.AS.ReadAt and friends.
//
// The TLB is unsynchronised and belongs to the goroutine running the
// task's quantum. Accesses to another task's memory (clone and execve
// hooks reaching into a child, host-side tooling) and set-up before the
// task first runs go through t.AS.

// ReadAt reads len(p) bytes at addr with the task's own read permission
// (copy_from_user).
func (t *Task) ReadAt(addr uint64, p []byte) error { return t.CPU.ReadAt(addr, p) }

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
