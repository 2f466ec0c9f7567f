// Package trace records and compares syscall traces. The exhaustiveness
// evaluation (paper §V-A) runs the same JIT workload under SUD, zpoline
// and lazypoline and diffs the traces: an exhaustive mechanism produces
// exactly the kernel's ground-truth sequence; zpoline's trace is missing
// the JIT-emitted syscall.
package trace

import (
	"fmt"
	"strings"

	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
)

// Entry is one recorded syscall.
type Entry struct {
	Nr   int64
	Args [6]uint64
	Ret  int64
}

// String renders like strace: "getpid() = 1001", with failing returns
// annotated with the errno name: "open(...) = -2 (ENOENT)".
func (e Entry) String() string {
	args := make([]string, 0, 6)
	for _, a := range e.Args {
		args = append(args, fmt.Sprintf("%#x", a))
	}
	s := fmt.Sprintf("%s(%s) = %d", kernel.SyscallName(e.Nr), strings.Join(args, ", "), e.Ret)
	if e.Ret < 0 {
		if name := kernel.ErrnoName(-e.Ret); name != "" {
			s += " (" + name + ")"
		}
	}
	return s
}

// Recorder is an Interposer that records every call it sees and executes
// it unmodified — the paper's tracing interposition function ("print the
// current system call with all its arguments, then execute the syscall
// without modification").
//
// Entries are recorded at syscall entry (like strace) so that calls that
// never return — exit, exit_group, execve — still appear; the return
// value is filled in at exit when there is one.
type Recorder struct {
	entries []Entry
	// open maps an in-flight call to its entry. Exit gets the *Call its
	// Enter got (interpose.Interposer), and a mechanism recycles its
	// Calls, so the map holds at most one entry per Call ever handed out.
	open map[*interpose.Call]int
}

// Enter implements interpose.Interposer.
func (r *Recorder) Enter(c *interpose.Call) interpose.Action {
	if r.open == nil {
		r.open = make(map[*interpose.Call]int)
	}
	r.entries = append(r.entries, Entry{Nr: c.Nr, Args: c.Args})
	r.open[c] = len(r.entries) - 1
	return interpose.Continue
}

// Exit implements interpose.Interposer.
func (r *Recorder) Exit(c *interpose.Call) {
	if i, ok := r.open[c]; ok {
		r.entries[i].Ret = c.Ret
		delete(r.open, c)
	}
}

var _ interpose.Interposer = (*Recorder)(nil)

// Entries returns a copy of the recorded trace.
func (r *Recorder) Entries() []Entry {
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Nrs returns just the syscall-number sequence.
func (r *Recorder) Nrs() []int64 {
	out := make([]int64, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Nr
	}
	return out
}

// Contains reports whether the trace includes syscall nr.
func (r *Recorder) Contains(nr int64) bool {
	for _, e := range r.Entries() {
		if e.Nr == nr {
			return true
		}
	}
	return false
}

// GroundTruth records the kernel's dispatch-level trace — what actually
// reached the syscall table. Attach with kernel.OnDispatch.
type GroundTruth struct {
	nrs []int64
}

// Hook returns a kernel.OnDispatch-compatible function.
func (g *GroundTruth) Hook() func(*kernel.Task, int64, [6]uint64) {
	return func(_ *kernel.Task, nr int64, _ [6]uint64) {
		g.nrs = append(g.nrs, nr)
	}
}

// Nrs returns the dispatched syscall numbers.
func (g *GroundTruth) Nrs() []int64 {
	out := make([]int64, len(g.nrs))
	copy(out, g.nrs)
	return out
}

// DiffNrs compares two syscall-number sequences and returns a short
// human-readable description of the first divergence, or "" if equal.
func DiffNrs(a, b []int64) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("position %d: %s vs %s",
				i, kernel.SyscallName(a[i]), kernel.SyscallName(b[i]))
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	return ""
}

// Missing returns the syscall numbers in want that are absent from got
// (multiset difference), preserving order.
func Missing(want, got []int64) []int64 {
	counts := make(map[int64]int)
	for _, nr := range got {
		counts[nr]++
	}
	var out []int64
	for _, nr := range want {
		if counts[nr] > 0 {
			counts[nr]--
			continue
		}
		out = append(out, nr)
	}
	return out
}
