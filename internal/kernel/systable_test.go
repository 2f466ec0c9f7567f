package kernel

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/loader"
)

// TestSyscallTable: every row of the syscall table has a handler and a
// unique name an assembler constant can carry; the generated prelude
// assembles, with each SYS_<name> (and each open flag) equal to its
// value; and numbers without a row, or outside the table, fail with
// -ENOSYS instead of panicking.
func TestSyscallTable(t *testing.T) {
	ident := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	seen := map[string]int64{}
	var src strings.Builder
	var want []uint64
	for nr, row := range &syscallTable {
		if (row.name == "") != (row.fn == nil) {
			t.Errorf("syscall %d: name %q without a handler, or a handler without a name", nr, row.name)
		}
		if row.name == "" {
			continue
		}
		if !ident.MatchString(row.name) {
			t.Errorf("syscall %d: %q is not an assembler identifier", nr, row.name)
		}
		if prev, dup := seen[row.name]; dup {
			t.Errorf("syscall %d: name %q already names %d", nr, row.name, prev)
		}
		seen[row.name] = int64(nr)
		fmt.Fprintf(&src, "\t.quad SYS_%s\n", row.name)
		want = append(want, uint64(nr))
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{{"O_RDONLY", ORdonly}, {"O_WRONLY", OWronly}, {"O_RDWR", ORdwr}, {"O_CREAT", OCreat},
		{"O_EXCL", OExcl}, {"O_TRUNC", OTrunc}, {"O_APPEND", OAppend}, {"O_NONBLOCK", ONonblock}} {
		fmt.Fprintf(&src, "\t.quad %s\n", f.name)
		want = append(want, f.v)
	}
	p, err := asm.Assemble(AsmPrelude+src.String(), 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 8*len(want) {
		t.Fatalf("prelude and quads assembled to %d bytes, want %d", len(p.Code), 8*len(want))
	}
	for i, w := range want {
		if got := binary.LittleEndian.Uint64(p.Code[8*i:]); got != w {
			t.Errorf("quad %d = %d, want %d", i, got, w)
		}
	}
	if len(seen) != len(SyscallNumbers()) {
		t.Errorf("SyscallNumbers has %d numbers, the table %d rows", len(SyscallNumbers()), len(seen))
	}

	k := New(Config{})
	task := idleTask(t, k)
	for _, nr := range []int64{-1, NonexistentSyscall, MaxSyscallNr + 1, 1 << 62} {
		if res := k.dispatch(task, nr, [6]uint64{}); res.kind != resNormal || res.ret != -ENOSYS {
			t.Errorf("dispatch(%d) = %+v, want -ENOSYS", nr, res)
		}
		if name := SyscallName(nr); name != "unknown" {
			t.Errorf("SyscallName(%d) = %q", nr, name)
		}
		if !SyscallReturns(nr) {
			t.Errorf("SyscallReturns(%d) = false; -ENOSYS returns", nr)
		}
	}
	for nr := range int64(MaxSyscallNr + 1) {
		never := nr == SysExit || nr == SysExitGroup || nr == SysRtSigreturn
		if SyscallReturns(nr) == never {
			t.Errorf("SyscallReturns(%s) = %v", SyscallName(nr), !never)
		}
	}
}

// TestExecveDropsLocals: past execve's point of no return nothing a
// mechanism kept for the old image stays on the task, while a failed
// execve keeps it.
func TestExecveDropsLocals(t *testing.T) {
	k := New(Config{})
	p, err := asm.Assemble("_start:\n jmp _start\n", 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterImage("/bin/next", img)
	task := idleTask(t, k)
	key := new(int)
	task.SetLocal(key, "in flight")
	if err := task.WriteAt(guestBuf, []byte("/nope\x00/bin/next\x00")); err != nil {
		t.Fatal(err)
	}
	if res := k.dispatch(task, SysExecve, [6]uint64{guestBuf}); res.ret != -ENOENT || task.Local(key) == nil {
		t.Fatalf("failed execve: ret %d, local %v", res.ret, task.Local(key))
	}
	if res := k.dispatch(task, SysExecve, [6]uint64{guestBuf + 6}); res.kind != resNoReturn || task.Local(key) != nil {
		t.Fatalf("execve: kind %d, local %v; want no return and no local", res.kind, task.Local(key))
	}
}
