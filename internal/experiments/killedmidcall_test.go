package experiments

import (
	"reflect"
	"testing"

	"lazypoline/internal/core"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/ptracer"
	"lazypoline/internal/seccomputil"
	"lazypoline/internal/sud"
	"lazypoline/internal/zpoline"
)

// callCounter counts the interposer's activations and keeps nothing else.
type callCounter struct{ enters, exits int }

func (c *callCounter) Enter(*interpose.Call) interpose.Action { c.enters++; return interpose.Continue }
func (c *callCounter) Exit(*interpose.Call)                   { c.exits++ }

// reaches reports whether a pointer to target can be found by following
// the pointers, interfaces, slices, arrays, maps and struct fields of v —
// stopping at the kernel and at tasks, which hold every task by design.
func reaches(v reflect.Value, target *kernel.Task, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if v.Pointer() == reflect.ValueOf(target).Pointer() {
			return true
		}
		switch v.Type() {
		case reflect.TypeOf((*kernel.Kernel)(nil)), reflect.TypeOf(target):
			return false
		}
		if seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return reaches(v.Elem(), target, seen)
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), target, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if reaches(v.Field(i), target, seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if reaches(v.Index(i), target, seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if reaches(it.Key(), target, seen) || reaches(it.Value(), target, seen) {
				return true
			}
		}
	}
	return false
}

// TestTaskKilledMidCallLeavesNothingInTheMechanism: a task that dies
// between Enter and Exit — a server blocked in a syscall when a fleet
// drill kills it — takes its in-flight call with it. The calls used to
// sit in a map on the mechanism, keyed by task ID and pruned only by Exit,
// so every such death left an entry (and through its Call the whole task)
// behind for the life of the mechanism.
func TestTaskKilledMidCallLeavesNothingInTheMechanism(t *testing.T) {
	prog, err := guest.Build("blocked-reader", guest.Header+`
	_start:
		mov64 rax, SYS_pipe2
		mov64 rdi, 0x7fef0000
		mov64 rsi, 0
		syscall
		mov64 rbx, 0x7fef0000
		load32 rdi, [rbx]
		mov64 rax, SYS_read        ; nobody ever writes: blocks for good
		mov64 rsi, 0x7fef0100
		mov64 rdx, 8
		syscall
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`)
	if err != nil {
		t.Fatal(err)
	}
	for name, attach := range map[string]func(*kernel.Kernel, *kernel.Task, interpose.Interposer) (any, error){
		MechZpoline: func(k *kernel.Kernel, task *kernel.Task, ip interpose.Interposer) (any, error) {
			return zpoline.Attach(k, task, ip, zpoline.Options{})
		},
		MechLazypoline: func(k *kernel.Kernel, task *kernel.Task, ip interpose.Interposer) (any, error) {
			return core.Attach(k, task, ip, core.Options{})
		},
		MechSUD: func(k *kernel.Kernel, task *kernel.Task, ip interpose.Interposer) (any, error) {
			return sud.Attach(k, task, ip)
		},
		MechSeccompUser: func(k *kernel.Kernel, task *kernel.Task, ip interpose.Interposer) (any, error) {
			return seccomputil.AttachUser(k, task, ip)
		},
		MechPtrace: func(k *kernel.Kernel, task *kernel.Task, ip interpose.Interposer) (any, error) {
			return ptracer.Attach(k, task, ip), nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			task, err := prog.Spawn(k)
			if err != nil {
				t.Fatal(err)
			}
			ip := &callCounter{}
			mech, err := attach(k, task, ip)
			if err != nil {
				t.Fatal(err)
			}
			for k.RunSlice(1_000_000) && task.State() != kernel.TaskBlocked {
			}
			if !task.Alive() || ip.enters != ip.exits+1 {
				t.Fatalf("task alive=%v after %d Enters and %d Exits, want it blocked inside its last call",
					task.Alive(), ip.enters, ip.exits)
			}
			k.KillAll()
			if task.Alive() {
				t.Fatal("task survived KillAll")
			}
			if reaches(reflect.ValueOf(mech), task, map[uintptr]bool{}) {
				t.Errorf("the dead task is still reachable from %T", mech)
			}
		})
	}
}
