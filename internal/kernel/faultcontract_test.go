package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
)

// The fault contract of the data syscalls (DESIGN.md §7): what write,
// read and sendfile return, move and leave queued when guest memory
// faults part-way through the transfer. A guest buffer that runs from a
// good page into a bad one is checked before any byte reaches a socket,
// and filled up to the bad page when a file is read into it.

// faultWindow is a window of two pages at which the contract tests place
// their buffers: the first mapped read-write, the second as second says
// (an unmapped page when mapped is false).
const faultWindow = 0x4000_0000

type secondPage struct {
	name   string
	mapped bool
	prot   mem.Prot
}

// writeSecondPages are second pages a write's source cannot be read from;
// readSecondPages those a read's destination cannot be written to.
var (
	writeSecondPages = []secondPage{{"unmapped", false, 0}, {"PROT_NONE", true, mem.ProtNone}}
	readSecondPages  = []secondPage{{"unmapped", false, 0}, {"read-only", true, mem.ProtRead}}
)

// mapFaultWindow maps the window's first page read-write and its second
// as p says, and touches the first through the task's own accessors so
// that it is served from the task's D-TLB, as a guest's buffer would be.
func mapFaultWindow(t *testing.T, task *Task, p secondPage) {
	t.Helper()
	if err := task.AS.MapFixed(faultWindow, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if p.mapped {
		if err := task.AS.MapFixed(faultWindow+mem.PageSize, mem.PageSize, p.prot); err != nil {
			t.Fatal(err)
		}
	}
	if err := task.WriteAt(faultWindow, []byte("warm")); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSockFaultQueuesNothing: write(sock) from a buffer whose second
// page cannot be read returns EFAULT with one fault counted, queues
// nothing and asks the fault plan nothing — whatever the socket would
// have answered: a healthy peer, a closed one, a full buffer or a plan
// set to reset the connection.
func TestWriteSockFaultQueuesNothing(t *testing.T) {
	const buf, count = faultWindow + mem.PageSize - 100, 300
	for _, p := range writeSecondPages {
		for _, state := range []string{"open", "peer closed", "full", "reset pending"} {
			t.Run(fmt.Sprintf("%s/%s", p.name, state), func(t *testing.T) {
				plan := &armedResetPlan{}
				r := newSendfileRig(t, Config{}, plan, true)
				mapFaultWindow(t, r.task, p)
				// The good page on its own goes through.
				if res := r.k.dispatch(r.task, SysWrite, [6]uint64{uint64(r.sockFd), buf, 100}); res.ret != 100 {
					t.Fatalf("write from the good page = %+v, want 100", res)
				}
				r.drain(t, 100)
				switch state {
				case "peer closed":
					r.client.Close()
				case "full":
					r.fill(t, 0)
				case "reset pending":
					plan.armed = true
				}
				asked := plan.countingPlan
				buffered := r.client.Buffered()
				faults := r.task.AS.Stats().Faults

				res := r.k.dispatch(r.task, SysWrite, [6]uint64{uint64(r.sockFd), buf, count})
				if res.kind != resNormal || res.ret != -EFAULT {
					t.Fatalf("write = %+v, want -EFAULT", res)
				}
				if got := r.task.AS.Stats().Faults - faults; got != 1 {
					t.Errorf("%d faults counted, want 1", got)
				}
				if got := plan.countingPlan; got != asked {
					t.Errorf("fault plan asked %+v, before the write %+v: the socket was consulted", got, asked)
				}
				if state != "peer closed" {
					if got := r.client.Buffered(); got != buffered {
						t.Errorf("client holds %d bytes, %d before the write", got, buffered)
					}
					if rd := r.client.Ready(); rd&netstack.ReadyHup != 0 {
						t.Errorf("client readiness %03b: the connection went down", rd)
					}
				}
			})
		}
	}
}

// armedResetPlan injects an RST on every write that consults it once
// armed, and counts how often it is asked.
type armedResetPlan struct {
	countingPlan
	armed bool
}

func (p *armedResetPlan) Reset(uint64) bool { p.resets++; return p.armed }

// TestReadFileFaultKeepsFirstPage: read(file) into a buffer whose second
// page cannot be written returns EFAULT with one fault counted, leaves
// the file's bytes in the first page, and moves the file offset by all
// the file had for it — the whole count, or up to EOF — as when the copy
// succeeds. A buffer that faults on its first byte gets nothing and moves
// the offset alike. Sealed and unsealed filesystems answer the same.
func TestReadFileFaultKeepsFirstPage(t *testing.T) {
	cases := []struct {
		name       string
		off, count uint64
		good       uint64 // bytes of the buffer before the bad page
		wantOff    uint64
	}{
		{"mid-file", 1000, 300, 100, 1300},
		{"short of EOF", 10_000 - 50, 300, 20, 10_000},
		{"first byte bad", 2000, 300, 0, 2300},
	}
	for _, sealed := range []bool{false, true} {
		for _, p := range readSecondPages {
			for _, c := range cases {
				t.Run(fmt.Sprintf("sealed=%v/%s/%s", sealed, p.name, c.name), func(t *testing.T) {
					r := newSendfileRig(t, Config{}, nil, true)
					if sealed {
						r.k.FS.Seal()
					}
					mapFaultWindow(t, r.task, p)
					buf := faultWindow + mem.PageSize - c.good
					stale := bytes.Repeat([]byte{0xA5}, mem.PageSize)
					if err := r.task.AS.WriteAt(faultWindow, stale); err != nil {
						t.Fatal(err)
					}
					fd, _ := r.task.Files.Get(r.fileFd)
					if _, err := fd.File.Seek(int64(c.off), 0); err != nil {
						t.Fatal(err)
					}
					faults := r.task.AS.Stats().Faults

					res := r.k.dispatch(r.task, SysRead, [6]uint64{uint64(r.fileFd), buf, c.count})
					if res.kind != resNormal || res.ret != -EFAULT {
						t.Fatalf("read = %+v, want -EFAULT", res)
					}
					if got := r.task.AS.Stats().Faults - faults; got != 1 {
						t.Errorf("%d faults counted, want 1", got)
					}
					if off := r.offset(t); uint64(off) != c.wantOff {
						t.Errorf("file offset = %d, want %d", off, c.wantOff)
					}
					got := make([]byte, mem.PageSize)
					if err := r.task.AS.ReadAt(faultWindow, got); err != nil {
						t.Fatal(err)
					}
					want := append(stale[:mem.PageSize-c.good:mem.PageSize-c.good], r.content[c.off:c.off+c.good]...)
					if !bytes.Equal(got, want) {
						t.Error("the first page does not hold the stale bytes followed by the file's")
					}
				})
			}
		}
	}
}

// TestSendfileUnwritableOffsetPointer: sendfile whose offset pointer can
// be read but not written sends the bytes, leaves the pointer and the
// file offset alone and returns EFAULT — Linux's put_user after the
// transfer. Sealed files, sent by reference, answer as unsealed ones.
func TestSendfileUnwritableOffsetPointer(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		t.Run(fmt.Sprintf("sealed=%v", sealed), func(t *testing.T) {
			r := newSendfileRig(t, Config{}, nil, true)
			if sealed {
				r.k.FS.Seal()
			}
			if err := r.task.AS.MapFixed(faultWindow, mem.PageSize, mem.ProtRW); err != nil {
				t.Fatal(err)
			}
			if err := r.task.AS.WriteU64(faultWindow, 4000); err != nil {
				t.Fatal(err)
			}
			if err := r.task.AS.Protect(faultWindow, mem.PageSize, mem.ProtRead); err != nil {
				t.Fatal(err)
			}
			faults := r.task.AS.Stats().Faults
			if res := r.sendfile(faultWindow, 1000); res.kind != resNormal || res.ret != -EFAULT {
				t.Fatalf("sendfile = %+v, want -EFAULT", res)
			}
			if got := r.task.AS.Stats().Faults - faults; got != 1 {
				t.Errorf("%d faults counted, want 1", got)
			}
			if got := r.drain(t, 1000); !bytes.Equal(got, r.content[4000:5000]) {
				t.Error("client did not receive bytes 4000..4999 of the file")
			}
			if v, err := r.task.AS.ReadU64(faultWindow); err != nil || v != 4000 {
				t.Errorf("*offset_ptr = %d, %v; want 4000 untouched", v, err)
			}
			if off := r.offset(t); off != 0 {
				t.Errorf("file offset = %d, want 0", off)
			}
		})
	}
}
