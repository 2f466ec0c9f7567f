package kernel

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"lazypoline/internal/netstack"
)

// forgetMisses drops every cached miss of ep's watches and of t's wait
// (t may be nil), so the next poll of each goes all the way down. It is
// what makes versionRig's reference half poll everything, every time.
func forgetMisses(ep *Epoll, t *Task) {
	for i := range ep.watches {
		w := &ep.watches[i]
		*w = epollWatch{fd: w.fd, events: w.events}
	}
	if t != nil {
		t.blocked.missed = false
	}
}

// Operations of a versionRig program. Each is one opcode byte followed
// by a fixed number of argument bytes (0 once the input runs out).
const (
	vopSocket   = iota // task, port: a bound socket, not yet listening
	vopListen          // task, fd
	vopConnect         // port: a host-side client dials
	vopAccept          // task, fd
	vopClose           // task, fd
	vopDup2            // task, old, new
	vopCtl             // op, fd, events: on the epoll both tables share
	vopSrvWrite        // task, fd, size
	vopSrvRead         // task, fd, size, discard
	vopSrvRST          // task, fd
	vopCliWrite        // client, size
	vopCliRead         // client, size, discard
	vopCliEnd          // client, rst: close or reset a client
	vopPark            // waiter, kind, task or client, fd, want
	vopRound           // how: poll the epoll through one table or both, then every parked waiter
	vopCount
)

// vopArgs is the number of argument bytes each operation reads.
var vopArgs = [vopCount]int{2, 2, 1, 2, 2, 3, 3, 3, 4, 2, 2, 3, 2, 5, 1}

// scriptFaults is a fault plan that pops its decisions from a script:
// a drop for a byte of 1 mod 3, a delay for 2 mod 3. It never resets
// (the programs inject their own RSTs) and faults nothing once the
// script runs out.
type scriptFaults struct{ script []byte }

func (p *scriptFaults) pop() byte {
	if len(p.script) == 0 {
		return 0
	}
	b := p.script[0]
	p.script = p.script[1:]
	return b
}

func (p *scriptFaults) Drop(uint64) bool  { return p.pop()%3 == 1 }
func (p *scriptFaults) Delay(uint64) bool { return p.pop()%3 == 2 }
func (p *scriptFaults) Reset(uint64) bool { return false }

// versionRig is one half of FuzzEpollVersions: a kernel whose two tasks
// hold the fd tables of a fork, sharing one epoll at fd 3, plus
// host-side client connections and four parked waiters, all driven by
// direct calls. Everything observable goes to log, in order.
type versionRig struct {
	k       *Kernel
	tasks   [2]*Task
	ep      *Epoll
	clients []*netstack.Endpoint
	waiters [4]*Task
	forget  bool // drop every cached miss before each poll
	round   int
	next    byte // payload byte counter: every byte written is distinct in sequence
	log     bytes.Buffer
}

func newVersionRig(plan []byte, faulty, forget bool) *versionRig {
	k := New(Config{})
	if faulty {
		k.Net.SetFaults(&scriptFaults{script: bytes.Clone(plan)})
	} else {
		k.Net.SetFaults(nil)
	}
	parent := &Task{ID: 1, Tgid: 1, Files: NewFDTable(), k: k}
	ep := NewEpoll()
	parent.Files.Alloc(&FD{Kind: FDEpoll, Epoll: ep})
	child := &Task{ID: 2, Tgid: 2, Files: parent.Files.clone(), k: k}
	return &versionRig{k: k, tasks: [2]*Task{parent, child}, ep: ep, forget: forget}
}

func (r *versionRig) logf(format string, args ...any) {
	fmt.Fprintf(&r.log, format, args...)
	r.log.WriteByte('\n')
}

// payload returns n fresh bytes.
func (r *versionRig) payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = r.next
		r.next++
	}
	return p
}

// transferSize decodes a transfer size: small, or a large one that can
// fill a receive buffer.
func transferSize(b byte) int {
	if b&0x80 != 0 {
		return int(b&0x3f+1) * 8192
	}
	return int(b%16) + 1
}

func digest(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func (r *versionRig) sock(t *Task, fd byte) *netstack.Endpoint {
	if f, ok := t.Files.Get(int(fd % 12)); ok && f.Kind == FDSocket {
		return f.Sock
	}
	return nil
}

func (r *versionRig) client(b byte) *netstack.Endpoint {
	if len(r.clients) == 0 {
		return nil
	}
	return r.clients[int(b)%len(r.clients)]
}

// step runs one operation.
func (r *versionRig) step(op int, a []byte) {
	k := r.k
	t := r.tasks[a[0]%2]
	fd := int(a[1] % 12)
	switch op {
	case vopSocket:
		fd := t.Files.Alloc(&FD{Kind: FDSocket, Nonblock: true, bound: true, boundPort: 80 + uint16(a[1]%2)})
		r.logf("socket %d", fd)
	case vopListen:
		r.logf("listen %d: %d", fd, k.sysListen(t, [6]uint64{uint64(fd), 4}).ret)
	case vopConnect:
		c, err := k.Net.Connect(80 + uint16(a[0]%2))
		if err == nil {
			r.clients = append(r.clients, c)
		}
		r.logf("connect: %v", err)
	case vopAccept:
		r.logf("accept %d: %d", fd, k.sysAccept(t, [6]uint64{uint64(fd), 0, 0, ONonblock}).ret)
	case vopClose:
		r.logf("close %d: %v", fd, t.Files.Close(fd))
	case vopDup2:
		r.logf("dup2 %d %d: %d", fd, a[2]%12, k.sysDup2(t, [6]uint64{uint64(fd), uint64(a[2] % 12)}).ret)
	case vopCtl:
		events := [3]uint32{EpollIn, EpollOut, EpollIn | EpollOut}[a[2]%3]
		r.logf("ctl %d %d %#x: %v", 1+a[0]%3, fd, events, r.ep.Ctl(1+int(a[0]%3), fd, events))
	case vopSrvWrite:
		if s := r.sock(t, a[1]); s != nil {
			n, err := s.Write(r.payload(transferSize(a[2])))
			r.logf("write %d: %d %v", fd, n, err)
		}
	case vopSrvRead:
		if s := r.sock(t, a[1]); s != nil {
			r.read(fmt.Sprintf("read %d", fd), s, transferSize(a[2]), a[3]&1 != 0)
		}
	case vopSrvRST:
		if s := r.sock(t, a[1]); s != nil {
			s.InjectRST()
			r.logf("rst %d", fd)
		}
	case vopCliWrite:
		if c := r.client(a[0]); c != nil {
			n, err := c.Write(r.payload(transferSize(a[1])))
			r.logf("client write: %d %v", n, err)
		}
	case vopCliRead:
		if c := r.client(a[0]); c != nil {
			r.read("client read", c, transferSize(a[1]), a[2]&1 != 0)
		}
	case vopCliEnd:
		if c := r.client(a[0]); c != nil {
			if a[1]&1 != 0 {
				c.InjectRST()
			} else {
				c.Close()
			}
			r.logf("client end %d", a[1]&1)
		}
	case vopPark:
		r.park(a)
	case vopRound:
		r.pollRound(a[0])
	}
}

func (r *versionRig) read(what string, e *netstack.Endpoint, n int, discard bool) {
	if discard {
		got, err := e.Discard(n)
		r.logf("%s: discarded %d %v", what, got, err)
		return
	}
	p := make([]byte, n)
	got, err := e.Read(p)
	r.logf("%s: %d bytes %#x %v", what, got, digest(p[:got]), err)
}

// park parks waiter a[0] on an epoll wait through one of the tables, or
// on the readiness of a socket, listener or client endpoint.
func (r *versionRig) park(a []byte) {
	i := a[0] % 4
	w := &Task{ID: 10 + int(i), Tgid: 1, state: TaskBlocked, k: r.k}
	t := r.tasks[a[2]%2]
	w.Files = t.Files
	want := [2]netstack.Readiness{netstack.ReadyIn | netstack.ReadyHup, netstack.ReadyOut | netstack.ReadyHup}[a[4]%2]
	switch a[1] % 3 {
	case 0:
		w.blocked = blockedState{kind: waitEpoll, epoll: r.ep}
	case 1:
		f, ok := t.Files.Get(int(a[3] % 12))
		switch {
		case ok && f.Kind == FDSocket && f.Sock != nil:
			w.blocked = blockedState{kind: waitPollable, obj: f.Sock, want: want}
		case ok && f.Kind == FDListener:
			w.blocked = blockedState{kind: waitPollable, obj: f.Listener, want: netstack.ReadyIn | netstack.ReadyHup}
		default:
			r.logf("park %d: nothing at fd %d", i, a[3]%12)
			return
		}
	case 2:
		c := r.client(a[2])
		if c == nil {
			r.logf("park %d: no client", i)
			return
		}
		w.blocked = blockedState{kind: waitPollable, obj: c, want: want}
	}
	r.waiters[i] = w
	r.logf("park %d: kind %d", i, w.blocked.kind)
}

// pollRound is one scheduling round's worth of polls: the shared epoll
// through the parent's table, the child's or both (bits 2-3 of how: 0,
// 1, else both), with an event limit of 1-4 (bits 0-1), then every
// parked waiter.
func (r *versionRig) pollRound(how byte) {
	r.round++
	limit := 1 + int(how%4)
	for i, t := range r.tasks {
		if sel := how / 4 % 4; sel < 2 && int(sel) != i {
			continue
		}
		if r.forget {
			forgetMisses(r.ep, nil)
		}
		r.logf("round %d epoll via table %d: %v", r.round, i, r.k.epollReady(t, r.ep, limit, nil))
	}
	for i, w := range r.waiters {
		if w == nil || w.state != TaskBlocked {
			continue
		}
		if r.forget {
			forgetMisses(r.ep, w)
		}
		if r.k.blockedReady(w) {
			w.state = TaskRunnable
			r.logf("round %d: waiter %d wakes", r.round, i)
		}
	}
}

// runVersionRig runs prog (after its fault-plan header) on one rig.
func runVersionRig(prog []byte, forget bool) string {
	var plan []byte
	faulty := len(prog) > 0 && prog[0] != 0
	if faulty {
		n := min(int(prog[0]-1), len(prog)-1)
		plan, prog = prog[1:1+n], prog[1+n:]
	} else if len(prog) > 0 {
		prog = prog[1:]
	}
	r := newVersionRig(plan, faulty, forget)
	var args [5]byte
	for len(prog) > 0 {
		op := int(prog[0]) % vopCount
		prog = prog[1:]
		a := args[:]
		clear(a)
		n := copy(a[:vopArgs[op]], prog)
		prog = prog[n:]
		r.step(op, a)
	}
	r.pollRound(0xf) // the last word: what is ready after the whole program
	return r.log.String()
}

// vprog encodes a program: a fault-plan header (nil: no fault plan; an
// empty slice: a plan that never faults) and operations, each an
// opcode followed by its arguments.
func vprog(plan []byte, ops ...[]byte) []byte {
	var p []byte
	if plan == nil {
		p = []byte{0}
	} else {
		p = append([]byte{byte(len(plan) + 1)}, plan...)
	}
	for _, op := range ops {
		p = append(p, op...)
	}
	return p
}

func vop(op byte, args ...byte) []byte { return append([]byte{op}, args...) }

// Seed programs, one per version rule. Parent-table fds: 3 the epoll,
// 4 a listening socket on port 80 (listenOn), 5 its first accepted
// connection (accepted), whose client is client 0.
var (
	listenOn = [][]byte{vop(vopSocket, 0, 0), vop(vopListen, 0, 4)}
	accepted = cat(listenOn, [][]byte{vop(vopConnect, 0), vop(vopAccept, 0, 4)})
	round    = vop(vopRound, 3)      // through the parent's table
	both     = vop(vopRound, 3|2<<2) // through both tables
)

func cat(parts ...[][]byte) [][]byte {
	var out [][]byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var versionSeeds = map[string][]byte{
	// A queued connection, then data, wake a watch that missed; fd 5 is
	// watched before accept allocates it.
	"connect, alloc and write": vprog(nil, cat(listenOn, [][]byte{
		vop(vopCtl, 0, 4, 0), round, vop(vopConnect, 0), round,
		vop(vopCtl, 0, 5, 0), round, vop(vopAccept, 0, 4), round,
		vop(vopCliWrite, 0, 5), round, vop(vopSrvRead, 0, 5, 15, 0), round,
	})...),
	// A full socket becomes writable once the client drains it, by read
	// and by discard.
	"drain": vprog(nil, cat(accepted, [][]byte{
		vop(vopCtl, 0, 5, 1), vop(vopSrvWrite, 0, 5, 0xbf), round,
		vop(vopCliRead, 0, 0x9f, 0), round, vop(vopSrvWrite, 0, 5, 0xbf), round,
		vop(vopCliRead, 0, 0x9f, 1), round,
	})...),
	// Dropped and delayed segments age one step per poll and are
	// delivered while the reader's watch and waiter keep polling.
	"staged segments": vprog([]byte{1, 0, 2, 1, 0, 0, 2}, cat(accepted, [][]byte{
		vop(vopCtl, 0, 5, 0), vop(vopPark, 0, 1, 0, 5, 0), round,
		vop(vopCliWrite, 0, 3), round, round, vop(vopSrvRead, 0, 5, 15, 0), round,
		vop(vopCliWrite, 0, 3), round, vop(vopCliWrite, 0, 3), round, round,
		vop(vopSrvRead, 0, 5, 15, 1), round, round,
	})...),
	// A parked read is the only poller of a dropped segment: each of its
	// polls ages it until it is delivered.
	"staged segment, one poller": vprog([]byte{1}, cat(accepted, [][]byte{
		vop(vopPark, 0, 1, 0, 5, 0), round, vop(vopCliWrite, 0, 3), round, round, round,
	})...),
	// Closes and resets from either side wake both sides' waiters.
	"close and reset": vprog(nil, cat(accepted, [][]byte{
		vop(vopPark, 0, 2, 0, 0, 0), vop(vopPark, 1, 1, 0, 5, 0), round,
		vop(vopCliEnd, 0, 0), round,
		vop(vopConnect, 0), vop(vopAccept, 0, 4),
		vop(vopPark, 2, 2, 1, 0, 0), vop(vopPark, 3, 1, 0, 6, 0), round,
		vop(vopSrvRST, 0, 6), round,
		vop(vopConnect, 0), vop(vopAccept, 0, 4), vop(vopPark, 2, 2, 2, 0, 0), round,
		vop(vopCliEnd, 2, 1), round,
	})...),
	// The last close of a listener wakes an accept parked on it.
	"listener close": vprog(nil, cat(listenOn, [][]byte{
		vop(vopPark, 0, 1, 0, 4, 0), round, vop(vopClose, 0, 4), round,
	})...),
	// dup2 onto a watched, unused fd; listen on a watched socket.
	"dup2 and listen": vprog(nil,
		vop(vopSocket, 0, 0), vop(vopCtl, 0, 4, 0), round, vop(vopListen, 0, 4),
		vop(vopConnect, 0), round,
		vop(vopCtl, 0, 9, 0), round, vop(vopDup2, 0, 4, 9), round,
		vop(vopClose, 0, 4), round, vop(vopAccept, 0, 9), round,
	),
	// MOD drops a miss recorded under the old mask.
	"mod": vprog(nil, cat(accepted, [][]byte{
		vop(vopCtl, 0, 5, 0), round, vop(vopCtl, 2, 5, 1), round,
	})...),
	// The child's table has nothing at fd 5, so its misses say nothing
	// about the parent's; at fd 4 it holds a listener of its own (port
	// 81) where the parent holds its port-80 one.
	"fork": vprog(nil, cat(accepted, [][]byte{
		vop(vopCtl, 0, 5, 1), both, both,
		vop(vopCtl, 0, 4, 0), vop(vopSocket, 1, 1), vop(vopConnect, 0), both, both,
		vop(vopListen, 1, 4), both, vop(vopConnect, 1), both, vop(vopAccept, 0, 4), both,
	})...),
}

// FuzzEpollVersions: skipping the polls whose cached miss still holds
// changes nothing. Two rigs run the same program; one drops every cached
// miss before each poll. Event lists, wake rounds and every byte moved
// must agree.
func FuzzEpollVersions(f *testing.F) {
	for _, p := range versionSeeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return // long programs only repeat what short ones reach
		}
		cached, full := runVersionRig(prog, false), runVersionRig(prog, true)
		if cached != full {
			t.Fatalf("cached polls diverge from full polls:\n%s", firstDiff(cached, full))
		}
	})
}

// TestEpollVersionSeeds runs each seed program by name and checks that
// it observes something: a seed that never wakes anything tests nothing.
func TestEpollVersionSeeds(t *testing.T) {
	for name, p := range versionSeeds {
		t.Run(name, func(t *testing.T) {
			cached, full := runVersionRig(p, false), runVersionRig(p, true)
			if cached != full {
				t.Fatalf("cached polls diverge from full polls:\n%s", firstDiff(cached, full))
			}
			if !strings.Contains(full, "wakes") && !strings.Contains(full, "{") {
				t.Errorf("seed observes no event or wake:\n%s", full)
			}
		})
	}
}

// firstDiff shows where two logs part, with the lines before it.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < max(len(la), len(lb)); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			var ctx bytes.Buffer
			for j := max(0, i-6); j < i; j++ {
				fmt.Fprintf(&ctx, "    %s\n", la[j])
			}
			fmt.Fprintf(&ctx, "cached: %s\nfull:   %s", x, y)
			return ctx.String()
		}
	}
	return "(equal)"
}

// TestVersionBumps: the fd table's version moves when a descriptor number
// comes to name a description — Alloc, Install (dup2's) — and when listen
// turns a socket into a listener in place. (The netstack's objects have a
// test of the same name for theirs.)
func TestVersionBumps(t *testing.T) {
	k := New(Config{})
	task := &Task{ID: 1, Tgid: 1, Files: NewFDTable(), k: k}
	moves := func(what string, op func()) {
		t.Helper()
		before := task.Files.ver
		op()
		if task.Files.ver == before {
			t.Errorf("%s: fd table version %d did not move", what, before)
		}
	}
	var fd int
	moves("alloc", func() { fd = task.Files.Alloc(&FD{Kind: FDSocket, bound: true, boundPort: 80}) })
	moves("dup2", func() {
		if res := k.sysDup2(task, [6]uint64{uint64(fd), 9}); res.ret != 9 {
			t.Fatalf("dup2 = %+v", res)
		}
	})
	moves("listen", func() {
		if res := k.sysListen(task, [6]uint64{uint64(fd), 4}); res.ret != 0 {
			t.Fatalf("listen = %+v", res)
		}
	})
}
