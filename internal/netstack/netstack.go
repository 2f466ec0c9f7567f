// Package netstack implements the loopback-only network substrate the
// simulated web servers are benchmarked against: stream sockets with
// listen/accept/connect, bounded receive buffers, peer shutdown
// semantics, and version-stamped readiness the kernel's epoll and
// blocking-syscall machinery poll again only after it moves.
//
// The wrk-like load generator (package webbench) drives the client side
// of these sockets directly from Go, which mirrors the paper's setup: the
// client runs on separate cores (taskset) and is never part of the
// measured system.
package netstack

import (
	"errors"
	"fmt"
)

// Readiness is a poll-style event mask.
type Readiness uint8

// Readiness bits.
const (
	ReadyIn  Readiness = 1 << iota // data (or a pending connection) to read
	ReadyOut                       // writable
	ReadyHup                       // peer closed
)

// Errors.
var (
	ErrAddrInUse   = errors.New("netstack: address already in use") // EADDRINUSE
	ErrConnRefused = errors.New("netstack: connection refused")     // ECONNREFUSED
	ErrWouldBlock  = errors.New("netstack: operation would block")  // EAGAIN
	ErrClosed      = errors.New("netstack: endpoint closed")        // EBADF
	ErrPipe        = errors.New("netstack: broken pipe")            // EPIPE
	ErrReset       = errors.New("netstack: connection reset")       // ECONNRESET
	ErrBacklogFull = errors.New("netstack: accept backlog full")    // (dropped SYN)
)

// FaultPlan is the deterministic fault-injection interface the kernel
// wires to its chaos engine. Each established connection gets a stable
// id (assigned in Connect order, which is an application-level event
// sequence); the plan must be a pure function of its own state and the
// query sequence — netstack never feeds it time or randomness.
type FaultPlan interface {
	// Drop reports whether to drop this outgoing segment. The segment
	// is retransmitted rather than lost (reliable stream): delivery is
	// deferred by two reader polls.
	Drop(connID uint64) bool
	// Delay reports whether to delay this outgoing segment by one
	// reader poll.
	Delay(connID uint64) bool
	// Reset reports whether to inject an RST on this connection,
	// hard-closing both sides and discarding in-flight data.
	Reset(connID uint64) bool
}

// RecvBufSize is the per-endpoint receive buffer capacity. Writers block
// (EAGAIN) when the peer's buffer is full, which gives the web server
// benchmark realistic backpressure.
const RecvBufSize = 256 * 1024

// Pollable is anything epoll or a blocking syscall can wait on.
//
// Readiness is version-stamped: a waiter whose poll missed polls again
// only once Version has moved past the version that poll returned, and
// only if that poll was settled (DESIGN.md §5).
type Pollable interface {
	// Poll returns the current readiness, the version read before it,
	// and settled: false while a fault-held segment is still on its way
	// here, which each poll ages — a poll that is not settled has an
	// effect of its own and must not be skipped.
	Poll() (r Readiness, ver uint64, settled bool)
	// Version moves after every change that can turn a missed poll into
	// a hit.
	Version() uint64
}

// StackStats counts stack-wide events for the telemetry layer. Counting
// is unconditional and purely observational.
type StackStats struct {
	// Accepted counts connections placed into an accept queue.
	Accepted uint64
	// BacklogDrops counts connection attempts refused because the
	// listener's accept queue was full.
	BacklogDrops uint64
	// SegsDropped / SegsDelayed / Resets count fault-plan injections.
	SegsDropped uint64
	SegsDelayed uint64
	Resets      uint64
	// AcceptHighWater / RecvHighWater are the deepest accept queue and
	// fullest receive buffer observed.
	AcceptHighWater uint64
	RecvHighWater   uint64
}

// Stack is one loopback network namespace, owned by one simulated
// machine.
type Stack struct {
	listeners map[uint16]*Listener // the bound listeners by port

	// nextConn allocates connection ids. Ids are assigned only when a
	// connection is actually established (inside Listener.enqueue): a
	// refused or backlog-dropped dial must not consume an id, or it
	// would shift the per-connection fault-plan streams of every later
	// connection — a restart drill that provokes refused dials would
	// perturb the fault schedule of unrelated connections.
	nextConn uint64

	faults FaultPlan

	stats StackStats
}

// Stats exposes the stack's counters. The pointer stays valid for the
// stack's lifetime.
func (s *Stack) Stats() *StackStats { return &s.stats }

// NewStack returns an empty stack.
func NewStack() *Stack {
	return &Stack{listeners: make(map[uint16]*Listener)}
}

// SetFaults installs a fault plan on the stack. Connections established
// after the call carry it; pipes (NewPipe) never do — packet faults are
// a network phenomenon.
func (s *Stack) SetFaults(f FaultPlan) { s.faults = f }

// Faults returns the installed fault plan (nil if none). Layers that
// stack their own plan on top — the fleet drill injector wrapping the
// chaos engine's plan — use it to capture the inner plan.
func (s *Stack) Faults() FaultPlan { return s.faults }

// Listen binds a listener to port.
func (s *Stack) Listen(port uint16, backlog int) (*Listener, error) {
	if backlog <= 0 {
		backlog = 128
	}
	if _, ok := s.listeners[port]; ok {
		return nil, fmt.Errorf("%w: port %d", ErrAddrInUse, port)
	}
	l := &Listener{stack: s, port: port, backlog: backlog, refs: 1}
	s.listeners[port] = l
	return l, nil
}

// Connect opens a client connection to port, returning the client-side
// endpoint. The server side lands in the listener's accept queue. The
// connection id (which keys the fault plan's per-connection streams) is
// assigned inside enqueue, so refused and backlog-dropped dials never
// consume one.
func (s *Stack) Connect(port uint16) (*Endpoint, error) {
	l, ok := s.listeners[port]
	if !ok {
		return nil, fmt.Errorf("%w: port %d", ErrConnRefused, port)
	}
	client, server := newPair()
	client.faults, server.faults = s.faults, s.faults
	client.stats, server.stats = &s.stats, &s.stats
	if err := l.enqueue(server); err != nil {
		return nil, err
	}
	s.stats.Accepted++
	return client, nil
}

// Listener is a bound, listening socket.
type Listener struct {
	// ver is the listener's readiness version: a connection queued and
	// the close move it.
	ver     uint64
	stack   *Stack
	port    uint16
	backlog int

	queue  []*Endpoint
	closed bool
	refs   int
}

func (l *Listener) enqueue(e *Endpoint) error {
	stats := &l.stack.stats
	if l.closed {
		return ErrConnRefused
	}
	if len(l.queue) >= l.backlog {
		stats.BacklogDrops++
		return ErrBacklogFull
	}
	// The connection is established: assign its id now.
	l.stack.nextConn++
	e.connID, e.peer.connID = l.stack.nextConn, l.stack.nextConn
	l.queue = append(l.queue, e)
	stats.AcceptHighWater = max(stats.AcceptHighWater, uint64(len(l.queue)))
	l.ver++
	return nil
}

// Accept dequeues a pending connection, or ErrWouldBlock.
func (l *Listener) Accept() (*Endpoint, error) {
	if l.closed {
		return nil, ErrClosed
	}
	if len(l.queue) == 0 {
		return nil, ErrWouldBlock
	}
	e := l.queue[0]
	l.queue = l.queue[1:]
	return e, nil
}

// AddRef registers another descriptor referencing this listener.
func (l *Listener) AddRef() { l.refs++ }

// Close drops one reference; the listener unbinds and refuses pending
// connections when the last reference is gone.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	if l.refs > 1 {
		l.refs--
		return
	}
	l.refs = 0
	l.closed = true
	pending := l.queue
	l.queue = nil
	delete(l.stack.listeners, l.port)
	for _, e := range pending {
		e.Close()
	}
	l.ver++
}

// Ready reports ReadyIn when a connection is waiting.
func (l *Listener) Ready() Readiness {
	var r Readiness
	if len(l.queue) > 0 {
		r |= ReadyIn
	}
	if l.closed {
		r |= ReadyHup
	}
	return r
}

// Poll implements Pollable. A listener holds nothing in flight, so its
// polls are always settled.
func (l *Listener) Poll() (Readiness, uint64, bool) { return l.Ready(), l.ver, true }

// Version implements Pollable.
func (l *Listener) Version() uint64 { return l.ver }

// Port returns the bound port.
func (l *Listener) Port() uint16 { return l.port }

// Endpoint is one side of an established stream connection. Endpoints
// are reference counted: fork and dup duplicate descriptors that share
// one endpoint, and the connection only really closes when the last
// reference drops (Linux file-description semantics).
type Endpoint struct {
	// ver is the endpoint's readiness version. It moves after data is
	// written into this side's buffer, after the peer drains this side's
	// writes, after either side closes or resets, and when the peer
	// stages a segment toward this side. Delivering a staged segment
	// needs no move of its own: the staging moved ver, and no poll made
	// while a segment is in flight is settled, so no miss recorded
	// before the delivery can still hold.
	ver uint64

	rx     rxQueue // receive buffer
	peer   *Endpoint
	closed bool
	reset  bool // hard-closed by an injected RST
	refs   int

	// Fault injection: faults/connID are set by Stack.Connect (nil for
	// pipes). stage holds outgoing segments whose delivery the fault
	// plan deferred; the receiving side ages them, one poll per tick,
	// and order is always preserved (a reliable stream never reorders).
	faults FaultPlan
	connID uint64
	stage  []stagedSegment

	// stats points at the owning stack's counters (nil for pipes).
	stats *StackStats

	// traceCtx is the request-plane trace context (internal/otrace's
	// trace|attempt word) most recently stamped for this endpoint's
	// reader. Writers stamp their peer before sending a request so the
	// serving side can attribute the syscalls it runs to the request it
	// is handling. A plain word with no behavioural coupling: stamping
	// never blocks, wakes, or reorders anything, so the request plane
	// stays inert when no tracer consumes the values.
	traceCtx uint64
}

// TraceCtx reads the endpoint's current trace context (0 = none).
func (e *Endpoint) TraceCtx() uint64 { return e.traceCtx }

// StampPeerTraceCtx stamps the peer endpoint — the side that will read
// the bytes being written — with the given context. Safe on closed or
// peerless endpoints.
func (e *Endpoint) StampPeerTraceCtx(ctx uint64) {
	if e.peer != nil {
		e.peer.traceCtx = ctx
	}
}

// stagedSegment is an in-flight segment awaiting (re)delivery. data never
// changes — a sealed source's bytes or a private copy — so delivery
// queues it by reference.
type stagedSegment struct {
	data []byte
	hold int // reader polls remaining before delivery
}

func newPair() (a, b *Endpoint) {
	a, b = &Endpoint{refs: 1}, &Endpoint{refs: 1}
	a.peer, b.peer = b, a
	return a, b
}

// AddRef registers another descriptor referencing this endpoint.
func (e *Endpoint) AddRef() { e.refs++ }

// NewPipe returns a connected endpoint pair used as a unidirectional
// pipe: read from the first, write to the second. (Both directions work
// — it is a socketpair — but the kernel labels the ends.)
func NewPipe() (readEnd, writeEnd *Endpoint) {
	return newPair()
}

// Read drains up to len(p) bytes from the receive buffer. It returns
// (0, nil) for EOF (peer closed, buffer drained) and ErrWouldBlock when
// no data is available yet.
func (e *Endpoint) Read(p []byte) (int, error) { return e.read(p, len(p)) }

// Discard is Read without a destination: it drains up to max bytes and
// throws them away, with Read's results, staged-segment ticks and wakes.
// Load drivers that only count response bytes use it.
func (e *Endpoint) Discard(max int) (int, error) { return e.read(nil, max) }

// read is Read's and Discard's body: up to n bytes, copied into p unless
// p is nil.
func (e *Endpoint) read(p []byte, n int) (int, error) {
	e.tickStaged()
	if err := e.closedErr(); err != nil {
		return 0, err
	}
	if e.rx.len() == 0 {
		if e.peer == nil || e.peer.closed {
			return 0, nil // EOF
		}
		return 0, ErrWouldBlock
	}
	n = e.rx.read(p, n)
	if e.peer != nil {
		// Our buffer drained: the peer may be writable again.
		e.peer.ver++
	}
	return n, nil
}

// Write copies p into the peer's receive buffer (or, when the fault plan
// holds the segment back, into a slice the staged segment owns; p is
// never retained). It returns ErrPipe if the peer is gone, ErrWouldBlock
// when the peer's buffer is full, and ErrReset when the fault plan
// injects an RST on the connection. It may take a prefix of p: the
// returned count is what was sent.
func (e *Endpoint) Write(p []byte) (int, error) { return e.write(segment{p: p}, len(p)) }

// WriteFrom is Write with the bytes read from src at off instead of
// passed in: up to n of them are read straight into the peer's receive
// buffer, so a file or a guest buffer reaches the reader with one copy —
// or none, when src lends them (Source.SealedExtent): they are then
// queued (or held back by the fault plan) by reference, and a reader's
// Read copies them out once while Discard, Close and a reset drop them
// untouched. It returns fewer than n when src holds fewer, and src's
// error, with nothing sent, when the read fails.
func (e *Endpoint) WriteFrom(src Source, off uint64, n int) (int, error) {
	return e.write(segment{src: src, off: off}, n)
}

// write is Write's and WriteFrom's body. Its order is the contract
// sendfile relies on (DESIGN.md §7): fault-plan Reset, dead peer,
// space, Drop/Delay, then staging or delivery.
func (e *Endpoint) write(seg segment, n int) (int, error) {
	if err := e.closedErr(); err != nil {
		return 0, err
	}
	peer, faults := e.peer, e.faults
	if faults != nil && faults.Reset(e.connID) {
		if e.stats != nil {
			e.stats.Resets++
		}
		e.injectReset()
		return 0, ErrReset
	}
	if peer == nil || peer.closed {
		return 0, ErrPipe
	}
	space := peer.space()
	if space <= 0 {
		return 0, ErrWouldBlock
	}
	n = min(n, space)

	// Fault plan: drop (retransmit after two reader polls) or delay
	// (one poll) this segment. A segment also stages, with no extra
	// hold, whenever earlier segments are still in flight — a stream
	// never reorders.
	hold := 0
	if faults != nil {
		if faults.Drop(e.connID) {
			hold = 2
			if e.stats != nil {
				e.stats.SegsDropped++
			}
		} else if faults.Delay(e.connID) {
			hold = 1
			if e.stats != nil {
				e.stats.SegsDelayed++
			}
		}
	}
	ext, byRef := seg.sealed(n)
	if hold > 0 || len(e.stage) > 0 {
		// A held segment is delivered by reference: the source's own
		// bytes when it lends them, else a private copy nobody changes.
		data := ext
		if !byRef {
			data = make([]byte, n)
			got, err := seg.readAt(data, 0)
			if err != nil {
				return 0, err
			}
			data = data[:got]
		}
		e.stage = append(e.stage, stagedSegment{data: data, hold: hold})
		// Accepted into the send buffer. The peer's polls now age it, so
		// none of them may be skipped until it is delivered.
		peer.ver++
		return len(data), nil
	}

	var got int
	var err error
	if byRef {
		peer.rx.hold(ext)
		got = len(ext)
	} else {
		got, err = peer.rx.fill(seg, n)
	}
	if err != nil {
		return 0, err
	}
	if e.stats != nil {
		e.stats.RecvHighWater = max(e.stats.RecvHighWater, uint64(peer.rx.len()))
	}
	peer.ver++
	return got, nil
}

// WriteSpace reports how many bytes a Write could hand the peer right
// now: the room in its receive buffer, 0 when that is full (or overfull).
// It is for sizing a transfer before producing its bytes and decides
// nothing — it asks no fault plan and reports no closed or reset state;
// the Write that follows does, also when given no bytes at all.
func (e *Endpoint) WriteSpace() int {
	if e.peer == nil {
		return 0
	}
	return max(e.peer.space(), 0)
}

// tickStaged ages the segments the fault plan is holding back on the
// peer (the writer of data flowing toward e) and delivers any that are
// due. Called from the reading side's Read and Poll, so delay is
// measured in reader polls — deterministic virtual time, no wall clock.
// It reports whether nothing is left in flight toward e.
func (e *Endpoint) tickStaged() (settled bool) {
	// Only a fault plan holds segments back. faults and peer are set
	// before the endpoint is published and never change.
	w := e.peer
	if e.faults == nil || w == nil {
		return true
	}
	if len(w.stage) == 0 {
		return true
	}
	w.stage[0].hold-- // only the head ages: in-order delivery
	delivered := false
	for len(w.stage) > 0 && w.stage[0].hold <= 0 {
		// A closed endpoint keeps no buffer: nobody can read these.
		if !e.closed {
			e.rx.hold(w.stage[0].data)
			delivered = true
		}
		w.stage = w.stage[1:]
	}
	if delivered && e.stats != nil {
		e.stats.RecvHighWater = max(e.stats.RecvHighWater, uint64(e.rx.len()))
	}
	return len(w.stage) == 0
}

// injectReset hard-closes both sides of the connection, discarding
// buffered and in-flight data — RST semantics. Descriptor reference
// counts are irrelevant: a reset kills the connection, not the fds.
func (e *Endpoint) injectReset() {
	e.hardClose()
	if e.peer != nil {
		e.peer.hardClose()
	}
}

// hardClose is one side of injectReset.
func (e *Endpoint) hardClose() {
	e.refs = 0
	e.closed = true
	e.reset = true
	e.rx.release()
	e.stage = nil
	e.ver++
}

// ConnID returns the connection id assigned when the connection was
// established (0 for pipes). Fault plans key their per-connection streams
// on it, and the fleet layer uses it to target drill faults at the
// connections of one backend.
func (e *Endpoint) ConnID() uint64 { return e.connID }

// InjectRST hard-closes the connection as if an RST arrived from the
// network: both sides close immediately and all buffered and in-flight
// data is discarded. The fleet chaos drills use it to mount RST storms.
func (e *Endpoint) InjectRST() {
	if e.stats != nil {
		e.stats.Resets++
	}
	e.injectReset()
}

// Close drops one reference; the endpoint shuts down (waking both
// sides) when the last reference is gone.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	if e.refs > 1 {
		e.refs--
		return
	}
	e.refs = 0
	e.closed = true
	e.rx.release() // unread input dies with the last descriptor
	peer := e.peer
	// FIN queues behind in-flight data: anything the fault plan was
	// still holding is delivered before the peer can observe the close.
	if peer != nil && !peer.closed {
		for _, seg := range e.stage {
			peer.rx.hold(seg.data)
		}
	}
	e.stage = nil
	e.ver++
	if peer != nil {
		peer.ver++
	}
}

// closedErr is the error of an operation on a closed endpoint: ErrReset
// after an injected RST, else ErrClosed; nil while it is open.
func (e *Endpoint) closedErr() error {
	switch {
	case !e.closed:
		return nil
	case e.reset:
		return ErrReset
	}
	return ErrClosed
}

// Buffered returns the number of bytes waiting to be read.
func (e *Endpoint) Buffered() int { return e.rx.len() }

// Ready returns the current readiness mask: Poll without the version.
func (e *Endpoint) Ready() Readiness {
	r, _, _ := e.Poll()
	return r
}

// Poll implements Pollable. Each poll ages fault-delayed segments headed
// this way, so a blocked reader's periodic polling is exactly what "time"
// means for delivery.
func (e *Endpoint) Poll() (Readiness, uint64, bool) {
	ver := e.ver
	settled := e.tickStaged()
	var r Readiness
	if e.rx.len() > 0 {
		r |= ReadyIn
	}
	switch {
	case e.closed || e.peer == nil:
		r |= ReadyHup
	case e.peer.closed:
		r |= ReadyIn | ReadyHup // EOF is readable
	case e.peer.space() > 0:
		r |= ReadyOut
	}
	return r, ver, settled
}

// Version implements Pollable.
func (e *Endpoint) Version() uint64 { return e.ver }

func (e *Endpoint) space() int { return RecvBufSize - e.rx.len() }

var (
	_ Pollable = (*Endpoint)(nil)
	_ Pollable = (*Listener)(nil)
)
