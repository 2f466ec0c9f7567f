// Package netstack implements the loopback-only network substrate the
// simulated web servers are benchmarked against: stream sockets with
// listen/accept/connect, bounded receive buffers, peer shutdown
// semantics, and edge-notified readiness that the kernel's epoll and
// blocking-syscall machinery subscribe to.
//
// The wrk-like load generator (package webbench) drives the client side
// of these sockets directly from Go, which mirrors the paper's setup: the
// client runs on separate cores (taskset) and is never part of the
// measured system.
package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
type Pollable interface {
	// Ready returns the current readiness mask.
	Ready() Readiness
	// Subscribe registers fn to be called (with no locks held) whenever
	// readiness may have changed. The returned cancel removes it.
	Subscribe(fn func()) (cancel func())
}

// notifier implements Subscribe/wakeup bookkeeping.
//
// Subscriptions live in an append-ordered slice rather than a map:
// wake() fires in subscription order (ids are handed out increasing, so
// slice order IS ascending-id order — the same deterministic order the
// old sorted-map implementation produced), and the hot wake path takes
// only a read lock and one allocation instead of building and sorting an
// id list per event. With a fleet of servers sharing one stack, many
// endpoints wake concurrently; wakers only ever serialise against
// subscribe/cancel on the same object, never against each other.
type notifier struct {
	mu   sync.RWMutex
	subs []notifSub
	next int
}

type notifSub struct {
	id int
	fn func()
}

func (n *notifier) Subscribe(fn func()) func() {
	n.mu.Lock()
	id := n.next
	n.next++
	n.subs = append(n.subs, notifSub{id: id, fn: fn})
	n.mu.Unlock()
	return func() {
		n.mu.Lock()
		for i, s := range n.subs {
			if s.id == id {
				n.subs = append(n.subs[:i:i], n.subs[i+1:]...)
				break
			}
		}
		n.mu.Unlock()
	}
}

func (n *notifier) wake() {
	// Fire in subscription order: with several epoll instances subscribed
	// to one object (pre-forked workers sharing a listener), any other
	// order would make wake order — and therefore measured cycle counts
	// on heavily loaded cells — nondeterministic across runs.
	n.mu.RLock()
	fns := make([]func(), len(n.subs))
	for i, s := range n.subs {
		fns[i] = s.fn
	}
	n.mu.RUnlock()
	for _, fn := range fns {
		fn()
	}
}

// StackStats counts stack-wide events for the telemetry layer. All
// fields are atomics: endpoints update them without holding stack
// locks, and snapshots may race with the simulation. Counting is
// unconditional and purely observational.
type StackStats struct {
	// Accepted counts connections placed into an accept queue.
	Accepted atomic.Uint64
	// BacklogDrops counts connection attempts refused because the
	// listener's accept queue was full.
	BacklogDrops atomic.Uint64
	// SegsDropped / SegsDelayed / Resets count fault-plan injections.
	SegsDropped atomic.Uint64
	SegsDelayed atomic.Uint64
	Resets      atomic.Uint64
	// AcceptHighWater / RecvHighWater are the deepest accept queue and
	// fullest receive buffer observed.
	AcceptHighWater atomic.Uint64
	RecvHighWater   atomic.Uint64
}

func (s *StackStats) setMax(g *atomic.Uint64, v uint64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// stackShards is the number of independent locks the listener table is
// striped across (by port). A fleet of backend servers plus a load
// balancer and health probes all dial one stack; per-port-shard state
// keeps those paths from serialising on a single stack-wide mutex.
const stackShards = 16

// stackShard is one stripe of the listener table.
type stackShard struct {
	mu        sync.Mutex
	listeners map[uint16]*Listener
}

// Stack is one loopback network namespace.
type Stack struct {
	shards [stackShards]stackShard

	// nextConn allocates connection ids. Ids are assigned only when a
	// connection is actually established (inside Listener.enqueue, under
	// the listener lock): a refused or backlog-dropped dial must not
	// consume an id, or it would shift the per-connection fault-plan
	// streams of every later connection — a restart drill that provokes
	// refused dials would perturb the fault schedule of unrelated
	// connections.
	nextConn atomic.Uint64

	faultsMu sync.RWMutex
	faults   FaultPlan

	stats StackStats

	// hub is the stack's activity signal: a generation counter bumped on
	// every event that could unblock a parked scheduler (data written or
	// drained, a connection enqueued or closed, virtual time advanced).
	// Kernel.Run parks on it instead of busy-spinning when every task is
	// blocked but an external driver still holds a waiter registration.
	hub activityHub
}

// activityHub is a lost-wakeup-free park/notify primitive. A waiter
// captures the generation BEFORE scanning for work; if the scan comes up
// empty it parks on that generation, and any bump() after the capture —
// even one that raced with the scan — leaves gen != captured, so await
// returns immediately instead of sleeping through the event.
type activityHub struct {
	gen     atomic.Uint64
	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
}

func (h *activityHub) bump() {
	h.gen.Add(1)
	if h.waiters.Load() != 0 {
		h.mu.Lock()
		if h.cond != nil {
			h.cond.Broadcast()
		}
		h.mu.Unlock()
	}
}

func (h *activityHub) await(old uint64) {
	h.mu.Lock()
	if h.cond == nil {
		h.cond = sync.NewCond(&h.mu)
	}
	h.waiters.Add(1)
	for h.gen.Load() == old {
		h.cond.Wait()
	}
	h.waiters.Add(-1)
	h.mu.Unlock()
}

// ActivityGen returns the current activity generation. Capture it before
// scanning for runnable work; pass it to AwaitActivity if the scan finds
// none.
func (s *Stack) ActivityGen() uint64 { return s.hub.gen.Load() }

// AwaitActivity parks until the activity generation moves past old.
func (s *Stack) AwaitActivity(old uint64) { s.hub.await(old) }

// BumpActivity signals activity from outside the stack (the kernel's
// clock advance, an external waiter releasing its registration).
func (s *Stack) BumpActivity() { s.hub.bump() }

// AnyPendingAccepts reports whether any listener in the stack has a
// non-empty accept queue. The parallel scheduler calls it at round start
// to decide whether accept() ordering matters this round; the answer is
// a bool over all shards, so shard-map iteration order cannot leak into
// the result.
func (s *Stack) AnyPendingAccepts() bool {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, l := range sh.listeners {
			l.mu.Lock()
			depth := len(l.queue)
			l.mu.Unlock()
			if depth > 0 {
				sh.mu.Unlock()
				return true
			}
		}
		sh.mu.Unlock()
	}
	return false
}

// Stats exposes the stack's counters. The pointer stays valid for the
// stack's lifetime.
func (s *Stack) Stats() *StackStats { return &s.stats }

// NewStack returns an empty stack.
func NewStack() *Stack {
	s := &Stack{}
	for i := range s.shards {
		s.shards[i].listeners = make(map[uint16]*Listener)
	}
	return s
}

func (s *Stack) shard(port uint16) *stackShard {
	return &s.shards[int(port)%stackShards]
}

// SetFaults installs a fault plan on the stack. Connections established
// after the call carry it; pipes (NewPipe) never do — packet faults are
// a network phenomenon.
func (s *Stack) SetFaults(f FaultPlan) {
	s.faultsMu.Lock()
	s.faults = f
	s.faultsMu.Unlock()
}

// Faults returns the installed fault plan (nil if none). Layers that
// stack their own plan on top — the fleet drill injector wrapping the
// chaos engine's plan — use it to capture the inner plan.
func (s *Stack) Faults() FaultPlan {
	s.faultsMu.RLock()
	defer s.faultsMu.RUnlock()
	return s.faults
}

// Listen binds a listener to port.
func (s *Stack) Listen(port uint16, backlog int) (*Listener, error) {
	if backlog <= 0 {
		backlog = 128
	}
	sh := s.shard(port)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.listeners[port]; ok {
		return nil, fmt.Errorf("%w: port %d", ErrAddrInUse, port)
	}
	l := &Listener{stack: s, port: port, backlog: backlog, refs: 1}
	sh.listeners[port] = l
	return l, nil
}

// Connect opens a client connection to port, returning the client-side
// endpoint. The server side lands in the listener's accept queue. The
// connection id (which keys the fault plan's per-connection streams) is
// assigned inside enqueue, so refused and backlog-dropped dials never
// consume one.
func (s *Stack) Connect(port uint16) (*Endpoint, error) {
	sh := s.shard(port)
	sh.mu.Lock()
	l, ok := sh.listeners[port]
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: port %d", ErrConnRefused, port)
	}
	faults := s.Faults()
	client, server := newPair()
	client.faults, server.faults = faults, faults
	client.stats, server.stats = &s.stats, &s.stats
	client.hub, server.hub = &s.hub, &s.hub
	// Every Connect caller in the tree is host-side (load generators,
	// balancer upstreams, health probes) — guests only listen/accept.
	// Marked before enqueue publishes the pair, so the guest side can
	// read peer.hostSide without synchronisation.
	client.hostSide = true
	if err := l.enqueue(server); err != nil {
		return nil, err
	}
	s.stats.Accepted.Add(1)
	return client, nil
}

// Listener is a bound, listening socket.
type Listener struct {
	notif   notifier
	stack   *Stack
	port    uint16
	backlog int

	mu     sync.Mutex
	queue  []*Endpoint
	closed bool
	refs   int
}

func (l *Listener) enqueue(e *Endpoint) error {
	stats := l.stack.Stats()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrConnRefused
	}
	if len(l.queue) >= l.backlog {
		l.mu.Unlock()
		stats.BacklogDrops.Add(1)
		return ErrBacklogFull
	}
	// The connection is established: assign its id now, before either
	// side becomes visible to anyone else (the client endpoint has not
	// been returned to the dialer yet, and the server side only becomes
	// reachable through the queue append below, ordered by l.mu).
	connID := l.stack.nextConn.Add(1)
	e.connID = connID
	if e.peer != nil {
		e.peer.connID = connID
	}
	l.queue = append(l.queue, e)
	depth := uint64(len(l.queue))
	l.mu.Unlock()
	stats.setMax(&stats.AcceptHighWater, depth)
	l.notif.wake()
	l.stack.hub.bump()
	return nil
}

// Accept dequeues a pending connection, or ErrWouldBlock.
func (l *Listener) Accept() (*Endpoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
func (l *Listener) AddRef() {
	l.mu.Lock()
	l.refs++
	l.mu.Unlock()
}

// Close drops one reference; the listener unbinds and refuses pending
// connections when the last reference is gone.
func (l *Listener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if l.refs > 1 {
		l.refs--
		l.mu.Unlock()
		return
	}
	l.refs = 0
	l.closed = true
	pending := l.queue
	l.queue = nil
	l.mu.Unlock()

	sh := l.stack.shard(l.port)
	sh.mu.Lock()
	delete(sh.listeners, l.port)
	sh.mu.Unlock()
	for _, e := range pending {
		e.Close()
	}
	l.notif.wake()
}

// Ready reports ReadyIn when a connection is waiting.
func (l *Listener) Ready() Readiness {
	l.mu.Lock()
	defer l.mu.Unlock()
	var r Readiness
	if len(l.queue) > 0 {
		r |= ReadyIn
	}
	if l.closed {
		r |= ReadyHup
	}
	return r
}

// Subscribe implements Pollable.
func (l *Listener) Subscribe(fn func()) func() { return l.notif.Subscribe(fn) }

// Port returns the bound port.
func (l *Listener) Port() uint16 { return l.port }

// Endpoint is one side of an established stream connection. Endpoints
// are reference counted: fork and dup duplicate descriptors that share
// one endpoint, and the connection only really closes when the last
// reference drops (Linux file-description semantics).
type Endpoint struct {
	notif notifier

	mu     sync.Mutex
	rx     ring // receive buffer
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

	// hub points at the owning stack's activity hub (nil for pipes —
	// pipes are guest-driven, so a parked scheduler can never be waiting
	// on pipe activity). Read/Write/Close bump it.
	hub *activityHub

	// hostSide marks endpoints owned by host-side harness code (set by
	// Stack.Connect before the pair is published). sharedFork is set
	// when a descriptor referencing this endpoint is duplicated across a
	// fork boundary. Both feed the parallel scheduler's order-
	// sensitivity classification (kernel/parallel.go): I/O on a private
	// guest endpoint whose peer is the host commutes with other tasks'
	// work inside a round; everything else serializes.
	hostSide   bool
	sharedFork atomic.Bool

	// traceCtx is the request-plane trace context (internal/otrace's
	// trace|attempt word) most recently stamped for this endpoint's
	// reader. Writers stamp their peer before sending a request so the
	// serving side can attribute the syscalls it runs to the request it
	// is handling. A plain atomic word with no behavioural coupling:
	// stamping never blocks, wakes, or reorders anything, so the
	// request plane stays inert when no tracer consumes the values.
	traceCtx atomic.Uint64
}

// SetTraceCtx stamps this endpoint's trace context.
func (e *Endpoint) SetTraceCtx(ctx uint64) { e.traceCtx.Store(ctx) }

// TraceCtx reads the endpoint's current trace context (0 = none).
func (e *Endpoint) TraceCtx() uint64 { return e.traceCtx.Load() }

// MarkSharedAcrossFork records that a descriptor referencing this
// endpoint was duplicated across a fork boundary.
func (e *Endpoint) MarkSharedAcrossFork() { e.sharedFork.Store(true) }

// SharedAcrossFork reports whether the endpoint crossed a fork boundary.
func (e *Endpoint) SharedAcrossFork() bool { return e.sharedFork.Load() }

// PeerIsHost reports whether the peer endpoint is owned by host-side
// harness code (a load generator, balancer or probe) rather than by a
// guest task.
func (e *Endpoint) PeerIsHost() bool {
	e.mu.Lock()
	p := e.peer
	e.mu.Unlock()
	return p != nil && p.hostSide
}

// StampPeerTraceCtx stamps the peer endpoint — the side that will read
// the bytes being written — with the given context. Safe on closed or
// peerless endpoints.
func (e *Endpoint) StampPeerTraceCtx(ctx uint64) {
	e.mu.Lock()
	p := e.peer
	e.mu.Unlock()
	if p != nil {
		p.traceCtx.Store(ctx)
	}
}

// bumpHub signals stack-level activity (no-op for pipes). Called on
// every transition that could satisfy a parked scheduler's wait: data
// moved in either direction, a close, a reset.
func (e *Endpoint) bumpHub() {
	if e.hub != nil {
		e.hub.bump()
	}
}

// ring is an endpoint's receive buffer: a byte queue over one backing
// array that is kept for the life of the connection. Nothing is
// allocated until the first byte arrives (idle connections and unused
// pipe ends cost nothing); the array then doubles on demand up to
// RecvBufSize — all that Write's space check ever admits — and past it
// only for the one case that overfills by design, a close flushing held
// segments. Guarded by the owning endpoint's mu.
type ring struct {
	buf  []byte // backing array; len(buf) is the capacity
	head int    // index of the oldest unread byte
	n    int    // unread bytes
}

// minRingSize is the first backing array's size: room for a request
// line or a response header without a second allocation.
const minRingSize = 512

// write queues p, growing the backing array if p does not fit.
func (r *ring) write(p []byte) {
	if need := r.n + len(p); need > len(r.buf) {
		r.grow(need)
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	c := copy(r.buf[tail:], p)
	copy(r.buf, p[c:]) // the part that wraps
	r.n += len(p)
}

// grow moves the queue to the front of an array of at least need bytes.
func (r *ring) grow(need int) {
	size := max(2*len(r.buf), need, minRingSize)
	if size > RecvBufSize && need <= RecvBufSize {
		size = RecvBufSize
	}
	buf := make([]byte, size)
	c := copy(buf[:r.n], r.buf[r.head:])
	copy(buf[c:r.n], r.buf)
	r.buf, r.head = buf, 0
}

// read dequeues up to len(p) bytes into p.
func (r *ring) read(p []byte) int {
	n := min(len(p), r.n)
	c := copy(p[:n], r.buf[r.head:])
	copy(p[c:n], r.buf) // the part that wrapped
	r.n -= n
	r.head += n
	if r.n == 0 {
		// Restart an emptied queue at the front, so that the next
		// segment lands (and is read back) in one piece.
		r.head = 0
	} else if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	return n
}

// stagedSegment is an in-flight segment awaiting (re)delivery.
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
func (e *Endpoint) AddRef() {
	e.mu.Lock()
	e.refs++
	e.mu.Unlock()
}

// NewPipe returns a connected endpoint pair used as a unidirectional
// pipe: read from the first, write to the second. (Both directions work
// — it is a socketpair — but the kernel labels the ends.)
func NewPipe() (readEnd, writeEnd *Endpoint) {
	return newPair()
}

// Read drains up to len(p) bytes from the receive buffer. It returns
// (0, nil) for EOF (peer closed, buffer drained) and ErrWouldBlock when
// no data is available yet.
func (e *Endpoint) Read(p []byte) (int, error) {
	e.tickStaged()
	e.mu.Lock()
	if e.closed {
		reset := e.reset
		e.mu.Unlock()
		if reset {
			return 0, ErrReset
		}
		return 0, ErrClosed
	}
	if e.rx.n == 0 {
		peer := e.peer
		e.mu.Unlock()
		// Peer state is checked with our own lock released so that two
		// sides reading concurrently cannot deadlock on each other.
		if peer == nil || peer.isClosed() {
			return 0, nil // EOF
		}
		return 0, ErrWouldBlock
	}
	n := e.rx.read(p)
	peer := e.peer
	e.mu.Unlock()
	if peer != nil {
		// Our buffer drained: the peer may be writable again.
		peer.notif.wake()
	}
	e.bumpHub()
	return n, nil
}

// Write appends to the peer's receive buffer. It returns ErrPipe if the
// peer is gone, ErrWouldBlock when the peer's buffer is full, and
// ErrReset when the fault plan injects an RST on the connection.
func (e *Endpoint) Write(p []byte) (int, error) {
	e.mu.Lock()
	if e.closed {
		reset := e.reset
		e.mu.Unlock()
		if reset {
			return 0, ErrReset
		}
		return 0, ErrClosed
	}
	peer := e.peer
	faults := e.faults
	e.mu.Unlock()
	if faults != nil && faults.Reset(e.connID) {
		if e.stats != nil {
			e.stats.Resets.Add(1)
		}
		e.injectReset()
		return 0, ErrReset
	}
	if peer == nil || peer.isClosed() {
		return 0, ErrPipe
	}
	peer.mu.Lock()
	space := RecvBufSize - peer.rx.n
	if space <= 0 {
		peer.mu.Unlock()
		return 0, ErrWouldBlock
	}
	n := len(p)
	if n > space {
		n = space
	}
	peer.mu.Unlock()

	// Fault plan: drop (retransmit after two reader polls) or delay
	// (one poll) this segment. A segment also stages, with no extra
	// hold, whenever earlier segments are still in flight — a stream
	// never reorders.
	hold := 0
	if faults != nil {
		if faults.Drop(e.connID) {
			hold = 2
			if e.stats != nil {
				e.stats.SegsDropped.Add(1)
			}
		} else if faults.Delay(e.connID) {
			hold = 1
			if e.stats != nil {
				e.stats.SegsDelayed.Add(1)
			}
		}
	}
	e.mu.Lock()
	if hold > 0 || len(e.stage) > 0 {
		seg := stagedSegment{data: append([]byte(nil), p[:n]...), hold: hold}
		e.stage = append(e.stage, seg)
		e.mu.Unlock()
		// Accepted into the send buffer; the peer is woken only when a
		// segment is actually delivered (by its poll-driven ticks).
		e.bumpHub()
		return n, nil
	}
	e.mu.Unlock()

	peer.mu.Lock()
	peer.rx.write(p[:n])
	depth := uint64(peer.rx.n)
	peer.mu.Unlock()
	if e.stats != nil {
		e.stats.setMax(&e.stats.RecvHighWater, depth)
	}
	peer.notif.wake()
	e.bumpHub()
	return n, nil
}

// WriteSpace reports how many bytes a Write could hand the peer right
// now: the room in its receive buffer, 0 when that is full (or overfull).
// It is for sizing a transfer before producing its bytes and decides
// nothing — it asks no fault plan and reports no closed or reset state;
// the Write that follows does, also when given no bytes at all.
func (e *Endpoint) WriteSpace() int {
	e.mu.Lock()
	peer := e.peer
	e.mu.Unlock()
	if peer == nil {
		return 0
	}
	return max(peer.space(), 0)
}

// tickStaged ages the segments the fault plan is holding back on the
// peer (the writer of data flowing toward e) and delivers any that are
// due. Called from the reading side's Read and Ready, so delay is
// measured in reader polls — deterministic virtual time, no wall clock.
func (e *Endpoint) tickStaged() {
	e.mu.Lock()
	w := e.peer
	e.mu.Unlock()
	if w == nil {
		return
	}
	var due [][]byte
	w.mu.Lock()
	if len(w.stage) > 0 {
		w.stage[0].hold-- // only the head ages: in-order delivery
		for len(w.stage) > 0 && w.stage[0].hold <= 0 {
			due = append(due, w.stage[0].data)
			w.stage = w.stage[1:]
		}
	}
	w.mu.Unlock()
	if len(due) == 0 {
		return
	}
	e.mu.Lock()
	if e.closed {
		// Nobody can read these any more; a closed endpoint keeps no buffer.
		e.mu.Unlock()
		return
	}
	for _, d := range due {
		e.rx.write(d)
	}
	depth := uint64(e.rx.n)
	e.mu.Unlock()
	if e.stats != nil {
		e.stats.setMax(&e.stats.RecvHighWater, depth)
	}
}

// injectReset hard-closes both sides of the connection, discarding
// buffered and in-flight data — RST semantics. Descriptor reference
// counts are irrelevant: a reset kills the connection, not the fds.
func (e *Endpoint) injectReset() {
	e.mu.Lock()
	peer := e.peer
	e.refs = 0
	e.closed = true
	e.reset = true
	e.rx = ring{}
	e.stage = nil
	e.mu.Unlock()
	if peer != nil {
		peer.mu.Lock()
		peer.refs = 0
		peer.closed = true
		peer.reset = true
		peer.rx = ring{}
		peer.stage = nil
		peer.mu.Unlock()
	}
	e.notif.wake()
	if peer != nil {
		peer.notif.wake()
	}
	e.bumpHub()
}

// ConnID returns the connection id assigned when the connection was
// established (0 for pipes). Fault plans key their per-connection streams
// on it, and the fleet layer uses it to target drill faults at the
// connections of one backend.
func (e *Endpoint) ConnID() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.connID
}

// InjectRST hard-closes the connection as if an RST arrived from the
// network: both sides close immediately and all buffered and in-flight
// data is discarded. The fleet chaos drills use it to mount RST storms.
func (e *Endpoint) InjectRST() {
	if e.stats != nil {
		e.stats.Resets.Add(1)
	}
	e.injectReset()
}

// Close drops one reference; the endpoint shuts down (waking both
// sides) when the last reference is gone.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if e.refs > 1 {
		e.refs--
		e.mu.Unlock()
		return
	}
	e.refs = 0
	e.closed = true
	e.rx = ring{} // unread input dies with the last descriptor
	peer := e.peer
	stage := e.stage
	e.stage = nil
	e.mu.Unlock()
	// FIN queues behind in-flight data: anything the fault plan was
	// still holding is delivered before the peer can observe the close.
	if peer != nil && len(stage) > 0 {
		peer.mu.Lock()
		if !peer.closed {
			for _, seg := range stage {
				peer.rx.write(seg.data)
			}
		}
		peer.mu.Unlock()
	}
	e.notif.wake()
	if peer != nil {
		peer.notif.wake()
	}
	e.bumpHub()
}

func (e *Endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Buffered returns the number of bytes waiting to be read.
func (e *Endpoint) Buffered() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rx.n
}

// Ready implements Pollable. It never holds its own lock while taking the
// peer's, so concurrent Ready calls from both sides cannot deadlock.
// Each poll ages fault-delayed segments headed this way, so a blocked
// reader's periodic polling is exactly what "time" means for delivery.
func (e *Endpoint) Ready() Readiness {
	e.tickStaged()
	e.mu.Lock()
	bufLen := e.rx.n
	closed := e.closed
	peer := e.peer
	e.mu.Unlock()

	var r Readiness
	if bufLen > 0 {
		r |= ReadyIn
	}
	if closed {
		return r | ReadyHup
	}
	if peer == nil {
		return r | ReadyHup
	}
	if peer.isClosed() {
		r |= ReadyIn | ReadyHup // EOF is readable
	} else if peer.space() > 0 {
		r |= ReadyOut
	}
	return r
}

func (e *Endpoint) space() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return RecvBufSize - e.rx.n
}

// Subscribe implements Pollable.
func (e *Endpoint) Subscribe(fn func()) func() { return e.notif.Subscribe(fn) }

var (
	_ Pollable = (*Endpoint)(nil)
	_ Pollable = (*Listener)(nil)
)
