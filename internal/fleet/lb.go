package fleet

import (
	"errors"
	"fmt"

	"lazypoline/internal/guest"
	"lazypoline/internal/netstack"
	"lazypoline/internal/otrace"
)

// LB is a simulated L4 load balancer: it accepts client connections on a
// frontend port and splices each one onto a fresh connection to a backend
// server, byte-pumping both directions. Routing is round-robin over
// healthy, non-draining backends, with synchronous dial-failure fallback
// to the next candidate. Health is tracked by virtual-time probes —
// periodic full request/response exchanges against each backend — with
// consecutive-failure ejection and consecutive-success readmission.
//
// The LB is host-side code (like the webbench client): it lives outside
// the measured guests, is driven by the single fleet driver goroutine,
// and every decision is a pure function of (virtual time, byte streams),
// so farm runs replay byte-identically from their seed.
type LB struct {
	net      *netstack.Stack
	listener *netstack.Listener
	respSize int
	backends []*lbBackend
	sessions []*session
	rr       int
	buf      []byte
	probeReq []byte
	stats    LBStats
	trace    *otrace.Tracer
	// faults sees every LB→backend connection (splice or probe), so the
	// slow drill can target one backend's connections.
	faults *drillFaults

	probeInterval uint64
	probeTimeout  uint64
}

// LBStats counts the LB's routing and health decisions.
type LBStats struct {
	Routed       int // client connections spliced to a backend
	Refused      int // client connections dropped: no routable backend
	Ejections    int // healthy→unhealthy transitions
	Readmissions int // unhealthy→healthy transitions
	DrainClosed  int // sessions closed at a response boundary by draining
	EjectClosed  int // sessions closed at a response boundary by ejection
	ProbesSent   int
	ProbesOK     int
	ProbesFailed int
}

type lbBackend struct {
	idx      int
	port     uint16
	healthy  bool
	draining bool

	consecFail  int
	consecOK    int
	nextProbeAt uint64
	probe       *probeConn
}

type probeConn struct {
	ep       *netstack.Endpoint
	got      int
	deadline uint64
}

// session is one spliced client↔backend connection pair.
type session struct {
	backend   *lbBackend
	client    *netstack.Endpoint
	upstream  *netstack.Endpoint
	reqBytes  uint64
	respBytes uint64
	closed    bool
}

// newLB listens on FrontPort and balances over the backends listening on
// ports. respSize is the protocol's fixed response size; probes run every
// probeInterval cycles and fail after probeTimeout.
func newLB(net *netstack.Stack, ports []uint16, respSize int, probeInterval, probeTimeout uint64,
	faults *drillFaults, trace *otrace.Tracer) (*LB, error) {
	l, err := net.Listen(FrontPort, frontBacklog)
	if err != nil {
		return nil, err
	}
	lb := &LB{
		net:           net,
		listener:      l,
		respSize:      respSize,
		buf:           make([]byte, readChunk),
		probeReq:      []byte(guest.Request),
		probeInterval: probeInterval,
		probeTimeout:  probeTimeout,
		faults:        faults,
		trace:         trace,
	}
	for i, p := range ports {
		lb.backends = append(lb.backends, &lbBackend{idx: i, port: p, healthy: true})
	}
	return lb, nil
}

// Stats returns a copy of the LB counters.
func (l *LB) Stats() LBStats { return l.stats }

// SetDraining marks a backend for planned removal (true) or returns it
// to rotation (false). A draining backend gets no new sessions; existing
// sessions are closed at their next response boundary, never mid-message.
func (l *LB) SetDraining(i int, draining bool) { l.backends[i].draining = draining }

// ActiveSessions returns the live spliced sessions (drills inject RSTs
// through it; tests inspect it).
func (l *LB) ActiveSessions() []*session {
	out := make([]*session, 0, len(l.sessions))
	for _, s := range l.sessions {
		if !s.closed {
			out = append(out, s)
		}
	}
	return out
}

// Step advances the LB at virtual time now: probe backends, accept and
// route new client connections, pump every session. All iteration is in
// stable index order — the LB is part of the determinism contract.
func (l *LB) Step(now uint64) {
	l.stepProbes(now)
	for {
		client, err := l.listener.Accept()
		if err != nil {
			break
		}
		l.route(client, now)
	}
	live := l.sessions[:0]
	for _, s := range l.sessions {
		l.pump(s, now)
		if !s.closed {
			live = append(live, s)
		}
	}
	l.sessions = live
}

// route splices a freshly accepted client connection onto a backend.
// Round-robin over healthy non-draining backends; a backend whose dial
// fails (killed mid-restart, backlog full) is skipped synchronously. If
// no backend is routable the client is dropped — the client's retry
// budget, not the LB, owns recovery.
func (l *LB) route(client *netstack.Endpoint, now uint64) {
	n := len(l.backends)
	for t := 0; t < n; t++ {
		b := l.backends[(l.rr+t)%n]
		if !b.healthy || b.draining {
			continue
		}
		up, err := l.net.Connect(b.port)
		if err != nil {
			continue
		}
		l.rr = (l.rr + t + 1) % n
		l.faults.dialed(b.idx, up.ConnID())
		l.sessions = append(l.sessions, &session{backend: b, client: client, upstream: up})
		l.stats.Routed++
		if l.trace != nil {
			ctx := client.TraceCtx()
			l.trace.Span(otrace.Span{
				Trace: otrace.CtxTrace(ctx), Ctx: ctx, Kind: otrace.KindLB,
				Name: "route", Start: now, Note: fmt.Sprintf("backend %d", b.idx),
			})
		}
		return
	}
	client.Close()
	l.stats.Refused++
	if l.trace != nil {
		ctx := client.TraceCtx()
		l.trace.Span(otrace.Span{
			Trace: otrace.CtxTrace(ctx), Ctx: ctx, Kind: otrace.KindLB,
			Name: "refuse", Start: now, Note: "no routable backend",
		})
	}
}

// pump moves bytes both ways through a session and applies teardown and
// draining rules.
func (l *LB) pump(s *session, now uint64) {
	if s.closed {
		return
	}
	// Propagate the request context across the splice: whatever the
	// client stamped for its next request rides onto the backend
	// connection, where the serving task adopts it. Unconditional — a
	// plain word copied whether or not a tracer reads it, part of the
	// inertness contract.
	s.upstream.StampPeerTraceCtx(s.client.TraceCtx())
	prevReqs := s.reqBytes
	done := l.copyDir(s, s.client, s.upstream, &s.reqBytes)
	l.noteForwards(s, prevReqs, now)
	if done {
		return
	}
	if done := l.copyDir(s, s.upstream, s.client, &s.respBytes); done {
		return
	}
	// Draining and ejection both evict sessions, but only at a response
	// boundary — every forwarded request answered — so planned removal
	// never truncates a response, and an ejected backend's keep-alive
	// sessions migrate (the client's next dial lands on a healthy
	// backend) instead of pinning traffic to a sick server forever.
	if (s.backend.draining || !s.backend.healthy) && l.atBoundary(s) {
		l.closeSession(s)
		if s.backend.draining {
			l.stats.DrainClosed++
		} else {
			l.stats.EjectClosed++
		}
	}
}

// noteForwards emits one LB span per complete request the session just
// finished forwarding to its backend — named "retry" when the
// context's attempt number says the client is on its second or later
// try, which is the span the kill-drill acceptance gate looks for.
func (l *LB) noteForwards(s *session, prevReqBytes uint64, now uint64) {
	if l.trace == nil {
		return
	}
	rq := uint64(guest.RequestSize)
	crossed := s.reqBytes/rq - prevReqBytes/rq
	if crossed == 0 {
		return
	}
	ctx := s.client.TraceCtx()
	name := "forward"
	if otrace.CtxAttempt(ctx) > 1 {
		name = "retry"
	}
	for i := uint64(0); i < crossed; i++ {
		l.trace.Span(otrace.Span{
			Trace: otrace.CtxTrace(ctx), Ctx: ctx, Kind: otrace.KindLB,
			Name: name, Start: now, Note: fmt.Sprintf("backend %d", s.backend.idx),
		})
	}
}

// copyDir forwards bytes from src to dst. It reads no more than dst can
// take, so each write takes the whole chunk and nothing waits in the LB;
// while dst is full it reads nothing. Returns true when it tore the
// session down.
func (l *LB) copyDir(s *session, src, dst *netstack.Endpoint, total *uint64) bool {
	for {
		room := min(len(l.buf), dst.WriteSpace())
		if room == 0 {
			return false
		}
		n, err := src.Read(l.buf[:room])
		if n > 0 {
			*total += uint64(n)
			if _, werr := dst.Write(l.buf[:n]); werr != nil {
				l.closeSession(s)
				return true
			}
		}
		if err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				return false
			}
			l.closeSession(s) // reset or closed underneath us
			return true
		}
		if n == 0 {
			// Clean EOF from src: the session is over. An L4 splice
			// cannot half-close, so both sides go down together.
			l.closeSession(s)
			return true
		}
	}
}

// atBoundary reports whether a session sits exactly between exchanges:
// every forwarded request bytes-complete and a full response returned
// for each. The request/response sizes are the protocol's fixed framing
// (guest.RequestSize / header+file), the L4 stand-in for an L7 balancer
// ending a kept-alive connection after a complete exchange.
func (l *LB) atBoundary(s *session) bool {
	if s.client.Ready()&netstack.ReadyIn != 0 {
		return false // a new request is already in the client's buffer
	}
	rq, rs := uint64(guest.RequestSize), uint64(l.respSize)
	if s.reqBytes%rq != 0 || s.respBytes%rs != 0 {
		return false
	}
	return s.reqBytes/rq == s.respBytes/rs
}

func (l *LB) closeSession(s *session) {
	if s.closed {
		return
	}
	s.closed = true
	s.client.Close()
	s.upstream.Close()
}

// stepProbes advances every backend's health probe: a full request/
// response exchange, in virtual time, against the backend's real port.
// A refused dial fails immediately (the crashed-backend signal); a
// response slower than probeTimeout fails too (the overloaded/slowed
// signal). unhealthyAfter consecutive failures eject; healthyAfter
// consecutive successes readmit.
func (l *LB) stepProbes(now uint64) {
	for _, b := range l.backends {
		if b.probe != nil {
			l.pollProbe(b, now)
			continue
		}
		if now < b.nextProbeAt {
			continue
		}
		l.stats.ProbesSent++
		ep, err := l.net.Connect(b.port)
		if err != nil {
			l.probeResult(b, false, now)
			continue
		}
		l.faults.dialed(b.idx, ep.ConnID())
		// Probes carry the reserved probe context so the syscalls that
		// serve them never attribute to a client request's tree.
		ep.StampPeerTraceCtx(otrace.Ctx(otrace.ProbeTrace, 1))
		if _, werr := ep.Write(l.probeReq); werr != nil {
			ep.Close()
			l.probeResult(b, false, now)
			continue
		}
		b.probe = &probeConn{ep: ep, deadline: now + l.probeTimeout}
	}
}

func (l *LB) pollProbe(b *lbBackend, now uint64) {
	p := b.probe
	for {
		n, err := p.ep.Discard(readChunk) // probe responses are counted, not parsed
		if err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				if now >= p.deadline {
					p.ep.Close()
					l.probeResult(b, false, now)
				}
				return
			}
			p.ep.Close()
			l.probeResult(b, false, now)
			return
		}
		if n == 0 { // EOF before the full response
			p.ep.Close()
			l.probeResult(b, false, now)
			return
		}
		p.got += n
		if p.got >= l.respSize {
			p.ep.Close()
			l.probeResult(b, true, now)
			return
		}
	}
}

func (l *LB) probeResult(b *lbBackend, ok bool, now uint64) {
	b.probe = nil
	b.nextProbeAt = now + l.probeInterval
	if ok {
		l.stats.ProbesOK++
		b.consecOK++
		b.consecFail = 0
		if !b.healthy && b.consecOK >= healthyAfter {
			b.healthy = true
			l.stats.Readmissions++
			l.noteHealth(b, "readmit", now)
		}
		return
	}
	l.stats.ProbesFailed++
	b.consecFail++
	b.consecOK = 0
	if b.healthy && b.consecFail >= unhealthyAfter {
		b.healthy = false
		l.stats.Ejections++
		l.noteHealth(b, "eject", now)
	}
}

// noteHealth emits a global (traceless) LB event for a health
// transition, visible alongside the request trees in the export.
func (l *LB) noteHealth(b *lbBackend, name string, now uint64) {
	if l.trace != nil {
		l.trace.Span(otrace.Span{
			Kind: otrace.KindLB, Name: name, Start: now,
			Note: fmt.Sprintf("backend %d", b.idx),
		})
	}
}

// Close shuts the frontend listener and every live session.
func (l *LB) Close() {
	l.listener.Close()
	for _, s := range l.sessions {
		l.closeSession(s)
	}
	for _, b := range l.backends {
		if b.probe != nil {
			b.probe.ep.Close()
			b.probe = nil
		}
	}
}
