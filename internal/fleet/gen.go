package fleet

import (
	"errors"
	"math"
	"sort"

	"lazypoline/internal/netstack"
	"lazypoline/internal/otrace"
)

// Generator is the open-loop traffic source for farm runs. Unlike
// webbench's closed loop — where a fixed connection pool issues the next
// request only after the previous response, so offered load collapses
// when the server slows — arrivals here are scheduled up front from a
// seeded exponential (Poisson) process in virtual time and fire whether
// or not earlier requests have finished. That is what makes latency
// percentiles meaningful: queueing delay under overload shows up in the
// numbers instead of silently throttling the source.
//
// Failures (refused dials, resets, mid-response EOF, timeouts) consume a
// per-request retry budget with deterministic exponential backoff; a
// request that exhausts the budget is *lost*, the number the robustness
// drills gate on. Connections to the balancer are pooled and kept alive;
// a pooled connection discovered dead at dispatch (the balancer drained
// or RST it while idle) is replaced transparently without charging the
// request's budget — the request was never on the wire.
type Generator struct {
	net      *netstack.Stack
	port     uint16
	request  []byte
	respSize int

	maxConns    int
	retryBudget int
	backoffBase uint64
	timeout     uint64

	reqs    []genRequest
	nextArr int
	ready   []int // request indices arrived or backoff-expired, FIFO

	conns []*genConn
	buf   []byte

	completed int
	lost      int
	retries   int
	timeouts  int
	refused   int // dials to the frontend refused (listener backlog)

	// trace receives request/attempt spans (nil = request plane off).
	trace *otrace.Tracer
	// OnFinish, when set, observes every request outcome in completion
	// order: the SLO engine and exemplar histogram hang off it.
	// attempts is the total attempts consumed; latency is 0 for lost
	// requests.
	OnFinish func(idx int, now, latency uint64, lost bool, attempts int, trace uint64)
}

type genRequest struct {
	arrival  uint64 // absolute virtual time
	attempts int    // failures so far
	readyAt  uint64 // backoff gate for the next attempt
	done     bool
	lost     bool
	latency  uint64 // completion - arrival, in cycles
	trace    uint64 // deterministic otrace ID (seed, index)
}

type genConn struct {
	ep       *netstack.Endpoint
	req      int // in-flight request index, -1 when idle
	got      int
	deadline uint64
}

type genConfig struct {
	port        uint16
	request     []byte
	respSize    int
	requests    int
	rate        float64 // offered load in requests per Mcycle
	seed        uint64
	maxConns    int
	retryBudget int
	backoffBase uint64
	timeout     uint64
	trace       *otrace.Tracer
}

// splitmix64 is the same tiny PRNG the chaos engine uses for its
// per-site streams: every arrival schedule is a pure function of the
// seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// newGenerator precomputes the full arrival schedule: exponential
// interarrival gaps with mean 1e6/rate cycles, drawn from the seed.
func newGenerator(net *netstack.Stack, cfg genConfig) *Generator {
	g := &Generator{
		net:         net,
		port:        cfg.port,
		request:     cfg.request,
		respSize:    cfg.respSize,
		maxConns:    cfg.maxConns,
		retryBudget: cfg.retryBudget,
		backoffBase: cfg.backoffBase,
		timeout:     cfg.timeout,
		trace:       cfg.trace,
		buf:         make([]byte, 64*1024),
		reqs:        make([]genRequest, cfg.requests),
	}
	mean := 1e6 / cfg.rate
	state := cfg.seed
	var t uint64
	for i := range g.reqs {
		u := float64(splitmix64(&state)>>11) / float64(1<<53)
		gap := uint64(-math.Log(1-u) * mean)
		if gap == 0 {
			gap = 1
		}
		t += gap
		g.reqs[i].arrival = t // relative; Start() rebases
		// Trace IDs are assigned unconditionally: the stamp writes they
		// drive are inert, and histogram exemplars reference them even
		// when no tracer collects trees.
		g.reqs[i].trace = otrace.ID(cfg.seed, i)
	}
	return g
}

// Start rebases the precomputed schedule onto absolute virtual time
// (after server boot, which is excluded like webbench's warmup).
func (g *Generator) Start(base uint64) {
	for i := range g.reqs {
		g.reqs[i].arrival += base
	}
}

// Done reports whether every request has completed or been lost.
func (g *Generator) Done() bool { return g.completed+g.lost == len(g.reqs) }

// Step advances the generator at virtual time now: poll in-flight
// responses, expire timeouts, release new arrivals, dispatch.
func (g *Generator) Step(now uint64) {
	g.poll(now)
	for g.nextArr < len(g.reqs) && g.reqs[g.nextArr].arrival <= now {
		r := &g.reqs[g.nextArr]
		g.trace.StartRequest(r.trace, r.arrival)
		g.ready = append(g.ready, g.nextArr)
		g.nextArr++
	}
	g.dispatch(now)
}

// poll drains responses and expires deadlines on in-flight connections.
func (g *Generator) poll(now uint64) {
	live := g.conns[:0]
	for _, c := range g.conns {
		if g.pollConn(c, now) {
			live = append(live, c)
		}
	}
	g.conns = live
}

// pollConn returns false when the connection must leave the pool.
func (g *Generator) pollConn(c *genConn, now uint64) bool {
	if c.req < 0 {
		return true // idle; liveness discovered at dispatch
	}
	for {
		n, err := c.ep.Read(g.buf)
		if err != nil {
			if errors.Is(err, netstack.ErrWouldBlock) {
				if now >= c.deadline {
					// Timed out mid-exchange: the connection is
					// poisoned (a late response would desynchronise
					// the framing), so it dies with the attempt.
					g.timeouts++
					c.ep.Close()
					g.fail(c.req, now, "timeout")
					return false
				}
				return true
			}
			c.ep.Close()
			g.fail(c.req, now, "reset")
			return false
		}
		if n == 0 { // EOF mid-response (killed backend, drained session)
			c.ep.Close()
			g.fail(c.req, now, "eof")
			return false
		}
		c.got += n
		if c.got >= g.respSize {
			idx := c.req
			r := &g.reqs[idx]
			r.done = true
			r.latency = now - r.arrival
			g.completed++
			c.req = -1
			c.got = 0
			g.finish(idx, now, r.latency, false)
			return true
		}
	}
}

// finish reports one settled request (completed or lost) to OnFinish.
func (g *Generator) finish(idx int, now, latency uint64, lost bool) {
	if g.OnFinish == nil {
		return
	}
	r := &g.reqs[idx]
	attempts := r.attempts // lost: every attempt failed
	if !lost {
		attempts++ // completed: the last attempt succeeded
	}
	g.OnFinish(idx, now, latency, lost, attempts, r.trace)
}

// dispatch issues every ready request whose backoff has expired, in
// arrival order. Head-of-line blocking on pool exhaustion is deliberate:
// an open-loop source models finite client sockets, not infinite ones.
func (g *Generator) dispatch(now uint64) {
	// Swap the queue out before iterating: fail() inside send() appends
	// retry entries to g.ready, and they must land on the fresh slice
	// rather than be clobbered by the in-place filter.
	queue := g.ready
	g.ready = nil
	blocked := false
	for _, idx := range queue {
		r := &g.reqs[idx]
		if blocked || r.readyAt > now {
			g.ready = append(g.ready, idx)
			continue
		}
		switch g.send(idx, now) {
		case sendOK:
		case sendNoConn:
			g.ready = append(g.ready, idx)
			blocked = true
		case sendFailed:
			// fail() already requeued or lost it.
		}
	}
}

type sendResult int

const (
	sendOK sendResult = iota
	sendNoConn
	sendFailed
)

// send writes request idx on a pooled or fresh connection. A stale
// pooled connection (dead while idle) is discarded and replaced without
// charging the budget; a failure with the request on the wire — or no
// way to reach the balancer at all — charges it.
func (g *Generator) send(idx int, now uint64) sendResult {
	r := &g.reqs[idx]
	// The context for this attempt rides the connection to the serving
	// side. Stamped unconditionally — a pair of atomic word writes —
	// so enabling a tracer changes nothing about the run.
	ctx := otrace.Ctx(r.trace, r.attempts+1)
	for tries := 0; tries <= len(g.conns)+1; tries++ {
		c := g.takeIdle()
		fresh := false
		if c == nil {
			if len(g.conns) >= g.maxConns {
				return sendNoConn
			}
			ep, err := g.net.Connect(g.port)
			if err != nil {
				// The balancer itself is unreachable (backlog full).
				g.refused++
				g.fail(idx, now, "refused")
				return sendFailed
			}
			c = &genConn{ep: ep, req: -1}
			g.conns = append(g.conns, c)
			fresh = true
		}
		c.ep.StampPeerTraceCtx(ctx)
		if g.writeAll(c, g.request) {
			c.req = idx
			c.got = 0
			c.deadline = now + g.timeout
			name := "attempt"
			if r.attempts > 0 {
				name = "retry"
			}
			g.trace.Span(otrace.Span{
				Trace: r.trace, Ctx: ctx, Kind: otrace.KindAttempt,
				Name: name, Start: now,
			})
			return sendOK
		}
		// Write failed: drop the connection.
		c.ep.Close()
		g.removeConn(c)
		if fresh {
			// A *fresh* connection the balancer killed immediately
			// (routing refused, RST): the request burned an attempt.
			g.fail(idx, now, "write")
			return sendFailed
		}
		// Stale pooled connection: retry with another, free of charge.
	}
	g.fail(idx, now, "noconn")
	return sendFailed
}

// writeAll pushes the full request; the 16-byte message fits any
// non-full buffer, so a short write only happens against a nearly-full
// peer — treated as failure to keep framing exact.
func (g *Generator) writeAll(c *genConn, p []byte) bool {
	n, err := c.ep.Write(p)
	return err == nil && n == len(p)
}

func (g *Generator) takeIdle() *genConn {
	for _, c := range g.conns {
		if c.req < 0 {
			return c
		}
	}
	return nil
}

func (g *Generator) removeConn(dead *genConn) {
	live := g.conns[:0]
	for _, c := range g.conns {
		if c != dead {
			live = append(live, c)
		}
	}
	g.conns = live
}

// fail charges one attempt against idx's retry budget: requeue with
// exponential backoff, or mark lost when the budget is gone. reason
// labels the failure span ("timeout", "reset", "eof", ...).
func (g *Generator) fail(idx int, now uint64, reason string) {
	r := &g.reqs[idx]
	r.attempts++
	g.retries++
	g.trace.Span(otrace.Span{
		Trace: r.trace, Ctx: otrace.Ctx(r.trace, r.attempts),
		Kind: otrace.KindAttempt, Name: "fail", Start: now, Note: reason,
	})
	if r.attempts > g.retryBudget {
		r.lost = true
		g.lost++
		g.finish(idx, now, 0, true)
		return
	}
	r.readyAt = now + g.backoffBase<<uint(r.attempts-1)
	g.ready = append(g.ready, idx)
}

// Close tears down the connection pool.
func (g *Generator) Close() {
	for _, c := range g.conns {
		c.ep.Close()
	}
	g.conns = nil
}

// latencies extracts completed-request latencies, optionally filtered by
// arrival window [from, to).
func (g *Generator) latencies(from, to uint64) []uint64 {
	var out []uint64
	for i := range g.reqs {
		r := &g.reqs[i]
		if r.done && r.arrival >= from && r.arrival < to {
			out = append(out, r.latency)
		}
	}
	return out
}

// percentile returns the p-th percentile (0..1) of lats, 0 when empty.
func percentile(lats []uint64, p float64) uint64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]uint64(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return s[idx]
}
