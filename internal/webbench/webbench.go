// Package webbench is the wrk-like load generator and throughput harness
// for the Figure 5 macrobenchmark: closed-loop keep-alive clients that
// continuously request the same static resource, driving the simulated
// web servers while each interposition mechanism is attached.
//
// The client runs host-side against the netstack directly, mirroring the
// paper's setup where wrk is pinned to separate physical cores and is
// never part of the measured system.
package webbench

import (
	"errors"
	"fmt"
	"strings"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/netstack"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// Client is a set of closed-loop keep-alive connections (wrk threads).
type Client struct {
	stack    *netstack.Stack
	port     uint16
	respSize int
	target   int

	conns     []*clientConn
	completed int
	sent      int

	// sink is where response bytes are read to and never looked at. One
	// goroutine steps every connection, so one buffer serves them all.
	sink []byte

	// Request-plane tracing (nil trace = off): IDs derive from
	// (traceSeed, request index); now supplies virtual time.
	trace     *otrace.Tracer
	traceSeed uint64
	now       func() uint64
}

type clientConn struct {
	ep       *netstack.Endpoint
	awaiting int // bytes of the current response still expected; 0 = idle
	request  []byte
	retries  int // reconnects performed after injected RSTs (bounded)
	backoff  int // Step() calls to sit out before the next reconnect

	// Debug bookkeeping for the fail-fast error path: the request
	// index currently on the wire (-1 = idle), the index that was in
	// flight when the connection last died, and why it died.
	reqIdx     int
	deadReqIdx int
	lastErr    string

	inflight uint64 // open trace ID riding this connection (0 = none)
}

// maxReconnects bounds how often a connection re-dials after an injected
// RST before giving up for good. Like every retry policy in the chaos
// design, the backoff is measured in virtual time (Step calls), so runs
// replay identically from the chaos seed.
const maxReconnects = 8

// NewClient prepares nconns connections that will collectively issue
// `target` requests, each expecting a response of respSize bytes.
func NewClient(stack *netstack.Stack, port uint16, nconns, respSize, target int) *Client {
	c := &Client{stack: stack, port: port, respSize: respSize, target: target,
		sink: make([]byte, 64*1024)}
	for i := 0; i < nconns; i++ {
		c.conns = append(c.conns, &clientConn{
			request:    []byte(requestLine),
			reqIdx:     -1,
			deadReqIdx: -1,
		})
	}
	return c
}

// EnableTrace attaches a request tracer: each issued request gets a
// deterministic trace ID from (seed, request index), stamps it onto
// the server-bound connection so kernel syscall spans attribute to it,
// and opens/closes a span tree around the exchange. now supplies
// virtual time (the kernel clock).
func (c *Client) EnableTrace(tr *otrace.Tracer, seed uint64, now func() uint64) {
	c.trace = tr
	c.traceSeed = seed
	c.now = now
}

// Connect establishes all connections; the server must be listening.
// With a kernel supplied, connections are paced — the simulation runs
// between connects so the workers' accept loops spread the connections
// across the pool, as a ramped wrk run does.
func (c *Client) Connect(k *kernel.Kernel) error {
	for _, cc := range c.conns {
		ep, err := c.stack.Connect(c.port)
		if err != nil {
			return fmt.Errorf("webbench: %w", err)
		}
		cc.ep = ep
		if k != nil {
			k.RunSlice(100_000)
		}
	}
	return nil
}

// requestLine is the fixed 16-byte request message. It is a constant —
// not a package-level slice — and every connection writes from its own
// private copy, so concurrent benchmark cells can never alias a mutable
// request buffer.
const requestLine = "GET /static   \r\n"

// Step advances every connection's state machine without blocking:
// drain available response bytes, and issue the next request on idle
// connections while the target has not been reached.
func (c *Client) Step() {
	for _, cc := range c.conns {
		if cc.ep == nil {
			c.stepReconnect(cc)
			continue
		}
		if cc.awaiting == 0 && c.sent < c.target {
			if c.trace != nil {
				// Stamp the serving side before the bytes land so the
				// worker's syscalls attribute to this request.
				id := otrace.ID(c.traceSeed, c.sent)
				cc.ep.StampPeerTraceCtx(otrace.Ctx(id, cc.retries+1))
			}
			_, err := cc.ep.Write(cc.request)
			if err == nil {
				cc.reqIdx = c.sent
				c.sent++
				cc.awaiting = c.respSize
				c.traceSend(cc)
			} else if errors.Is(err, netstack.ErrReset) ||
				errors.Is(err, netstack.ErrPipe) ||
				errors.Is(err, netstack.ErrClosed) {
				// The endpoint is dead — injected RST, server-side close
				// of a keep-alive connection, or a killed backend. The
				// write can never succeed; re-dial with backoff.
				c.dropConn(cc, errName(err))
				continue
			}
			// EAGAIN: the peer's buffer is full, retry on a later step.
		}
		for cc.awaiting > 0 {
			n, err := cc.ep.Read(c.sink)
			if errors.Is(err, netstack.ErrWouldBlock) {
				break
			}
			if (n == 0 && err == nil) ||
				errors.Is(err, netstack.ErrReset) ||
				errors.Is(err, netstack.ErrClosed) {
				// EOF mid-response (the server closed or crashed before
				// finishing) or a reset: the remaining bytes will never
				// arrive. Treat like an injected RST — drop the
				// connection, return the request to the send budget,
				// and reconnect after backoff.
				reason := "eof"
				if err != nil {
					reason = errName(err)
				}
				c.dropConn(cc, reason)
				break
			}
			if err != nil {
				cc.awaiting = 0
				break
			}
			cc.awaiting -= n
			if cc.awaiting <= 0 {
				cc.awaiting = 0
				c.completed++
				cc.reqIdx = -1
				c.traceDone(cc)
			}
		}
	}
}

// traceSend opens (or resumes, for a re-issued request) the span tree
// for the request just written on cc.
func (c *Client) traceSend(cc *clientConn) {
	if c.trace == nil {
		return
	}
	id := otrace.ID(c.traceSeed, cc.reqIdx)
	now := c.now()
	c.trace.StartRequest(id, now)
	cc.inflight = id
	name := "attempt"
	if cc.retries > 0 {
		name = "retry"
	}
	c.trace.Span(otrace.Span{
		Trace: id, Ctx: otrace.Ctx(id, cc.retries+1),
		Kind: otrace.KindAttempt, Name: name, Start: now,
	})
}

// traceDone closes the span tree for the response cc just finished.
func (c *Client) traceDone(cc *clientConn) {
	if c.trace == nil || cc.inflight == 0 {
		return
	}
	c.trace.EndRequest(cc.inflight, otrace.Outcome{
		End: c.now(), Attempts: cc.retries + 1,
	})
	cc.inflight = 0
}

// errName maps a netstack error to the short label used in spans and
// fail-fast diagnostics.
func errName(err error) string {
	switch {
	case errors.Is(err, netstack.ErrReset):
		return "reset"
	case errors.Is(err, netstack.ErrPipe):
		return "pipe"
	case errors.Is(err, netstack.ErrClosed):
		return "closed"
	case err == nil:
		return "eof"
	}
	return err.Error()
}

// dropConn tears down a connection killed by an injected RST. The
// in-flight request (if any) is returned to the send budget so it gets
// re-issued once the connection is re-established. reason labels the
// failure for spans and the fail-fast error path.
func (c *Client) dropConn(cc *clientConn, reason string) {
	cc.ep.Close()
	cc.ep = nil
	cc.lastErr = reason
	if cc.awaiting > 0 {
		cc.awaiting = 0
		c.sent--
		cc.deadReqIdx = cc.reqIdx
		if c.trace != nil && cc.inflight != 0 {
			c.trace.Span(otrace.Span{
				Trace: cc.inflight, Ctx: otrace.Ctx(cc.inflight, cc.retries+1),
				Kind: otrace.KindAttempt, Name: "fail", Start: c.now(),
				Note: reason,
			})
		}
	}
	cc.reqIdx = -1
	cc.retries++
	if cc.retries > maxReconnects {
		return // permanently dead; remaining conns carry the load
	}
	// Deterministic exponential backoff: 1, 2, 4, ... Step calls.
	cc.backoff = 1 << uint(cc.retries-1)
}

// DeadDetail describes, per permanently-failed connection, the request
// that was in flight when it last died and the final error — enough to
// debug a failed run from the error string alone. Capped at 8 entries.
func (c *Client) DeadDetail() string {
	var b strings.Builder
	n := 0
	for i, cc := range c.conns {
		if cc.ep != nil || cc.retries <= maxReconnects {
			continue
		}
		if n == 8 {
			b.WriteString("; ...")
			break
		}
		if n > 0 {
			b.WriteString("; ")
		}
		if cc.deadReqIdx >= 0 {
			fmt.Fprintf(&b, "conn %d: req #%d in flight, last error %q", i, cc.deadReqIdx, cc.lastErr)
		} else {
			fmt.Fprintf(&b, "conn %d: idle, last error %q", i, cc.lastErr)
		}
		n++
	}
	if n == 0 {
		return "no per-connection detail recorded"
	}
	return b.String()
}

// stepReconnect advances a dropped connection's backoff and re-dials
// once it expires. Dial failures (backlog full, server mid-restart) are
// retried on the next step.
func (c *Client) stepReconnect(cc *clientConn) {
	if cc.retries == 0 || cc.retries > maxReconnects {
		return // never connected, or gave up
	}
	if cc.backoff > 0 {
		cc.backoff--
		return
	}
	ep, err := c.stack.Connect(c.port)
	if err != nil {
		return
	}
	cc.ep = ep
}

// Done reports whether all requested responses have been received.
func (c *Client) Done() bool { return c.completed >= c.target }

// AllDead reports whether no connection can ever make progress again:
// every endpoint is down and none is still inside its reconnect budget.
// Meaningful once Connect has succeeded; callers use it to fail fast
// instead of spinning a dead client to the stall guard.
func (c *Client) AllDead() bool {
	if len(c.conns) == 0 {
		return true
	}
	for _, cc := range c.conns {
		if cc.ep != nil {
			return false
		}
		if cc.retries >= 1 && cc.retries <= maxReconnects {
			return false // in backoff; will re-dial
		}
	}
	return true
}

// Completed returns the number of completed requests.
func (c *Client) Completed() int { return c.completed }

// Close closes every connection.
func (c *Client) Close() {
	for _, cc := range c.conns {
		if cc.ep != nil {
			cc.ep.Close()
		}
	}
}

// AttachFunc installs an interposition mechanism on the server's initial
// task before it runs; nil benchmarks native execution.
type AttachFunc func(*kernel.Kernel, *kernel.Task) error

// Config parameterises one benchmark run.
type Config struct {
	Style guest.ServerStyle
	// Workers is the pre-forked worker count (1 or 12 in the paper).
	Workers int
	// FileSize is the static file size in bytes.
	FileSize int
	// Connections is the number of concurrent keep-alive connections
	// (the paper's wrk uses 36 threads).
	Connections int
	// Requests is the total request count to issue.
	Requests int
	// Attach installs the mechanism under test (nil = baseline).
	Attach AttachFunc
	// Costs overrides the cost model (zero value = default).
	Costs kernel.CostModel
	// DisableDecodeCache runs the simulated CPUs without the decoded-
	// instruction cache. Results are identical either way (the cache is
	// semantically invisible); CI uses this to prove it.
	DisableDecodeCache bool
	// DisableTLB and DisableSuperblocks switch off the data-path fast
	// path (the per-task software D-TLB and superblock execution). Like
	// the decode cache, both are semantically invisible; CI uses these
	// to prove it.
	DisableTLB         bool
	DisableSuperblocks bool
	// DisableChaining and DisableTraces switch off the block-chaining and
	// hot-trace layers, with the same invisibility contract.
	DisableChaining bool
	DisableTraces   bool
	// ChaosSeed and ChaosRate configure deterministic fault injection
	// (see internal/chaos). Rate 0 disables it entirely. The multi-task
	// server makes scheduling mechanism-dependent, so chaos webbench runs
	// promise per-(mechanism, seed, rate) reproducibility rather than the
	// cross-mechanism invariance of the single-task suites.
	ChaosSeed uint64
	ChaosRate float64
	// Telemetry, when non-nil, attaches a telemetry sink to the kernel.
	// It is strictly observational (DESIGN.md §9): Result is identical
	// with or without it.
	Telemetry *telemetry.Sink
	// Policy configures the syscall-policy enforcement layers
	// (DESIGN.md §12). nil — or a config with both layers off — is
	// byte-identical to a kernel without the layer.
	Policy *kernel.PolicyConfig
	// Trace attaches a request tracer (DESIGN.md §14): each request gets
	// a deterministic ID from (TraceSeed, index) and the serving worker's
	// syscalls attribute to it. nil is byte-identical to no tracer.
	Trace     *otrace.Tracer
	TraceSeed uint64
	// Cores is the host-parallelism budget for the kernel's scheduler
	// (DESIGN.md §15). Result is byte-identical for every value; only
	// wall-clock time changes. <= 1 selects the sequential scheduler.
	Cores int
	// Stats, when non-nil, receives execution diagnostics after the run.
	// Purely observational: it never feeds back into Result.
	Stats *RunStats
}

// RunStats reports how a run executed — wall-clock-side diagnostics
// that, unlike Result, may legitimately vary with Cores.
type RunStats struct {
	// ParallelRounds is the number of scheduling rounds that ran on
	// shard goroutines (kernel.ParallelRounds). Zero under Cores <= 1,
	// or when the workload never had two runnable share-groups.
	ParallelRounds uint64
}

// Result is one run's outcome.
type Result struct {
	// Requests completed.
	Requests int
	// ServerCycles is the total service time: the sum of cycles consumed
	// by all workers. With W workers on W cores, wall time is
	// ServerCycles/W under balanced load; using the aggregate keeps the
	// metric stable under the connection-to-worker imbalance keep-alive
	// pinning creates.
	ServerCycles uint64
	// CyclesPerRequest is ServerCycles / Requests.
	CyclesPerRequest float64
	// Throughput is requests/second at the modelled 2.1 GHz clock,
	// assuming the workers' cores run in parallel.
	Throughput float64
}

// ClockHz is the modelled CPU frequency (the paper's Xeon Gold 5318S).
const ClockHz = 2.1e9

const port = 8080

// Symbols returns the symbol table of the server guest a configuration
// runs, for symbolizing telemetry profiler samples taken during Run.
func Symbols(cfg Config) (map[string]uint64, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	prog, err := guest.WebServer(guest.WebServerConfig{
		Style:   cfg.Style,
		Port:    port,
		Path:    "/www/static",
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return prog.Image.Symbols, nil
}

// boot builds the kernel and its static content, spawns and attaches
// the server, and runs until the client's connections are established.
// cfg.Workers and cfg.Connections are set (Run defaults them).
func boot(cfg Config) (*kernel.Kernel, *kernel.Task, *Client, error) {
	k := kernel.New(kernel.Config{
		Costs:              cfg.Costs,
		DisableDecodeCache: cfg.DisableDecodeCache,
		DisableTLB:         cfg.DisableTLB,
		DisableSuperblocks: cfg.DisableSuperblocks,
		DisableChaining:    cfg.DisableChaining,
		DisableTraces:      cfg.DisableTraces,
		ChaosSeed:          cfg.ChaosSeed,
		ChaosRate:          cfg.ChaosRate,
		Telemetry:          cfg.Telemetry,
		Policy:             cfg.Policy,
		Trace:              cfg.Trace,
		Cores:              cfg.Cores,
	})

	// Static content.
	content := make([]byte, cfg.FileSize)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	if err := k.FS.MkdirAll("/www", 0o755); err != nil {
		return nil, nil, nil, err
	}
	if err := k.FS.WriteFile("/www/static", content, 0o644); err != nil {
		return nil, nil, nil, err
	}
	// Content is final: seal the filesystem so worker file reads are
	// pure and can run concurrently (kernel/parallel.go).
	k.FS.Seal()

	prog, err := guest.WebServer(guest.WebServerConfig{
		Style:   cfg.Style,
		Port:    port,
		Path:    "/www/static",
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	master, err := prog.Spawn(k)
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.Attach != nil {
		if err := cfg.Attach(k, master); err != nil {
			return nil, nil, nil, err
		}
	}

	// Boot: run until the listener is up and the workers are parked.
	client := NewClient(k.Net, port, cfg.Connections, guest.ResponseHeaderSize+cfg.FileSize, cfg.Requests)
	if cfg.Trace != nil {
		client.EnableTrace(cfg.Trace, cfg.TraceSeed, k.Now)
	}
	booted := false
	for i := 0; i < 1000; i++ {
		k.RunSlice(200_000)
		if err := client.Connect(k); err == nil {
			booted = true
			break
		}
	}
	if !booted {
		return nil, nil, nil, errors.New("webbench: server did not start listening")
	}
	return k, master, client, nil
}

// Run executes one benchmark configuration.
func Run(cfg Config) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 36
	}
	k, master, client, err := boot(cfg)
	if err != nil {
		return Result{}, err
	}

	// Snapshot worker cycles after boot so startup (fork, lazy-rewrite
	// warmup of the event loop) is excluded from the steady-state
	// measurement, like the paper's 30-second steady runs.
	warm := func() map[int]uint64 {
		out := make(map[int]uint64)
		for _, t := range k.Tasks() {
			if t != master {
				out[t.ID] = t.CPU.Cycles
			}
		}
		return out
	}
	start := warm()

	// Serve until the client saw every response.
	for i := 0; ; i++ {
		client.Step()
		if client.Done() {
			break
		}
		if client.AllDead() {
			return Result{}, fmt.Errorf("webbench: all %d connections permanently failed (reconnect budget %d exhausted) at %d/%d requests: %s",
				cfg.Connections, maxReconnects, client.Completed(), cfg.Requests, client.DeadDetail())
		}
		if !k.RunSlice(500_000) {
			return Result{}, errors.New("webbench: all server tasks exited")
		}
		if i > 2_000_000 {
			return Result{}, fmt.Errorf("webbench: stalled at %d/%d requests", client.Completed(), cfg.Requests)
		}
	}
	end := warm()
	client.Close()
	k.KillAll()
	k.RunSlice(1_000_000) // let the kill settle

	var sumDelta uint64
	for id, e := range end {
		sumDelta += e - start[id]
	}
	if sumDelta == 0 {
		return Result{}, errors.New("webbench: no worker consumed cycles")
	}
	res := Result{
		Requests:     client.Completed(),
		ServerCycles: sumDelta,
	}
	res.CyclesPerRequest = float64(sumDelta) / float64(res.Requests)
	res.Throughput = float64(res.Requests) * ClockHz * float64(cfg.Workers) / float64(sumDelta)
	if cfg.Stats != nil {
		cfg.Stats.ParallelRounds = k.ParallelRounds()
	}
	return res, nil
}
