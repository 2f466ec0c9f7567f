// Package chaos is a seeded, deterministic fault-injection engine.
//
// An Engine is a pure function of (seed, rate): every decision it makes
// is derived from a splitmix64 stream keyed by a named injection site
// plus a caller-chosen stream id, advanced by a per-stream counter.
// Nothing reads the wall clock, host randomness, or map iteration
// order, so a run is reproducible from (seed, rate) alone — the same
// binary, guest, seed and rate always produce the same fault schedule.
//
// The determinism contract that makes cross-mechanism differential
// testing possible is: callers must key each stream on APPLICATION
// level events (e.g. "task 1001's 3rd read(2)"), never on mechanism
// internal events (a lazypoline rewrite mprotect, a SUD re-issue, a
// sigreturn). Mechanism-internal activity differs between interposers;
// if it advanced a stream, the fault schedules would diverge and the
// chaos-invariance suite could not compare mechanisms byte-for-byte.
// The kernel enforces this by exempting host-synthesised syscalls
// (Kernel.Syscall) and rt_sigreturn from every syscall-boundary site.
//
// A nil *Engine is valid and never fires; every method is nil-safe.
// Kernel construction maps rate <= 0 to a nil engine, which is what
// makes a zero-rate run byte-identical to a chaos-disabled run: the
// hooks reduce to a single pointer comparison.
package chaos

import "sync"

// Site names an injection point. Sites are part of the determinism
// contract: each (Site, id) pair owns an independent PRNG stream, so
// draws at one site can never perturb decisions at another.
type Site uint64

const (
	// SiteSyscallErrno injects -EINTR/-EAGAIN at the syscall boundary.
	SiteSyscallErrno Site = 1 + iota
	// SiteShortRead truncates successful read lengths.
	SiteShortRead
	// SiteShortWrite truncates successful write lengths.
	SiteShortWrite
	// SiteSignalDelay perturbs signal-delivery timing (extra cycles).
	SiteSignalDelay
	// SiteNetDrop drops a written segment (forcing a retransmit delay).
	SiteNetDrop
	// SiteNetDelay delays a written segment by one delivery tick.
	SiteNetDelay
	// SiteNetReset injects a connection reset (RST) on a live endpoint.
	SiteNetReset
	// SiteAllocFail fails an anonymous-memory allocation with ENOMEM.
	SiteAllocFail
	// SiteSchedJitter shortens a scheduler quantum.
	SiteSchedJitter
)

// SiteName names a site for telemetry output.
func SiteName(s Site) string {
	switch s {
	case SiteSyscallErrno:
		return "syscall-errno"
	case SiteShortRead:
		return "short-read"
	case SiteShortWrite:
		return "short-write"
	case SiteSignalDelay:
		return "signal-delay"
	case SiteNetDrop:
		return "net-drop"
	case SiteNetDelay:
		return "net-delay"
	case SiteNetReset:
		return "net-reset"
	case SiteAllocFail:
		return "alloc-fail"
	case SiteSchedJitter:
		return "sched-jitter"
	}
	return "unknown"
}

// Engine is a deterministic fault plan. The zero value is unusable;
// construct with New. A nil Engine never fires.
//
// The engine is safe for concurrent use. Each (site, id) pair is an
// independent splitmix64 stream, so interleaving draws from different
// streams never changes any stream's sequence — concurrent callers that
// use disjoint (site, id) pairs observe exactly the values a sequential
// schedule would have produced; the mutex only protects the counter
// map itself.
type Engine struct {
	mu        sync.Mutex
	seed      uint64
	threshold uint64 // fire when next draw < threshold
	counters  map[streamKey]uint64
	// fires counts injections per site — bookkeeping for telemetry,
	// never consulted by the decision functions.
	fires map[Site]uint64
}

type streamKey struct {
	site Site
	id   uint64
}

// New builds an engine from (seed, rate). rate is a probability in
// [0, 1]; it is clamped. New returns nil for rate <= 0 so that callers
// can use the nil engine as the canonical "chaos disabled" state.
func New(seed uint64, rate float64) *Engine {
	if rate <= 0 {
		return nil
	}
	if rate > 1 {
		rate = 1
	}
	// threshold = rate * 2^64, saturating at the top of the range.
	var threshold uint64
	if rate >= 1 {
		threshold = ^uint64(0)
	} else {
		threshold = uint64(rate * (1 << 32) * (1 << 32))
	}
	return &Engine{
		seed:      seed,
		threshold: threshold,
		counters:  make(map[streamKey]uint64),
		fires:     make(map[Site]uint64),
	}
}

// Splitmix64 is the standard SplitMix64 output function: a bijective
// avalanche over a 64-bit state. Distinct inputs give independent-
// looking outputs, which is all the fault plan, the request-trace IDs
// and the fleet's arrival schedule need.
func Splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw advances the (site, id) stream by one and returns its next
// 64-bit value.
func (e *Engine) draw(site Site, id uint64) uint64 {
	k := streamKey{site: site, id: id}
	e.mu.Lock()
	n := e.counters[k]
	e.counters[k] = n + 1
	e.mu.Unlock()
	// Three rounds of splitmix64 mixing seed, site/id, and counter so
	// that adjacent ids and counters land in unrelated parts of the
	// sequence.
	x := Splitmix64(e.seed ^ uint64(site)*0x9E3779B97F4A7C15)
	x = Splitmix64(x ^ id*0xBF58476D1CE4E5B9)
	return Splitmix64(x ^ n)
}

// Fire reports whether the fault at (site, id) fires for this event,
// advancing the stream. Nil-safe: a nil engine never fires.
func (e *Engine) Fire(site Site, id uint64) bool {
	if e == nil {
		return false
	}
	fired := e.draw(site, id) < e.threshold
	if fired {
		e.mu.Lock()
		e.fires[site]++
		e.mu.Unlock()
	}
	return fired
}

// FireCounts returns a copy of the per-site injection counts. Nil-safe:
// returns nil for a nil engine.
func (e *Engine) FireCounts() map[Site]uint64 {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make(map[Site]uint64, len(e.fires))
	for site, n := range e.fires {
		out[site] = n
	}
	e.mu.Unlock()
	return out
}

// Pick draws a value in [0, n) from the (site, id) stream, advancing
// it. Callers use it after Fire to size a fault (short-read length,
// jitter amount) deterministically. Nil-safe: returns 0.
func (e *Engine) Pick(site Site, id uint64, n uint64) uint64 {
	if e == nil || n == 0 {
		return 0
	}
	return e.draw(site, id) % n
}
