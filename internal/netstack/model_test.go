package netstack

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// This file pins the Endpoint data path against a deliberately naive
// oracle: a bytes.Buffer per direction plus a slice of held segments.
// Whatever memory the real receive buffer is made of — owned ring bytes
// or extents held by reference — every Read, Discard, Write, WriteFrom,
// Close, InjectRST, Ready and Buffered must answer exactly as the oracle
// does, and RecvHighWater must reach the same mark. WriteFrom is checked
// as a Write of the bytes its source holds, from each kind of source: one
// that copies, a sealed one that lends its bytes, and one that stands for
// guest memory, which changes again as soon as the write returns.
// Discard is checked as a Read whose bytes nobody looks at.

// coinPlan is a FaultPlan that flips seeded coins, so a given seed
// replays the same drop/delay/reset schedule against model and endpoint.
type coinPlan struct {
	rng               *rand.Rand
	drop, delay, rset float64
}

func (p *coinPlan) Drop(uint64) bool  { return p.rng.Float64() < p.drop }
func (p *coinPlan) Delay(uint64) bool { return p.rng.Float64() < p.delay }
func (p *coinPlan) Reset(uint64) bool { return p.rng.Float64() < p.rset }

// modelSide is the oracle's view of one endpoint: rx is what it can
// read, stage what it has written that the fault plan still holds.
type modelSide struct {
	rx     bytes.Buffer
	stage  []stagedSegment
	closed bool
	reset  bool
}

// modelConn is the oracle for a connection; side 0 dials, side 1 accepts.
type modelConn struct {
	side      [2]modelSide
	plan      FaultPlan // nil for pipes
	highWater uint64
	resets    uint64
}

func (m *modelConn) mark(depth int) {
	if uint64(depth) > m.highWater {
		m.highWater = uint64(depth)
	}
}

// tick ages the segments held on the way to side i, as a poll by i does.
func (m *modelConn) tick(i int) {
	me, w := &m.side[i], &m.side[1-i]
	if len(w.stage) == 0 {
		return
	}
	w.stage[0].hold--
	delivered := false
	for len(w.stage) > 0 && w.stage[0].hold <= 0 {
		// A closed endpoint keeps no buffer: segments that come due after
		// their reader closed are dropped, and leave no high-water mark.
		if !me.closed {
			me.rx.Write(w.stage[0].data)
			delivered = true
		}
		w.stage = w.stage[1:]
	}
	if delivered {
		m.mark(me.rx.Len())
	}
}

func (m *modelConn) kill() {
	for i := range m.side {
		s := &m.side[i]
		s.closed, s.reset = true, true
		s.rx.Reset()
		s.stage = nil
	}
}

func (s *modelSide) deadErr() error {
	if s.reset {
		return ErrReset
	}
	return ErrClosed
}

func (m *modelConn) read(i int, p []byte) (int, error) {
	m.tick(i)
	me, peer := &m.side[i], &m.side[1-i]
	if me.closed {
		return 0, me.deadErr()
	}
	if me.rx.Len() == 0 {
		if peer.closed {
			return 0, nil
		}
		return 0, ErrWouldBlock
	}
	return me.rx.Read(p)
}

func (m *modelConn) write(i int, p []byte) (int, error) {
	me, peer := &m.side[i], &m.side[1-i]
	if me.closed {
		return 0, me.deadErr()
	}
	if m.plan != nil && m.plan.Reset(1) {
		m.resets++
		m.kill()
		return 0, ErrReset
	}
	if peer.closed {
		return 0, ErrPipe
	}
	space := RecvBufSize - peer.rx.Len()
	if space <= 0 {
		return 0, ErrWouldBlock
	}
	n := len(p)
	if n > space {
		n = space
	}
	hold := 0
	if m.plan != nil {
		if m.plan.Drop(1) {
			hold = 2
		} else if m.plan.Delay(1) {
			hold = 1
		}
	}
	if hold > 0 || len(me.stage) > 0 {
		me.stage = append(me.stage, stagedSegment{data: append([]byte(nil), p[:n]...), hold: hold})
		return n, nil
	}
	peer.rx.Write(p[:n])
	m.mark(peer.rx.Len())
	return n, nil
}

func (m *modelConn) close(i int) {
	me, peer := &m.side[i], &m.side[1-i]
	if me.closed {
		return
	}
	me.closed = true
	me.rx.Reset()
	if !peer.closed {
		for _, seg := range me.stage {
			peer.rx.Write(seg.data)
		}
	}
	me.stage = nil
}

func (m *modelConn) ready(i int) Readiness {
	m.tick(i)
	me, peer := &m.side[i], &m.side[1-i]
	var r Readiness
	if me.rx.Len() > 0 {
		r |= ReadyIn
	}
	if me.closed {
		return r | ReadyHup
	}
	if peer.closed {
		return r | ReadyIn | ReadyHup
	}
	if RecvBufSize-peer.rx.Len() > 0 {
		r |= ReadyOut
	}
	return r
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return errors.Is(a, b)
}

// ramp[i] == byte(i): a payload whose first byte is b is ramp[b:], which
// fills and checks buffers with copy and bytes.Equal instead of byte loops
// (the difference between 3 s and 40 s under -race).
var ramp = func() []byte {
	r := make([]byte, 2*RecvBufSize+256)
	for i := range r {
		r[i] = byte(i)
	}
	return r
}()

// pickSize draws transfer sizes that hit the edges: empty, tiny, a load
// driver's 64 KiB chunk, exactly what is free or buffered, more than the
// whole receive buffer.
func pickSize(rng *rand.Rand, exact int) int {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return 1 + rng.Intn(16)
	case 2:
		return 64 * 1024
	case 3:
		if exact > 0 {
			return exact
		}
		return 1
	case 4:
		return RecvBufSize + rng.Intn(4096)
	case 5, 6:
		return 1 + rng.Intn(RecvBufSize/2)
	default:
		return 1 + rng.Intn(20_000)
	}
}

// byteSource is a WriteFrom source over a byte slice; reads past its end
// return what is left, and nothing at all from its end on.
type byteSource []byte

func (s byteSource) ReadAt(p []byte, off uint64) (int, error) {
	if off >= uint64(len(s)) {
		return 0, nil
	}
	return copy(p, s[off:]), nil
}

func (byteSource) SealedExtent(uint64, int) ([]byte, bool) { return nil, false }

// sealedBytes is a Source that lends its bytes, which the test never
// changes, as fs.File does.
type sealedBytes []byte

func (s sealedBytes) ReadAt(p []byte, off uint64) (int, error) { return byteSource(s).ReadAt(p, off) }

func (s sealedBytes) SealedExtent(off uint64, n int) ([]byte, bool) {
	if off >= uint64(len(s)) {
		return nil, true
	}
	return s[off:min(uint64(len(s)), off+uint64(n))], true
}

// pagedSource stands for guest memory: it always holds what is asked for
// and copies it a page at a time, and the test scribbles over it once the
// write returns, so that a queue that kept a reference to it would hand
// out garbage.
type pagedSource []byte

func (s pagedSource) ReadAt(p []byte, off uint64) (int, error) {
	for done := 0; done < len(p); {
		done += copy(p[done:min(len(p), done+4096)], s[int(off)+done:])
	}
	return len(p), nil
}

func (pagedSource) SealedExtent(uint64, int) ([]byte, bool) { return nil, false }

// poisonRingPool scribbles over every array on the free list, so that a
// ring handing out a byte it was not written since it took its array
// returns garbage the oracle does not have.
func poisonRingPool(rng *rand.Rand) {
	ringPool.mu.Lock()
	defer ringPool.mu.Unlock()
	for _, class := range ringPool.free {
		for _, buf := range class {
			rng.Read(buf)
		}
	}
}

func runEndpointModel(t *testing.T, seed int64, faults bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	poisonRingPool(rng)
	var (
		ep    [2]*Endpoint
		stats *StackStats
		m     modelConn
	)
	if faults {
		s := NewStack()
		s.SetFaults(&coinPlan{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), drop: 0.15, delay: 0.15, rset: 0.002})
		m.plan = &coinPlan{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), drop: 0.15, delay: 0.15, rset: 0.002}
		l, err := s.Listen(80, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ep[0], err = s.Connect(80); err != nil {
			t.Fatal(err)
		}
		if ep[1], err = l.Accept(); err != nil {
			t.Fatal(err)
		}
		stats = s.Stats()
	} else {
		ep[1], ep[0] = NewPipe()
	}
	// Closing both sides hands their arrays back, for the next
	// connection's rings to take.
	defer ep[0].Close()
	defer ep[1].Close()

	// next payload byte per writing side; a random start, so that bytes
	// left in a recycled array by an earlier connection do not line up
	// with this one's.
	next := [2]byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
	// Each side sends extents from its own sealed file, mostly from where
	// the last one ended, so that the queue holds runs of one file side
	// by side.
	var files [2]sealedBytes
	var fileOff [2]int
	for j := range files {
		files[j] = make(sealedBytes, 3*RecvBufSize)
		rng.Read(files[j])
	}
	guest := make(pagedSource, 2*RecvBufSize+64)
	scratch := make([]byte, 2*RecvBufSize)
	want := make([]byte, len(scratch))
	srcBuf := make([]byte, len(scratch)+64)
	size := func(exact int) int { return min(pickSize(rng, exact), len(scratch)) }
	// The sealed and guest-memory writes draw from past the 100 the other
	// operations share, with steps to match, so that every other
	// operation runs as often per connection as it would among the 100
	// alone.
	for step := 0; step < 4600; step++ {
		i := rng.Intn(2)
		switch op := rng.Intn(115); {
		case op < 30:
			n := size(RecvBufSize - m.side[1-i].rx.Len())
			p := scratch[:n]
			copy(p, ramp[next[i]:])
			gn, gerr := ep[i].Write(p)
			wn, werr := m.write(i, p)
			if gn != wn || !sameErr(gerr, werr) {
				t.Fatalf("seed %d step %d: side %d Write(%d) = %d, %v; model %d, %v", seed, step, i, n, gn, gerr, wn, werr)
			}
			next[i] += byte(gn)
		case op < 45:
			// The source starts past a junk prefix and, one time in
			// four, holds fewer bytes than asked for.
			n := size(RecvBufSize - m.side[1-i].rx.Len())
			held := n
			if rng.Intn(4) == 0 {
				held = rng.Intn(n + 1)
			}
			off := rng.Intn(64)
			src := srcBuf[:off+held]
			rng.Read(src[:off])
			copy(src[off:], ramp[next[i]:])
			gn, gerr := ep[i].WriteFrom(byteSource(src), uint64(off), n)
			wn, werr := m.write(i, src[off:])
			if gn != wn || !sameErr(gerr, werr) {
				t.Fatalf("seed %d step %d: side %d WriteFrom(%d of %d held) = %d, %v; model %d, %v", seed, step, i, n, held, gn, gerr, wn, werr)
			}
			next[i] += byte(gn)
		case op < 75:
			n := size(m.side[i].rx.Len())
			gn, gerr := ep[i].Read(scratch[:n])
			wn, werr := m.read(i, want[:n])
			if gn != wn || !sameErr(gerr, werr) {
				t.Fatalf("seed %d step %d: side %d Read(%d) = %d, %v; model %d, %v", seed, step, i, n, gn, gerr, wn, werr)
			}
			if !bytes.Equal(scratch[:gn], want[:wn]) {
				t.Fatalf("seed %d step %d: side %d Read(%d) returned different bytes than the model", seed, step, i, n)
			}
		case op < 88:
			n := size(m.side[i].rx.Len())
			gn, gerr := ep[i].Discard(n)
			wn, werr := m.read(i, want[:n])
			if gn != wn || !sameErr(gerr, werr) {
				t.Fatalf("seed %d step %d: side %d Discard(%d) = %d, %v; model %d, %v", seed, step, i, n, gn, gerr, wn, werr)
			}
		case op < 96:
			if g, w := ep[i].Ready(), m.ready(i); g != w {
				t.Fatalf("seed %d step %d: side %d Ready = %03b, model %03b", seed, step, i, g, w)
			}
		case op < 98:
			if rng.Intn(8) == 0 {
				ep[i].Close()
				m.close(i)
			}
		case op < 100:
			if rng.Intn(40) == 0 {
				ep[i].InjectRST()
				m.resets++
				m.kill()
			}
		case op < 110:
			// A sealed source: queued by reference, or held back by the
			// fault plan by reference; one time in eight from a fresh
			// offset, sometimes near the file's end, so that it holds
			// fewer bytes than asked for.
			n := size(RecvBufSize - m.side[1-i].rx.Len())
			if rng.Intn(8) == 0 {
				fileOff[i] = rng.Intn(len(files[i]) + 1)
			}
			f := files[i]
			gn, gerr := ep[i].WriteFrom(f, uint64(fileOff[i]), n)
			wn, werr := m.write(i, f[fileOff[i]:min(len(f), fileOff[i]+n)])
			if gn != wn || !sameErr(gerr, werr) {
				t.Fatalf("seed %d step %d: side %d WriteFrom(sealed, %d at %d) = %d, %v; model %d, %v", seed, step, i, n, fileOff[i], gn, gerr, wn, werr)
			}
			fileOff[i] += gn
		default:
			// Guest memory: copied, and scribbled over straight after.
			n := size(RecvBufSize - m.side[1-i].rx.Len())
			off := rng.Intn(64)
			copy(guest[off:off+n], ramp[next[i]:])
			gn, gerr := ep[i].WriteFrom(guest, uint64(off), n)
			wn, werr := m.write(i, guest[off:off+n])
			if gn != wn || !sameErr(gerr, werr) {
				t.Fatalf("seed %d step %d: side %d WriteFrom(guest, %d) = %d, %v; model %d, %v", seed, step, i, n, gn, gerr, wn, werr)
			}
			rng.Read(guest[off : off+n])
			next[i] += byte(gn)
		}
		for j := range ep {
			if m.side[j].closed {
				if ep[j].rx.buf != nil || ep[j].rx.x != nil {
					t.Fatalf("seed %d step %d: closed side %d holds a receive array or extent list", seed, step, j)
				}
			}
			if g, w := ep[j].Buffered(), m.side[j].rx.Len(); g != w {
				t.Fatalf("seed %d step %d: side %d Buffered = %d, model %d", seed, step, j, g, w)
			}
			if g, w := ep[j].space(), RecvBufSize-m.side[j].rx.Len(); g != w {
				t.Fatalf("seed %d step %d: side %d space = %d, model %d", seed, step, j, g, w)
			}
			if g, w := ep[1-j].WriteSpace(), max(RecvBufSize-m.side[j].rx.Len(), 0); g != w {
				t.Fatalf("seed %d step %d: side %d WriteSpace = %d, model %d", seed, step, 1-j, g, w)
			}
		}
		if stats != nil {
			if g := stats.RecvHighWater; g != m.highWater {
				t.Fatalf("seed %d step %d: RecvHighWater = %d, model %d", seed, step, g, m.highWater)
			}
			if g := stats.Resets; g != m.resets {
				t.Fatalf("seed %d step %d: Resets = %d, model %d", seed, step, g, m.resets)
			}
		}
		if m.side[0].closed && m.side[1].closed {
			return
		}
	}
}

// TestEndpointMatchesModel drives random operation sequences — wrapping,
// exactly-full and over-full writes, short sources, sealed extents and
// guest buffers, reads and discards across extents, held (dropped or
// delayed) segments of every kind, closes that flush them, resets —
// through a pipe and through a fault-carrying connection. The 48
// connections run one after another in one process, each taking the
// arrays the ones before it gave back.
func TestEndpointMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		runEndpointModel(t, seed, false)
		runEndpointModel(t, seed, true)
	}
}

// TestEndpointCloseFlushMayOverfill: a close flushes every held segment
// even when together they exceed the receive buffer; the reader sees all
// of it, in order, and space reads negative until it drains.
func TestEndpointCloseFlushMayOverfill(t *testing.T) {
	s := NewStack()
	s.SetFaults(&scriptPlan{drops: map[uint64][]bool{1: {true}}})
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	seg := make([]byte, RecvBufSize)
	for round := 0; round < 3; round++ {
		for j := range seg {
			seg[j] = byte(round + j)
		}
		// Held segments do not count against the peer's space, so each
		// full-buffer write is accepted whole.
		if n, err := client.Write(seg); n != len(seg) || err != nil {
			t.Fatalf("write %d: %d, %v", round, n, err)
		}
	}
	client.Close()
	if got := server.Buffered(); got != 3*RecvBufSize {
		t.Fatalf("Buffered = %d, want %d", got, 3*RecvBufSize)
	}
	if got := server.space(); got != -2*RecvBufSize {
		t.Fatalf("space = %d, want %d", got, -2*RecvBufSize)
	}
	buf := make([]byte, 100_000)
	total := 0
	for {
		n, err := server.Read(buf)
		if n == 0 && err == nil {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			at := total + j
			if want := byte(at/RecvBufSize + at%RecvBufSize); buf[j] != want {
				t.Fatalf("byte %d = %d, want %d", at, buf[j], want)
			}
		}
		total += n
	}
	if total != 3*RecvBufSize {
		t.Fatalf("read %d bytes, want %d", total, 3*RecvBufSize)
	}
}

// TestEndpointInterleavedReaderWriter streams 8 MiB through one
// connection, a seeded coin choosing at every step whether the writer
// writes or the reader reads, each a random size: every byte arrives once
// and in order, and the close reads as EOF after the last one.
func TestEndpointInterleavedReaderWriter(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	const total = 8 << 20
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 80*1024)
	sent, got := 0, 0
	for {
		if sent < total && rng.Intn(2) == 0 {
			n := min(1+rng.Intn(96*1024), total-sent)
			w, err := client.Write(ramp[sent%256:][:n])
			if err != nil && !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("write: %v", err)
			}
			if sent += w; sent == total {
				client.Close()
			}
			continue
		}
		n, err := server.Read(buf[:1+rng.Intn(len(buf))])
		if errors.Is(err, ErrWouldBlock) {
			continue
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if n == 0 {
			break
		}
		if !bytes.Equal(buf[:n], ramp[got%256:][:n]) {
			t.Fatalf("bytes %d..%d arrived corrupted", got, got+n)
		}
		got += n
	}
	if got != total {
		t.Fatalf("read %d bytes, want %d", got, total)
	}
}
