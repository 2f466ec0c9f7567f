package netstack

import (
	"math/bits"
	"sync"
)

// rxQueue is an endpoint's receive queue: a byte stream made of owned
// bytes, copied into a ring, and extents — immutable bytes held by
// reference — in the order they were queued. Its length, not the ring's,
// is what RecvBufSize bounds.
type rxQueue struct {
	ring
	// x holds the extents; nil until the first arrives, and taken from
	// and given back to a process-wide free list like the ring's arrays.
	x *extents
}

// extents is the by-reference part of a receive queue.
type extents struct {
	q     []extent // q[head:] are queued, oldest first
	head  int
	owned int // ring bytes queued ahead of the last extent: the sum of q[head:].before
	bytes int // the sum of len(q[head:].p)
}

// extent is one run of bytes held by reference, with the count of owned
// ring bytes that come before it in the stream, after the extent ahead.
type extent struct {
	p      []byte
	before int
}

// len is the number of unread bytes, owned and by reference.
func (q *rxQueue) len() int {
	if q.x == nil {
		return q.ring.n
	}
	return q.ring.n + q.x.bytes
}

// hold queues p by reference, behind every byte queued so far. p must
// never change while it is queued.
func (q *rxQueue) hold(p []byte) {
	if len(p) == 0 {
		return
	}
	if q.x == nil {
		q.x = extentPool.get()
	}
	x := q.x
	if len(x.q) == cap(x.q) && x.head > 0 {
		// Reuse the slots already read before growing.
		live := copy(x.q, x.q[x.head:])
		clear(x.q[live:])
		x.q, x.head = x.q[:live], 0
	}
	x.q = append(x.q, extent{p: p, before: q.ring.n - x.owned})
	x.owned = q.ring.n
	x.bytes += len(p)
}

// read dequeues up to n bytes in stream order, copying them into p unless
// p is nil: owned bytes out of the ring, extents' bytes straight from
// where they are held. Without a destination an extent is dropped
// unread.
func (q *rxQueue) read(p []byte, n int) int {
	n = min(n, q.len())
	x := q.x
	done := 0
	for done < n {
		var dst []byte
		if p != nil {
			dst = p[done:n]
		}
		if x == nil || x.head == len(x.q) {
			done += q.ring.read(dst, n-done) // owned bytes after the last extent
			break
		}
		e := &x.q[x.head]
		if e.before > 0 {
			c := q.ring.read(dst, min(e.before, n-done))
			e.before -= c
			x.owned -= c
			done += c
			continue
		}
		c := min(len(e.p), n-done)
		copy(dst, e.p[:c])
		e.p = e.p[c:]
		x.bytes -= c
		done += c
		if len(e.p) == 0 {
			*e = extent{}
			if x.head++; x.head == len(x.q) {
				x.q, x.head = x.q[:0], 0
			}
		}
	}
	return done
}

// release drops everything queued — extents unread — and gives the
// ring's array and the extent list back to their free lists. A closed
// endpoint holds neither.
func (q *rxQueue) release() {
	q.ring.release()
	if q.x != nil {
		extentPool.put(q.x)
		q.x = nil
	}
}

// extentPoolSize bounds the extent lists the free list keeps — more than
// a serving cell's connections — and extentPoolCap the slots of any one
// of them, so the list holds at most 2 MiB of slots: a list that a
// stream of many small extents grew is left to the collector.
const (
	extentPoolSize = 1024
	extentPoolCap  = 64
)

// extentFreeList is the free list of extent lists, mutex-guarded for the
// reasons arrayPool gives.
type extentFreeList struct {
	mu   sync.Mutex
	free []*extents
}

// extentPool is the process-wide free list every receive queue draws
// its extent list from.
var extentPool extentFreeList

func (l *extentFreeList) get() *extents {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return x
	}
	return &extents{}
}

// put empties x, dropping its references, and keeps it if there is room.
func (l *extentFreeList) put(x *extents) {
	if cap(x.q) > extentPoolCap {
		return
	}
	clear(x.q[:cap(x.q)])
	*x = extents{q: x.q[:0]}
	l.mu.Lock()
	if len(l.free) < extentPoolSize {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// ring is the owned part of a receive queue: a byte queue over one
// backing array. Nothing is allocated until the first byte arrives (idle
// connections and unused pipe ends cost nothing); the array is then
// taken from the process-wide free list (ringPool) and, whenever a write
// does not fit, swapped for one of at least twice the size, rounded up
// to a power of two, up to RecvBufSize — all that Write's space check
// ever admits. Every array it gives up (on growth, on the last Close, on
// a reset) goes back to the list.
type ring struct {
	buf  []byte // backing array; len(buf) is the capacity
	head int    // index of the oldest unread byte
	n    int    // unread bytes
}

// minRingSize is the first backing array's size: room for a request
// line or a response header without a second allocation.
const minRingSize = 512

// fill queues up to n bytes of seg, read straight into the free tail of
// the backing array — in two pieces when that wraps — growing the array
// first if they do not fit. It returns how many bytes were queued: fewer
// than n when seg's source holds fewer, none on a source error.
func (r *ring) fill(seg segment, n int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	if need := r.n + n; need > len(r.buf) {
		r.grow(need)
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	first := min(n, len(r.buf)-tail)
	got, err := seg.readAt(r.buf[tail:tail+first], 0)
	if err == nil && got == first && first < n {
		var more int
		more, err = seg.readAt(r.buf[:n-first], first) // the part that wraps
		got += more
	}
	if err != nil {
		return 0, err
	}
	r.n += got
	return got, nil
}

// grow moves the queue to the front of an array of at least need bytes
// (need <= RecvBufSize), giving the old one back to the free list.
func (r *ring) grow(need int) {
	buf := ringPool.get(minRingSize << ringClass(min(max(2*len(r.buf), need, minRingSize), RecvBufSize)))
	c := copy(buf[:r.n], r.buf[r.head:])
	copy(buf[c:r.n], r.buf)
	ringPool.put(r.buf)
	r.buf, r.head = buf, 0
}

// release gives the backing array back to the free list and empties the
// ring.
func (r *ring) release() {
	ringPool.put(r.buf)
	*r = ring{}
}

// read dequeues up to n bytes, copying them into p unless p is nil.
func (r *ring) read(p []byte, n int) int {
	n = min(n, r.n)
	if p != nil {
		c := copy(p[:n], r.buf[r.head:])
		copy(p[c:n], r.buf) // the part that wrapped
	}
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

// ringClasses is the number of array sizes the free list keeps: powers
// of two from minRingSize to RecvBufSize.
const ringClasses = 10

// ringPoolBytes bounds the bytes the free list keeps. It holds the
// arrays of a few dozen connections' full receive buffers — one serving
// cell's worth — so that the next cell in the process reuses them; an
// array that does not fit is left to the collector.
const ringPoolBytes = 16 << 20

// ringClass is the index of the smallest class of at least size bytes
// (minRingSize <= size <= RecvBufSize).
func ringClass(size int) int { return bits.Len(uint(size-1)) - bits.Len(minRingSize-1) }

// arrayPool is a free list of receive-ring arrays by class. Arrays are
// handed out unzeroed: a ring only ever returns bytes written since it
// took the array. It is a mutex-guarded list rather than a sync.Pool
// because putting a slice into a sync.Pool boxes it (an allocation per
// return), and because the collector drains a sync.Pool, which would tie
// a run's allocations to when collections happen.
type arrayPool struct {
	mu    sync.Mutex
	bytes int // summed len of the arrays in free
	free  [ringClasses][][]byte
}

// ringPool is the process-wide free list every ring draws from.
var ringPool arrayPool

// get returns an array of size bytes, a class size.
func (p *arrayPool) get(size int) []byte {
	c := ringClass(size)
	p.mu.Lock()
	if l := p.free[c]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[c] = l[:len(l)-1]
		p.bytes -= len(buf)
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	return make([]byte, size)
}

// put returns an array that no ring references any more. Arrays past
// RecvBufSize, and any that would take the list over ringPoolBytes, are
// left to the collector.
func (p *arrayPool) put(buf []byte) {
	if len(buf) == 0 || len(buf) > RecvBufSize {
		return
	}
	c := ringClass(len(buf))
	p.mu.Lock()
	if p.bytes+len(buf) <= ringPoolBytes {
		p.free[c] = append(p.free[c], buf)
		p.bytes += len(buf)
	}
	p.mu.Unlock()
}

// Source is what WriteFrom reads the bytes it sends from: *fs.File for
// sendfile, guest memory for write(2).
type Source interface {
	ReadAt(p []byte, off uint64) (int, error)
	// SealedExtent lends up to n bytes from off on (fewer where the
	// source ends), which WriteFrom then queues by reference, or returns
	// ok false when the source cannot promise they never change. An
	// *fs.File lends them on a sealed filesystem; guest memory never does.
	SealedExtent(off uint64, n int) (p []byte, ok bool)
}

// segment is the bytes one Write or WriteFrom hands the connection:
// p itself, or src's bytes from off onward.
type segment struct {
	p   []byte
	src Source
	off uint64
}

// readAt fills dst with the segment's bytes from byte at onward and
// returns how many it produced.
func (s segment) readAt(dst []byte, at int) (int, error) {
	if s.src == nil {
		return copy(dst, s.p[at:]), nil
	}
	return s.src.ReadAt(dst, s.off+uint64(at))
}

// sealed returns up to n of the segment's bytes by reference, when its
// source can lend them.
func (s segment) sealed(n int) ([]byte, bool) {
	if s.src == nil {
		return nil, false
	}
	return s.src.SealedExtent(s.off, n)
}
