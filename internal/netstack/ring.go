package netstack

import (
	"math/bits"
	"sync"
)

// ring is an endpoint's receive buffer: a byte queue over one backing
// array. Nothing is allocated until the first byte arrives (idle
// connections and unused pipe ends cost nothing); the array is then
// taken from the process-wide free list (ringPool) and, whenever a write
// does not fit, swapped for one of at least twice the size, rounded up
// to a power of two: up to RecvBufSize — all that Write's space check
// ever admits — and past it only for the one case that overfills by
// design, a close flushing held segments. Every array it gives up (on
// growth, on the last Close, on a reset) goes back to the list. Guarded
// by the owning endpoint's mu.
type ring struct {
	buf  []byte // backing array; len(buf) is the capacity
	head int    // index of the oldest unread byte
	n    int    // unread bytes
}

// minRingSize is the first backing array's size: room for a request
// line or a response header without a second allocation.
const minRingSize = 512

// write queues p, growing the backing array if p does not fit.
func (r *ring) write(p []byte) { r.fill(segment{p: p}, len(p)) }

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

// grow moves the queue to the front of an array of at least need bytes,
// giving the old one back to the free list.
func (r *ring) grow(need int) {
	size := max(2*len(r.buf), need, minRingSize)
	if need <= RecvBufSize {
		size = minRingSize << ringClass(min(size, RecvBufSize)) // round up to a class
	}
	buf := ringPool.get(size)
	c := copy(buf[:r.n], r.buf[r.head:])
	copy(buf[c:r.n], r.buf)
	ringPool.put(r.buf)
	r.buf, r.head = buf, 0
}

// release gives the backing array back to the free list and empties the
// ring. A closed endpoint holds no array.
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

// get returns an array of size bytes: a class size, or (only for the
// close-flush overfill) more than RecvBufSize, which is never pooled.
func (p *arrayPool) get(size int) []byte {
	if size <= RecvBufSize {
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
	}
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

// Source is what WriteFrom reads the bytes it sends from. *fs.File
// qualifies: sendfile reads the file straight into the peer's ring.
type Source interface {
	ReadAt(p []byte, off uint64) (int, error)
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
