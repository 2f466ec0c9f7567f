package netstack

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestRingArraysRecycled: a ring takes its arrays in power-of-two
// classes from the free list, and a closed endpoint's array is the one
// the next connection's ring of that class gets.
func TestRingArraysRecycled(t *testing.T) {
	r, w := NewPipe()
	if _, err := w.Write(ramp[:100_000]); err != nil {
		t.Fatal(err)
	}
	if got := len(r.rx.buf); got != 128*1024 {
		t.Fatalf("array of %d bytes for 100000, want the 128 KiB class", got)
	}
	first := &r.rx.buf[0]
	r.Close()
	w.Close()
	if r.rx.buf != nil {
		t.Fatal("a closed endpoint still holds its array")
	}

	r, w = NewPipe()
	defer r.Close()
	defer w.Close()
	if _, err := w.Write(ramp[1:100_001]); err != nil {
		t.Fatal(err)
	}
	if &r.rx.buf[0] != first {
		t.Fatal("the next connection's ring did not reuse the closed one's array")
	}
	got := make([]byte, 100_000)
	if n, err := r.Read(got); n != len(got) || err != nil || !bytes.Equal(got, ramp[1:100_001]) {
		t.Fatalf("Read = %d, %v; or the bytes differ from what was written", n, err)
	}
}

// TestRingPoolBounds: the free list keeps no array past RecvBufSize and
// never more than ringPoolBytes in all.
func TestRingPoolBounds(t *testing.T) {
	ringPool.put(make([]byte, 2*RecvBufSize))
	for i := 0; i < 2*ringPoolBytes/RecvBufSize; i++ {
		ringPool.put(make([]byte, RecvBufSize))
	}
	ringPool.mu.Lock()
	defer ringPool.mu.Unlock()
	if ringPool.bytes > ringPoolBytes {
		t.Errorf("free list keeps %d bytes, bound %d", ringPool.bytes, ringPoolBytes)
	}
	sum := 0
	for c, class := range ringPool.free {
		for _, buf := range class {
			if len(buf) != minRingSize<<c {
				t.Errorf("class %d holds a %d-byte array", c, len(buf))
			}
			sum += len(buf)
		}
	}
	if sum != ringPool.bytes {
		t.Errorf("free list holds %d bytes, counts %d", sum, ringPool.bytes)
	}
}

var errSourceFailed = errors.New("source failed")

// failingSource holds good bytes up to bad and fails any read past it.
type failingSource struct {
	data []byte
	bad  uint64
}

func (s failingSource) ReadAt(p []byte, off uint64) (int, error) {
	if off+uint64(len(p)) > s.bad {
		return 0, errSourceFailed
	}
	return copy(p, s.data[off:]), nil
}

func (failingSource) SealedExtent(uint64, int) ([]byte, bool) { return nil, false }

// TestWriteFromSourceErrorSendsNothing: a source that fails — here on
// the second, wrapped piece of the ring's free tail — leaves the
// receive buffer as it was and its error is returned.
func TestWriteFromSourceErrorSendsNothing(t *testing.T) {
	r, w := NewPipe()
	defer r.Close()
	defer w.Close()
	w.Write(ramp[:400])
	r.Read(make([]byte, 300)) // 100 bytes left, at 300..399 of a 512-byte array
	src := failingSource{data: ramp, bad: 200}
	if n, err := w.WriteFrom(src, 0, 300); n != 0 || !errors.Is(err, errSourceFailed) {
		t.Fatalf("WriteFrom = %d, %v; want 0, the source's error", n, err)
	}
	got := make([]byte, 512)
	if n, _ := r.Read(got); !bytes.Equal(got[:n], ramp[300:400]) {
		t.Fatalf("read back %d bytes that are not the 100 written before the failed WriteFrom", n)
	}
}

// TestWriteRacingPeerCloseLeavesNoBuffer: a writer streaming (Write and
// WriteFrom) into an endpoint, interleaved with the reader's reads and
// polls until the reader closes at a point that varies by iteration, ends
// on ErrPipe, and the closed side holds no bytes and no array afterwards.
// With faults on, held segments and their delivery meet the close too.
func TestWriteRacingPeerCloseLeavesNoBuffer(t *testing.T) {
	for _, faults := range []bool{false, true} {
		for iter := 0; iter < 200; iter++ {
			s := NewStack()
			if faults {
				s.SetFaults(&coinPlan{rng: rand.New(rand.NewSource(int64(iter))), drop: 0.2, delay: 0.2})
			}
			l, _ := s.Listen(80, 4)
			client, _ := s.Connect(80)
			server, _ := l.Accept()

			var last error
			buf := make([]byte, 1024)
			for k := 0; last == nil; k++ {
				var err error
				if k%2 == 0 {
					_, err = client.Write(ramp[:4096])
				} else {
					_, err = client.WriteFrom(byteSource(ramp), uint64(k%256), 4096)
				}
				if err != nil && !errors.Is(err, ErrWouldBlock) {
					last = err
				}
				switch {
				case k < 2*(iter%16):
					server.Read(buf)
					server.Ready()
				case k == 2*(iter%16):
					server.Close()
					server.Ready()
				}
			}
			client.Close()

			if !errors.Is(last, ErrPipe) {
				t.Fatalf("faults %v iter %d: the writer ended on %v, want ErrPipe", faults, iter, last)
			}
			if n := server.Buffered(); n != 0 {
				t.Fatalf("faults %v iter %d: the closed side has %d bytes buffered", faults, iter, n)
			}
			if server.rx.buf != nil || server.rx.x != nil {
				t.Fatalf("faults %v iter %d: the closed side holds a receive array or extent list", faults, iter)
			}
		}
	}
}

// TestSealedExtentsByReference: a sealed source's bytes are queued by
// reference — no ring array is taken for them, each run takes a slot —
// owned bytes written between them keep their place in the stream, and
// Discard drops extents unread.
func TestSealedExtentsByReference(t *testing.T) {
	r, w := NewPipe()
	defer r.Close()
	defer w.Close()
	file := sealedBytes(ramp[:4096:4096])
	for off := 0; off < 3000; off += 1000 {
		if n, err := w.WriteFrom(file, uint64(off), 1000); n != 1000 || err != nil {
			t.Fatalf("WriteFrom(%d) = %d, %v", off, n, err)
		}
	}
	if r.rx.buf != nil || len(r.rx.x.q)-r.rx.x.head != 3 {
		t.Fatalf("three runs of one file: ring array %v, %d extents; want none, 3", r.rx.buf != nil, len(r.rx.x.q)-r.rx.x.head)
	}
	w.Write([]byte("hdr"))
	w.WriteFrom(file, 3000, 10)
	got := make([]byte, 3013)
	if n, err := r.Read(got); n != len(got) || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	want := append(append(append([]byte{}, ramp[:3000]...), "hdr"...), ramp[3000:3010]...)
	if !bytes.Equal(got, want) {
		t.Fatal("the stream is not the file's bytes, the owned header and the file's again, in order")
	}
	w.WriteFrom(file, 0, 4096)
	if n, err := r.Discard(5000); n != 4096 || err != nil || r.Buffered() != 0 {
		t.Fatalf("Discard = %d, %v; %d left", n, err, r.Buffered())
	}
}

// TestExtentPoolBounds: the extent free list keeps no list past
// extentPoolCap slots and never more than extentPoolSize lists, and a
// list it hands out holds no reference to what was queued before.
func TestExtentPoolBounds(t *testing.T) {
	extentPool.put(&extents{q: make([]extent, 0, extentPoolCap+1)})
	for i := 0; i < extentPoolSize+8; i++ {
		x := &extents{q: make([]extent, 2, extentPoolCap), head: 1, owned: 3, bytes: 4}
		x.q[0].p, x.q[1].p = ramp[:1], ramp[1:2]
		extentPool.put(x)
	}
	extentPool.mu.Lock()
	n := len(extentPool.free)
	for _, x := range extentPool.free {
		if cap(x.q) > extentPoolCap {
			t.Errorf("the free list keeps a list of %d slots", cap(x.q))
		}
		if x.head != 0 || x.owned != 0 || x.bytes != 0 || len(x.q) != 0 || cap(x.q) > 0 && x.q[:cap(x.q)][0].p != nil {
			t.Fatal("a pooled extent list is not empty or still references queued bytes")
		}
	}
	extentPool.mu.Unlock()
	if n > extentPoolSize {
		t.Errorf("free list keeps %d extent lists, bound %d", n, extentPoolSize)
	}
}
