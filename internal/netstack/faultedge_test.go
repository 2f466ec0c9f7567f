package netstack

import (
	"errors"
	"testing"
)

// scriptPlan is a FaultPlan whose decisions are driven by per-connection
// scripts: each query pops the next answer for its connection (false when
// the script is exhausted). Deterministic and order-inspectable, which is
// what the edge-case tests need.
type scriptPlan struct {
	drops, delays, resets map[uint64][]bool
}

func pop(m map[uint64][]bool, id uint64) bool {
	s := m[id]
	if len(s) == 0 {
		return false
	}
	v := s[0]
	m[id] = s[1:]
	return v
}

func (p *scriptPlan) Drop(id uint64) bool  { return pop(p.drops, id) }
func (p *scriptPlan) Delay(id uint64) bool { return pop(p.delays, id) }
func (p *scriptPlan) Reset(id uint64) bool { return pop(p.resets, id) }

// TestCloseDeliversStagedSegmentsBeforeFIN: a FIN queues behind in-flight
// data. Segments the fault plan was still holding (dropped/delayed) when
// the writer closes must be delivered to the peer before it can observe
// EOF — a reliable stream never loses acknowledged writes to a close.
func TestCloseDeliversStagedSegmentsBeforeFIN(t *testing.T) {
	s := NewStack()
	s.SetFaults(&scriptPlan{
		// First segment dropped (retransmit, 2-poll hold); second delayed;
		// third stages behind the first two with no extra hold.
		drops:  map[uint64][]bool{1: {true, false, false}},
		delays: map[uint64][]bool{1: {false, true, false}},
		resets: map[uint64][]bool{},
	})
	l, _ := s.Listen(80, 4)
	client, err := s.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	server, _ := l.Accept()

	for _, seg := range []string{"aaaa", "bbbb", "cccc"} {
		if _, err := client.Write([]byte(seg)); err != nil {
			t.Fatalf("write %q: %v", seg, err)
		}
	}
	// Nothing delivered yet: the head segment is two reader polls away.
	if n, err := server.Read(make([]byte, 16)); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read before delivery: %d, %v (want EAGAIN)", n, err)
	}
	// FIN while all three segments are still staged.
	client.Close()

	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "aaaabbbbcccc" {
		t.Fatalf("staged data lost to FIN: %q, %v", buf[:n], err)
	}
	if n, err := server.Read(buf); n != 0 || err != nil {
		t.Fatalf("want EOF after staged delivery, got %d, %v", n, err)
	}
}

// TestCloseStagedDataNotDeliveredToClosedPeer: the FIN-flush must not
// resurrect buffers on a peer that is already closed.
func TestCloseStagedDataNotDeliveredToClosedPeer(t *testing.T) {
	s := NewStack()
	s.SetFaults(&scriptPlan{
		drops:  map[uint64][]bool{1: {true}},
		delays: map[uint64][]bool{},
		resets: map[uint64][]bool{},
	})
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	if _, err := client.Write([]byte("staged")); err != nil {
		t.Fatal(err)
	}
	server.Close()
	client.Close() // must not panic or write into the closed server
	if n, err := server.Read(make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read on closed endpoint: %d, %v", n, err)
	}
}

// TestBacklogAccountingInterleavedConnects: with more dials than backlog,
// interleaved with polls of the listener, exactly backlog connections
// establish, every other dial is counted as a backlog drop and leaves the
// listener's version alone, and the accept high-water mark records the
// full queue. Connection ids are only consumed by the established
// connections.
func TestBacklogAccountingInterleavedConnects(t *testing.T) {
	const backlog, dials = 8, 32
	s := NewStack()
	l, err := s.Listen(80, backlog)
	if err != nil {
		t.Fatal(err)
	}

	var ok, full int
	for i := 0; i < dials; i++ {
		_, before, _ := l.Poll()
		ep, err := s.Connect(80)
		r, after, _ := l.Poll()
		switch {
		case err == nil:
			ok++
			if ep.ConnID() != uint64(ok) {
				t.Fatalf("dial %d: connID %d, want %d", i, ep.ConnID(), ok)
			}
			if after == before || r&ReadyIn == 0 {
				t.Fatalf("dial %d: an established connection left the listener at version %d, readiness %v", i, after, r)
			}
		case errors.Is(err, ErrBacklogFull):
			full++
			if after != before {
				t.Fatalf("dial %d: a dropped dial moved the listener's version", i)
			}
		default:
			t.Fatalf("unexpected connect error: %v", err)
		}
	}

	if ok != backlog || full != dials-backlog {
		t.Fatalf("established %d / dropped %d, want %d / %d", ok, full, backlog, dials-backlog)
	}
	stats := s.Stats()
	if got := stats.BacklogDrops; got != dials-backlog {
		t.Errorf("BacklogDrops = %d, want %d", got, dials-backlog)
	}
	if got := stats.AcceptHighWater; got != backlog {
		t.Errorf("AcceptHighWater = %d, want %d", got, backlog)
	}
	if got := stats.Accepted; got != backlog {
		t.Errorf("Accepted = %d, want %d", got, backlog)
	}
	// Drain one, dial again: the next id continues the established
	// sequence — the 24 dropped dials consumed none.
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	ep, err := s.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.ConnID(); got != backlog+1 {
		t.Errorf("post-drain connID = %d, want %d", got, backlog+1)
	}
}

// TestRefusedDialConsumesNoConnID: dials refused because no listener is
// bound (a backend mid-restart) must not shift the fault-plan streams of
// later connections.
func TestRefusedDialConsumesNoConnID(t *testing.T) {
	s := NewStack()
	for i := 0; i < 5; i++ {
		if _, err := s.Connect(80); !errors.Is(err, ErrConnRefused) {
			t.Fatalf("dial %d: %v, want refused", i, err)
		}
	}
	l, _ := s.Listen(80, 4)
	ep, err := s.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.ConnID(); got != 1 {
		t.Errorf("first established connID = %d, want 1 (refused dials must not consume ids)", got)
	}
	l.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Connect(80); !errors.Is(err, ErrConnRefused) {
			t.Fatalf("post-close dial %d: %v, want refused", i, err)
		}
	}
	l2, _ := s.Listen(80, 4)
	defer l2.Close()
	ep2, err := s.Connect(80)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep2.ConnID(); got != 2 {
		t.Errorf("second established connID = %d, want 2", got)
	}
}

// TestInjectRSTDiscardsEverything: an injected RST hard-closes both
// sides, discards buffered data, and is visible as ErrReset — the
// primitive the fleet RST-storm drill is built on.
func TestInjectRSTDiscardsEverything(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	client.Write([]byte("in flight"))
	client.InjectRST()

	if n, err := server.Read(make([]byte, 16)); !errors.Is(err, ErrReset) {
		t.Errorf("server read after RST: %d, %v", n, err)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Errorf("client write after RST: %v", err)
	}
	if got := s.Stats().Resets; got != 1 {
		t.Errorf("Resets = %d, want 1", got)
	}
}
