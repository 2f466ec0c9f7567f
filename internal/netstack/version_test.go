package netstack

import "testing"

// TestVersionBumps: every change that can turn a missed poll into a hit
// moves the version of the side that would see it (DESIGN.md §15), and a
// poll is settled exactly when nothing is in flight toward its side.
func TestVersionBumps(t *testing.T) {
	// conn returns an established pair whose writes the plan may hold back.
	conn := func(t *testing.T, plan FaultPlan) (client, server *Endpoint, l *Listener) {
		t.Helper()
		s := NewStack()
		s.SetFaults(plan)
		l, err := s.Listen(80, 4)
		if err != nil {
			t.Fatal(err)
		}
		if client, err = s.Connect(80); err != nil {
			t.Fatal(err)
		}
		if server, err = l.Accept(); err != nil {
			t.Fatal(err)
		}
		return client, server, l
	}
	// moves runs op and fails unless each endpoint's version moved.
	moves := func(t *testing.T, what string, op func(), eps ...Pollable) {
		t.Helper()
		before := make([]uint64, len(eps))
		for i, e := range eps {
			before[i] = e.Version()
		}
		op()
		for i, e := range eps {
			if e.Version() == before[i] {
				t.Errorf("%s: version %d of watched object %d did not move", what, before[i], i)
			}
		}
	}

	t.Run("write delivers to the reader", func(t *testing.T) {
		client, server, _ := conn(t, nil)
		moves(t, "write", func() { client.Write([]byte("x")) }, server)
	})
	t.Run("read and discard drain toward the writer", func(t *testing.T) {
		client, server, _ := conn(t, nil)
		client.Write([]byte("xy"))
		moves(t, "read", func() { server.Read(make([]byte, 1)) }, client)
		moves(t, "discard", func() { server.Discard(1) }, client)
	})
	t.Run("close moves both sides", func(t *testing.T) {
		client, server, _ := conn(t, nil)
		moves(t, "close", client.Close, client, server)
	})
	t.Run("RST moves both sides", func(t *testing.T) {
		client, server, _ := conn(t, nil)
		moves(t, "InjectRST", server.InjectRST, client, server)
	})
	t.Run("listener: connect and last close", func(t *testing.T) {
		s := NewStack()
		l, _ := s.Listen(80, 4)
		moves(t, "connect", func() { s.Connect(80) }, l)
		l.AddRef()
		l.Close() // not the last reference: nothing a poll sees changes
		moves(t, "last close", l.Close, l)
		if _, ver, settled := l.Poll(); ver != l.Version() || !settled {
			t.Errorf("listener poll: version %d (now %d), settled %v; want the current version, settled", ver, l.Version(), settled)
		}
	})
	t.Run("staging and delivery of held segments", func(t *testing.T) {
		plan := &scriptPlan{
			drops:  map[uint64][]bool{1: {true}},
			delays: map[uint64][]bool{},
			resets: map[uint64][]bool{},
		}
		client, server, _ := conn(t, plan)
		if _, _, settled := server.Poll(); !settled {
			t.Fatal("poll with nothing in flight is not settled")
		}
		moves(t, "staging", func() { client.Write([]byte("held")) }, server)
		// A drop holds the segment for two reader polls: the first ages
		// it and is not settled, the second delivers it. (Delivery needs
		// no version move: no miss is cached while the segment is held.)
		r, ver, settled := server.Poll()
		if r&ReadyIn != 0 || settled || ver != server.Version() {
			t.Fatalf("first poll: readiness %b, settled %v, version %d (now %d); want a miss, not settled, nothing moved",
				r, settled, ver, server.Version())
		}
		if r, _, settled = server.Poll(); r&ReadyIn == 0 || !settled {
			t.Fatalf("second poll: readiness %b, settled %v; want delivery, settled", r, settled)
		}
	})
	t.Run("close flushes held segments to the reader", func(t *testing.T) {
		plan := &scriptPlan{
			drops:  map[uint64][]bool{1: {true}},
			delays: map[uint64][]bool{},
			resets: map[uint64][]bool{},
		}
		client, server, _ := conn(t, plan)
		client.Write([]byte("held"))
		moves(t, "close with a segment held", client.Close, server)
		if n := server.Buffered(); n != 4 {
			t.Errorf("reader holds %d bytes after the writer's close, want the 4 held ones", n)
		}
	})
	t.Run("pipes are always settled", func(t *testing.T) {
		r, w := NewPipe()
		w.Write([]byte("x"))
		if _, _, settled := r.Poll(); !settled {
			t.Error("pipe poll is not settled")
		}
	})
}
