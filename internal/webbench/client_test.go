package webbench

import (
	"strings"
	"testing"

	"lazypoline/internal/netstack"
)

// pumpServer drains one accepted server endpoint: reads whatever request
// bytes arrived and answers each full 16-byte request with a respSize
// response. Returns false once the endpoint is dead.
func pumpServer(t *testing.T, srv *netstack.Endpoint, respSize int) bool {
	t.Helper()
	buf := make([]byte, 1024)
	n, err := srv.Read(buf)
	if err != nil || n == 0 {
		return err == nil && n != 0
	}
	if n%len(requestLine) != 0 {
		t.Fatalf("partial request read: %d bytes", n)
	}
	for i := 0; i < n/len(requestLine); i++ {
		if _, err := srv.Write(make([]byte, respSize)); err != nil {
			return false
		}
	}
	return true
}

// TestMidResponseEOFReconnects: a server that closes mid-response used to
// strand the connection with awaiting > 0 forever. The client must treat
// the EOF like an injected RST — drop, backoff, re-dial — and finish the
// run over the fresh connection.
func TestMidResponseEOFReconnects(t *testing.T) {
	s := netstack.NewStack()
	l, err := s.Listen(8080, 16)
	if err != nil {
		t.Fatal(err)
	}
	const respSize = 32
	c := NewClient(s, 8080, 1, respSize, 2)
	if err := c.Connect(nil); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	c.Step() // issues request 1
	buf := make([]byte, 64)
	if n, err := srv.Read(buf); n != len(requestLine) || err != nil {
		t.Fatalf("request read: %d, %v", n, err)
	}
	srv.Write(make([]byte, respSize/2)) // half the response...
	srv.Close()                         // ...then crash

	c.Step() // drains the half response, then hits EOF
	if cc := c.conns[0]; cc.ep != nil || cc.retries != 1 || cc.awaiting != 0 {
		t.Fatalf("mid-response EOF not treated as drop: ep=%v retries=%d awaiting=%d",
			cc.ep, cc.retries, cc.awaiting)
	}

	for i := 0; !c.Done(); i++ {
		if i > 100 {
			t.Fatalf("stalled after reconnect: %d/2 completed", c.Completed())
		}
		c.Step()
		if fresh, err := l.Accept(); err == nil {
			srv = fresh
		}
		pumpServer(t, srv, respSize)
	}
	if c.Completed() != 2 {
		t.Fatalf("completed %d, want 2", c.Completed())
	}
}

// TestWriteEPIPEReconnects: a keep-alive connection the server closed
// between requests used to "retry" the EPIPE write forever on the dead
// endpoint. It must drop and reconnect instead.
func TestWriteEPIPEReconnects(t *testing.T) {
	s := netstack.NewStack()
	l, err := s.Listen(8080, 16)
	if err != nil {
		t.Fatal(err)
	}
	const respSize = 16
	c := NewClient(s, 8080, 1, respSize, 2)
	if err := c.Connect(nil); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	c.Step() // request 1
	pumpServer(t, srv, respSize)
	c.Step() // response 1
	if c.Completed() != 1 {
		t.Fatalf("completed %d after first exchange, want 1", c.Completed())
	}
	srv.Close() // server drops the idle keep-alive connection

	c.Step() // request 2's write sees EPIPE
	if cc := c.conns[0]; cc.ep != nil || cc.retries != 1 {
		t.Fatalf("EPIPE write did not drop the connection: ep=%v retries=%d", cc.ep, cc.retries)
	}

	for i := 0; !c.Done(); i++ {
		if i > 100 {
			t.Fatalf("stalled after reconnect: %d/2 completed", c.Completed())
		}
		c.Step()
		if fresh, err := l.Accept(); err == nil {
			srv = fresh
		}
		pumpServer(t, srv, respSize)
	}
}

// TestAllDeadDetection: when a hostile peer RSTs every connection until
// all reconnect budgets are exhausted, AllDead must flip to true (in
// bounded steps) so Run can fail fast instead of spinning to the stall
// guard.
func TestAllDeadDetection(t *testing.T) {
	s := netstack.NewStack()
	l, err := s.Listen(8080, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(s, 8080, 2, 16, 100)
	if err := c.Connect(nil); err != nil {
		t.Fatal(err)
	}
	if c.AllDead() {
		t.Fatal("AllDead true on a live client")
	}

	// Sum of exponential backoffs per conn is ~2^maxReconnects steps;
	// 5000 is far beyond it.
	steps := 0
	for ; steps < 5000 && !c.AllDead(); steps++ {
		for {
			srv, err := l.Accept()
			if err != nil {
				break
			}
			srv.InjectRST()
		}
		c.Step()
	}
	if !c.AllDead() {
		t.Fatalf("AllDead never became true after %d steps", steps)
	}
	if c.Completed() != 0 {
		t.Fatalf("completed %d requests through RST storm, want 0", c.Completed())
	}
	for i, cc := range c.conns {
		if cc.retries <= maxReconnects {
			t.Errorf("conn %d declared dead with retries=%d", i, cc.retries)
		}
	}
}

// TestRunFailFastErrorMentionsBudget pins the error text shape without a
// full kernel run: the Run loop formats it from the same constants.
func TestRunFailFastErrorMentionsBudget(t *testing.T) {
	// Compile-time guard that maxReconnects stays the documented bound.
	if maxReconnects != 8 {
		t.Fatalf("maxReconnects = %d; update DESIGN.md §13 if this is intentional", maxReconnects)
	}
	if !strings.Contains(requestLine, "GET /static") {
		t.Fatalf("request line changed: %q", requestLine)
	}
}
