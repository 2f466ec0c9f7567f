package netstack

import (
	"bytes"
	"errors"
	"testing"
)

func TestListenConnectAccept(t *testing.T) {
	s := NewStack()
	l, err := s.Listen(8080, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Accept(); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("accept on empty queue: %v", err)
	}
	client, err := s.Connect(8080)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// Bidirectional transfer.
	if _, err := client.Write([]byte("GET /")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "GET /" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := server.Write([]byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	n, err = client.Read(buf)
	if err != nil || string(buf[:n]) != "200 OK" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}
}

func TestConnectRefusedAndAddrInUse(t *testing.T) {
	s := NewStack()
	if _, err := s.Connect(9999); !errors.Is(err, ErrConnRefused) {
		t.Errorf("connect to unbound port: %v", err)
	}
	if _, err := s.Listen(80, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Listen(80, 1); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("double bind: %v", err)
	}
}

func TestBacklogLimit(t *testing.T) {
	s := NewStack()
	l, err := s.Listen(80, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Connect(80); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Connect(80); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Connect(80); !errors.Is(err, ErrBacklogFull) {
		t.Errorf("third connect: %v", err)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Connect(80); err != nil {
		t.Errorf("connect after drain: %v", err)
	}
}

func TestEOFAfterPeerClose(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	client.Write([]byte("bye"))
	client.Close()

	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("buffered data lost on close: %q %v", buf[:n], err)
	}
	n, err = server.Read(buf)
	if n != 0 || err != nil {
		t.Errorf("want EOF (0, nil), got %d %v", n, err)
	}
	if _, err := server.Write([]byte("x")); !errors.Is(err, ErrPipe) {
		t.Errorf("write to closed peer: %v", err)
	}
}

func TestReadWouldBlockThenData(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()
	buf := make([]byte, 4)
	if _, err := server.Read(buf); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("read with no data: %v", err)
	}
	client.Write([]byte("hi"))
	n, err := server.Read(buf)
	if err != nil || n != 2 {
		t.Errorf("read after data: %d %v", n, err)
	}
}

func TestBackpressure(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	chunk := make([]byte, 64*1024)
	total := 0
	for {
		n, err := client.Write(chunk)
		total += n
		if errors.Is(err, ErrWouldBlock) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if total > RecvBufSize {
			t.Fatalf("wrote %d bytes past the receive buffer cap", total)
		}
	}
	if total != RecvBufSize {
		t.Errorf("filled %d, want %d", total, RecvBufSize)
	}
	if server.Ready()&ReadyIn == 0 {
		t.Error("full buffer should be readable")
	}
	if client.Ready()&ReadyOut != 0 {
		t.Error("client should not be writable against a full peer")
	}
	// Drain a little; client becomes writable again.
	server.Read(make([]byte, 1024))
	if client.Ready()&ReadyOut == 0 {
		t.Error("client should be writable after drain")
	}
}

func TestReadinessTransitions(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	if l.Ready()&ReadyIn != 0 {
		t.Error("idle listener should not be readable")
	}
	client, _ := s.Connect(80)
	if l.Ready()&ReadyIn == 0 {
		t.Error("listener with pending connection should be readable")
	}
	server, _ := l.Accept()
	if server.Ready()&ReadyIn != 0 {
		t.Error("fresh connection should have no data")
	}
	if server.Ready()&ReadyOut == 0 {
		t.Error("fresh connection should be writable")
	}
	client.Write([]byte("x"))
	if server.Ready()&ReadyIn == 0 {
		t.Error("connection with data should be readable")
	}
	client.Close()
	r := server.Ready()
	if r&ReadyHup == 0 {
		t.Error("peer close should set HUP")
	}
}

func TestLargeTransferIntegrity(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	client, _ := s.Connect(80)
	server, _ := l.Accept()

	want := make([]byte, 1<<20)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var got bytes.Buffer
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 32*1024)
		for got.Len() < len(want) {
			n, err := server.Read(buf)
			if errors.Is(err, ErrWouldBlock) {
				continue
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got.Write(buf[:n])
		}
	}()
	sent := 0
	for sent < len(want) {
		n, err := client.Write(want[sent:])
		sent += n
		if err != nil && !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("write: %v", err)
		}
	}
	<-done
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("transfer corrupted")
	}
}

func TestListenerClose(t *testing.T) {
	s := NewStack()
	l, _ := s.Listen(80, 4)
	s.Connect(80)
	l.Close()
	if _, err := s.Connect(80); !errors.Is(err, ErrConnRefused) {
		t.Errorf("connect after close: %v", err)
	}
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("accept after close: %v", err)
	}
	// Port is released.
	if _, err := s.Listen(80, 4); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
}
