package webbench

import (
	"runtime"
	"testing"

	"lazypoline/internal/guest"
)

// steadyStateAllocs boots an nginx-style server on one worker at Cores = 1,
// serves a warm-up batch so every lazily grown buffer has reached its
// size (endpoint rings, the worker's I/O staging, the decode caches), and
// then reports what one further keep-alive request allocates through
// kernel + netstack + the load driver.
func steadyStateAllocs(t *testing.T, fileSize int) (bytesPerReq, objsPerReq float64) {
	t.Helper()
	const conns, warm, measured = 4, 40, 200
	k, _, client, err := boot(Config{
		Style: guest.StyleNginx, Workers: 1, Connections: conns,
		FileSize: fileSize, Requests: warm, Cores: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		for i := 0; !client.Done(); i++ {
			if i > 100_000 || !k.RunSlice(500_000) {
				t.Fatalf("stalled at %d/%d requests", client.Completed(), client.target)
			}
			client.Step()
		}
	}
	serve()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	client.target += measured
	serve()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / measured,
		float64(after.Mallocs-before.Mallocs) / measured
}

// TestSteadyStateRequestAllocs is the allocation gate of the serving data
// path: once warm, a request allocates a few small bookkeeping objects —
// the opened file's handle, descriptor and path string, the closures of
// the blocking calls — and nothing that scales with the size of the file
// it serves. Before the data path was made size-first, sendfile alone
// allocated 256 KiB twice per request.
func TestSteadyStateRequestAllocs(t *testing.T) {
	const (
		// Per request, nginx-style. The design target was < 4 KiB in < 40
		// objects; measured 180-250 B in 4-5, and pinned close to that so
		// that a new per-request buffer of any size shows.
		maxBytes = 1024
		maxObjs  = 16
		// A 256 KiB response outgrows the client's receive buffer once,
		// so its worker blocks in sendfile and is woken one more time than
		// for a 1 KiB response: one more closure, not one more buffer.
		sizeSlackBytes = 256
		sizeSlackObjs  = 4
	)
	smallB, smallN := steadyStateAllocs(t, 1024)
	largeB, largeN := steadyStateAllocs(t, 256*1024)
	t.Logf("per request: 1 KiB file %.0f B in %.1f objects; 256 KiB file %.0f B in %.1f objects",
		smallB, smallN, largeB, largeN)
	for _, m := range []struct {
		name       string
		bytes, obj float64
	}{{"1 KiB", smallB, smallN}, {"256 KiB", largeB, largeN}} {
		if m.bytes >= maxBytes || m.obj >= maxObjs {
			t.Errorf("%s file: %.0f B in %.1f objects per request, want < %d B and < %d objects",
				m.name, m.bytes, m.obj, maxBytes, maxObjs)
		}
	}
	if d := largeB - smallB; d > sizeSlackBytes || d < -sizeSlackBytes {
		t.Errorf("allocation depends on file size: %.0f B per request at 256 KiB vs %.0f B at 1 KiB", largeB, smallB)
	}
	if d := largeN - smallN; d > sizeSlackObjs || d < -sizeSlackObjs {
		t.Errorf("allocation count depends on file size: %.1f objects per request at 256 KiB vs %.1f at 1 KiB", largeN, smallN)
	}
}
