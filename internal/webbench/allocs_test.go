package webbench

import (
	"runtime"
	"testing"

	"lazypoline/internal/guest"
)

// steadyStateAllocs boots an nginx-style server on one worker, serves a
// warm-up batch so every lazily grown buffer has reached its size
// (endpoint rings, the worker's I/O staging, the decode caches), and then
// reports what one further keep-alive request allocates through
// kernel + netstack + the load driver.
func steadyStateAllocs(t *testing.T, fileSize int) (bytesPerReq, objsPerReq float64) {
	t.Helper()
	const conns, warm, measured = 4, 40, 200
	k, _, client, err := boot(Config{
		Style: guest.StyleNginx, Workers: 1, Connections: conns,
		FileSize: fileSize, Requests: warm,
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
// path: once warm, a request allocates one small object — the descriptor
// that holds the file it opens, whose path resolves from the guest's
// bytes — and nothing that scales with the size of the file it serves.
// Before the data path was made size-first, sendfile alone allocated
// 256 KiB twice per request.
func TestSteadyStateRequestAllocs(t *testing.T) {
	const (
		// Per request, nginx-style. The design target was < 4 KiB in < 40
		// objects; measured 96 B in 1, and pinned close to that so that a
		// new per-request buffer of any size shows.
		maxBytes = 1024
		maxObjs  = 4
		// A 256 KiB response outgrows the client's receive buffer once,
		// so its worker blocks in sendfile and is woken one more time than
		// for a 1 KiB response: that must not cost a buffer.
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

// TestWarmCellAllocs is the per-cell allocation gate: once a process has
// run a cell, running it again must not pay for its receive buffers a
// second time. Receive-ring arrays come from the netstack's free list,
// sendfile reads the file straight into the client's ring and the client
// discards what it counts, so what a warm cell allocates per request is
// bookkeeping — not the 256 KiB arrays every connection used to grow
// afresh in every cell (13-87 KB per request before).
func TestWarmCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const maxBytesPerReq = 8 << 10
	for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
		for _, size := range []int{64 << 10, 256 << 10} {
			for _, workers := range []int{1, 12} {
				cfg := Config{Style: style, Workers: workers, FileSize: size, Requests: 240}
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err := Run(cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Requests)
				t.Logf("%s, %d KiB, %2d workers: %.0f B per request", style, size>>10, workers, perReq)
				if perReq > maxBytesPerReq {
					t.Errorf("%s, %d KiB file, %d workers: a warm cell allocates %.0f B per request, want <= %d",
						style, size>>10, workers, perReq, maxBytesPerReq)
				}
			}
		}
	}
}
