package kernel

import (
	"sync"
	"testing"
)

// TestHcallTableConcurrent (for -race): lookups running while hcalls are
// registered see every published id resolve to its own entry, past every
// growth of the table; ids never issued do not resolve.
func TestHcallTableConcurrent(t *testing.T) {
	const n = 200
	k := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := int64(0); seen < n; {
				seen = k.nhcalls.Load() - 1
				for id := int64(1); id <= seen; id++ {
					if e, ok := k.hcall(id); !ok || e.h == nil || e.concurrent != (id%2 == 0) {
						t.Errorf("id %d of %d published: %+v, %v", id, seen, e, ok)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= n; i++ {
		h := HcallHandler(func(*HcallCtx) error { return nil })
		if id := k.registerHcall(h, i%2 == 0); id != int64(i) {
			t.Fatalf("registration %d got id %d", i, id)
		}
	}
	wg.Wait()
	for _, id := range []int64{-1, 0, n + 1, 1 << 40} {
		if _, ok := k.hcall(id); ok {
			t.Errorf("unregistered id %d resolved", id)
		}
	}
}
