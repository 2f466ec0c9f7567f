package guest

import "sync"

// The assembled-image cache.
//
// Assembling a guest program is pure — the same (name, source) pair
// always yields the same image — yet the experiment sweeps used to
// re-assemble the web server, microbenchmark and JIT corpus once per
// sweep cell, a measurable serial hot spot. BuildCached memoizes each
// assembly into a process-wide immutable cache instead.
//
// Immutability contract: a cached Program (and its Image) is shared by
// every caller, concurrently. Spawning is safe — loader.Image.Load maps
// the image's immutable page frames, and a task that writes a page gets
// a private copy of it — but callers must never mutate
// Image.Segments[].Data or the symbol table. Callers needing a private image must use Build.
var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*Program{}
)

type cacheKey struct{ name, src string } // a hit copies no source text

// BuildCached is Build memoized on (name, src): the program is assembled
// at most once per process and the shared, immutable result is returned
// to every caller. Assembly errors are not cached.
func BuildCached(name, src string) (*Program, error) {
	key := cacheKey{name, src}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[key]; ok {
		return p, nil
	}
	p, err := Build(name, src)
	if err != nil {
		return nil, err
	}
	cache[key] = p
	return p, nil
}
