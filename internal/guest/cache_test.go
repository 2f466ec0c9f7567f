package guest

import (
	"slices"
	"sync"
	"testing"

	"lazypoline/internal/kernel"
)

const cacheTestSrc = Header + `
	_start:
		mov64 rdi, 7
		mov64 rax, SYS_exit
		syscall
	`

// TestBuildCachedMemoizes: the same (name, src) pair assembles once and
// every caller shares the one Program, including under concurrency.
func TestBuildCachedMemoizes(t *testing.T) {
	first, err := BuildCached("cache-test", cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Program, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := BuildCached("cache-test", cacheTestSrc)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i, p := range got {
		if p != first {
			t.Errorf("call %d returned a distinct Program; cache missed", i)
		}
	}
	// Build (uncached) still returns a private copy.
	fresh, err := Build("cache-test", cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == first {
		t.Error("Build returned the cached Program; it must stay private")
	}
}

// TestCoreutilLookupIsFree: a repeated Coreutil call returns the Program
// the first one built and allocates nothing — no source text is put
// together or hashed once a (utility, libc) pair is known.
func TestCoreutilLookupIsFree(t *testing.T) {
	for _, libc := range []Libc{LibcUbuntu2004(false), LibcClearLinux()} {
		first, err := Coreutil("cat", libc)
		if err != nil {
			t.Fatal(err)
		}
		var again *Program
		if n := testing.AllocsPerRun(100, func() { again, _ = Coreutil("cat", libc) }); n != 0 {
			t.Errorf("%s: a repeated Coreutil call allocates %.0f objects, want 0", libc.Name, n)
		}
		if again != first {
			t.Errorf("%s: a repeated Coreutil call returned a different Program", libc.Name)
		}
	}
	if _, err := Coreutil("nosuchutil", LibcClearLinux()); err == nil {
		t.Error("unknown utility: no error")
	}
}

// TestCoreutilConcurrent (for -race): the parallel harness looks
// utilities up from many goroutines; each (utility, libc) still yields
// one Program.
func TestCoreutilConcurrent(t *testing.T) {
	libcs := []Libc{LibcUbuntu2004(false), LibcClearLinux()}
	got := make([][]*Program, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range CoreutilNames {
				for _, libc := range libcs {
					p, err := Coreutil(name, libc)
					if err != nil {
						t.Error(err)
						return
					}
					got[g] = append(got[g], p)
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		if !slices.Equal(got[g], got[0]) {
			t.Errorf("goroutine %d got different Programs than goroutine 0", g)
		}
	}
}

// TestCachedProgramSpawnsAreIsolated: tasks spawned from one cached image
// get private copies of every segment — writes in one machine never leak
// into another, the immutability contract the parallel harness rests on.
func TestCachedProgramSpawnsAreIsolated(t *testing.T) {
	p, err := BuildCached("cache-isolation", cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := kernel.New(kernel.Config{}), kernel.New(kernel.Config{})
	t1, err := p.Spawn(k1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p.Spawn(k2)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.AS.WriteForce(DataBase, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	var b [2]byte
	if err := t2.AS.ReadAt(DataBase, b[:]); err != nil {
		t.Fatal(err)
	}
	if b != [2]byte{0, 0} {
		t.Errorf("task 2 sees task 1's write (%x); cached segments are aliased", b)
	}
	// The shared image itself must still hold the pristine bytes.
	for _, seg := range p.Image.Segments {
		if seg.Addr == DataBase && (seg.Data[0] != 0 || seg.Data[1] != 0) {
			t.Error("cached image data segment was mutated by a task write")
		}
	}
}
