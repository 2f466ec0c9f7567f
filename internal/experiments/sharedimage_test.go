package experiments

import (
	"bytes"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// TestSharedImageParallelKernels (for -race): kernels running at once in a
// -j 2 sweep map one memoized coreutil image, sharing its page frames and
// the blocks decoded from them, while lazypoline patches syscall sites at
// SIGSYS time and zpoline rewrites them at attach — each in its own
// private copy of the page. Every cell matches the same cell run alone,
// and a fresh load afterwards still reads the image's original bytes.
func TestSharedImageParallelKernels(t *testing.T) {
	type result struct {
		now, builds, codeMuts uint64
	}
	cell := func(mech string) (result, error) {
		k, task, err := coldCat(mech)
		if err != nil {
			return result{}, err
		}
		return result{k.Now(), task.CPU.DecodeCacheStats().Builds, task.AS.Stats().CodeMutations}, nil
	}
	mechs := []string{MechLazypoline, MechZpoline, MechBaseline}
	want := make(map[string]result)
	for _, m := range mechs {
		r, err := cell(m)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = r
	}
	got := make([]result, 4*len(mechs))
	err := runSweep(len(got), 2, func(i int) error {
		r, err := cell(mechs[i%len(mechs)])
		got[i] = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if m := mechs[i%len(mechs)]; r != want[m] {
			t.Errorf("cell %d (%s): %+v, alone %+v", i, m, r, want[m])
		}
	}

	prog, err := guest.Coreutil("cat", guest.LibcUbuntu2004(false))
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(kernel.New(kernel.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range prog.Image.Segments {
		if seg.Prot&mem.ProtExec == 0 {
			continue
		}
		b := make([]byte, len(seg.Data))
		if err := task.AS.ReadForce(seg.Addr, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, seg.Data) {
			t.Errorf("segment %#x: a fresh load reads bytes a rewriter wrote into another task's copy", seg.Addr)
		}
	}
}
