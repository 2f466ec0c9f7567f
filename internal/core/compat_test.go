package core

import (
	"bytes"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
)

// TestCoreutilsIdenticalUnderLazypoline is the non-intrusiveness check:
// every coreutil, on both libc variants, must produce byte-identical
// console output and the same exit code under lazypoline as natively —
// including the xstate-dependent programs (the Listing 1 utilities),
// which is exactly what the default xstate preservation buys.
func TestCoreutilsIdenticalUnderLazypoline(t *testing.T) {
	libcs := []guest.Libc{guest.LibcUbuntu2004(false), guest.LibcClearLinux()}
	for _, libc := range libcs {
		for _, name := range guest.CoreutilNames {
			t.Run(libc.Name+"/"+name, func(t *testing.T) {
				nativeOut, nativeCode := runUtil(t, name, libc, false)
				lazyOut, lazyCode := runUtil(t, name, libc, true)
				if nativeCode != lazyCode {
					t.Errorf("exit: native %d vs lazypoline %d", nativeCode, lazyCode)
				}
				if !bytes.Equal(nativeOut, lazyOut) {
					t.Errorf("output differs:\nnative:     %q\nlazypoline: %q", nativeOut, lazyOut)
				}
			})
		}
	}
}

// TestListing1UtilBreaksWithoutXState is the converse: under the
// no-xstate configuration with a vector-clobbering interposer, a
// Listing-1 utility corrupts its __stack_user pointers — the
// compatibility issue Table III quantifies.
func TestListing1UtilBreaksWithoutXState(t *testing.T) {
	// "ls" is threaded on Ubuntu: its libc_init leaves xmm0 live across
	// two syscalls. Run it with a clobbering interposer and verify the
	// written pointers differ from the native run.
	readStackUser := func(noXState bool) [2]uint64 {
		k := kernel.New(kernel.Config{})
		setupFS(t, k)
		prog, err := guest.Coreutil("ls", guest.LibcUbuntu2004(false))
		if err != nil {
			t.Fatal(err)
		}
		task, err := prog.Spawn(k)
		if err != nil {
			t.Fatal(err)
		}
		clobber := clobberingInterposer()
		if _, err := Attach(k, task, clobber, Options{NoXStateDefault: noXState}); err != nil {
			t.Fatal(err)
		}
		mustRun(t, k)
		// __stack_user lives at DATA+0x100 (see guest.Libc).
		var out [2]uint64
		for i := range out {
			v, err := task.AS.ReadU64(guest.DataBase + 0x100 + uint64(8*i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}

	preserved := readStackUser(false)
	want := uint64(guest.DataBase + 0x100)
	if preserved[0] != want || preserved[1] != want {
		t.Fatalf("with xstate preservation: __stack_user = %#x, want both %#x", preserved, want)
	}
	broken := readStackUser(true)
	if broken == preserved {
		t.Error("without xstate preservation the clobber should corrupt __stack_user")
	}
}

func runUtil(t *testing.T, name string, libc guest.Libc, lazy bool) ([]byte, int) {
	t.Helper()
	k := kernel.New(kernel.Config{})
	setupFS(t, k)
	prog, err := guest.Coreutil(name, libc)
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	if lazy {
		if _, err := Attach(k, task, &countingInterposer{}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	mustRun(t, k)
	return task.ConsoleOut, task.ExitCode
}

func setupFS(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
		if err := k.FS.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for path, contents := range guest.CoreutilFSFiles {
		if err := k.FS.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// countingInterposer is a dummy that counts calls (proving interposition
// actually ran during the comparison).
type countingInterposer struct{ calls int }

func (c *countingInterposer) Enter(*interpose.Call) interpose.Action {
	c.calls++
	return interpose.Continue
}

func (c *countingInterposer) Exit(*interpose.Call) {}

// clobberingInterposer trashes xmm0/xmm1 on every call, standing in for
// an interposer body that uses vector registers "ad libitum".
func clobberingInterposer() interpose.Interposer {
	return interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			c.Task.CPU.X.X[0] = [16]byte{0xAA, 0xBB}
			c.Task.CPU.X.X[1] = [16]byte{0xCC, 0xDD}
			return interpose.Continue
		},
	}
}
