package guest

import (
	"strings"
	"testing"

	"lazypoline/internal/fs"
	"lazypoline/internal/kernel"
)

func setupFS(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	for _, dir := range []string{"/tmp", "/etc", "/var/log", "/src"} {
		if err := k.FS.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for path, contents := range CoreutilFSFiles {
		if err := k.FS.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoreutilsRunCleanNatively(t *testing.T) {
	libcs := []Libc{LibcUbuntu2004(false), LibcClearLinux()}
	for _, libc := range libcs {
		for _, name := range CoreutilNames {
			t.Run(libc.Name+"/"+name, func(t *testing.T) {
				k := kernel.New(kernel.Config{})
				setupFS(t, k)
				prog, err := Coreutil(name, libc)
				if err != nil {
					t.Fatal(err)
				}
				task, err := prog.Spawn(k)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Run(10_000_000); err != nil {
					t.Fatal(err)
				}
				if task.ExitCode != 0 {
					t.Errorf("%s exited %d", name, task.ExitCode)
				}
			})
		}
	}
}

func TestCatProducesFileContents(t *testing.T) {
	k := kernel.New(kernel.Config{})
	setupFS(t, k)
	prog, err := Coreutil("cat", LibcUbuntu2004(false))
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	want := CoreutilFSFiles["/tmp/file.txt"]
	if string(task.ConsoleOut) != want {
		t.Errorf("cat output %q, want %q", task.ConsoleOut, want)
	}
}

func TestMvAndCpSideEffects(t *testing.T) {
	// cp and mv both operate on /tmp/src.txt, so they get separate
	// kernels (running them concurrently would just race on the file).
	for _, tc := range []struct{ name, want string }{
		{"cp", "/tmp/copy.txt"},
		{"mv", "/tmp/moved.txt"},
	} {
		k := kernel.New(kernel.Config{})
		setupFS(t, k)
		prog, err := Coreutil(tc.name, LibcUbuntu2004(false))
		if err != nil {
			t.Fatal(err)
		}
		task, err := prog.Spawn(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(20_000_000); err != nil {
			t.Fatal(err)
		}
		if task.ExitCode != 0 {
			t.Errorf("%s exited %d", tc.name, task.ExitCode)
		}
		if _, err := k.FS.Stat(tc.want); err != nil {
			t.Errorf("%s result missing: %v", tc.name, err)
		}
	}
}

func TestThreadedUtilsMatchTable3(t *testing.T) {
	// The Ubuntu 20.04 column of Table III: exactly ls, mkdir, mv, cp are
	// affected (40%).
	affected := 0
	for _, name := range CoreutilNames {
		if threadedUtils[name] {
			affected++
		}
	}
	if affected != 4 {
		t.Errorf("threaded utils = %d, want 4 (40%% of 10)", affected)
	}
	for _, name := range []string{"ls", "mkdir", "mv", "cp"} {
		if !threadedUtils[name] {
			t.Errorf("%s should be threaded per Table III", name)
		}
	}
}

func TestMicrobenchExitsClean(t *testing.T) {
	prog, err := Microbench(kernel.NonexistentSyscall, 100)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 {
		t.Errorf("exit = %d", task.ExitCode)
	}
	// Each iteration costs roughly a no-op syscall round trip.
	min := 100 * kernel.DefaultCostModel().NoopSyscallCost()
	if task.CPU.Cycles < min {
		t.Errorf("cycles = %d, want >= %d", task.CPU.Cycles, min)
	}
}

func TestJITGuestComputesPid(t *testing.T) {
	prog, err := JIT()
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	if err := k.FS.MkdirAll("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := k.FS.WriteFile(JITSourcePath, []byte(JITSource), 0o644); err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d, want pid %d (JIT-compiled getpid)", task.ExitCode, task.Tgid)
	}
}

func TestJITFailsWithoutToken(t *testing.T) {
	prog, err := JIT()
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	if err := k.FS.MkdirAll("/src", 0o755); err != nil {
		t.Fatal(err)
	}
	// Source without syscall(39): nothing to compile.
	if err := k.FS.WriteFile(JITSourcePath, []byte("int main(void){return 0;}"), 0o644); err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 255 {
		t.Errorf("exit = %d, want 255", task.ExitCode)
	}
}

func TestWebServerAssembles(t *testing.T) {
	for _, style := range []ServerStyle{StyleNginx, StyleLighttpd} {
		for _, workers := range []int{1, 12} {
			if _, err := WebServer(WebServerConfig{
				Style: style, Port: 8080, Path: "/www/static", Workers: workers,
			}); err != nil {
				t.Errorf("%v x%d: %v", style, workers, err)
			}
		}
	}
}

func TestLibcSourcesDiffer(t *testing.T) {
	u := LibcUbuntu2004(true).Source()
	un := LibcUbuntu2004(false).Source()
	cl := LibcClearLinux().Source()
	if !strings.Contains(u, "punpck xmm0") {
		t.Error("threaded Ubuntu libc lacks the Listing 1 pattern")
	}
	if strings.Contains(un, "punpck") {
		t.Error("non-threaded Ubuntu libc must not touch vector state")
	}
	if !strings.Contains(cl, "SYS_getrandom") || !strings.Contains(cl, "punpck xmm1") {
		t.Error("Clear Linux libc lacks the ptmalloc_init pattern")
	}
}

// TestInstallStaticContent: the served file is the alphabet repeated,
// byte i being 'a'+i%26, at every size, and the filesystem is sealed.
func TestInstallStaticContent(t *testing.T) {
	for _, size := range []int{0, 1, 25, 26, 27, 52, 1000, 64<<10 + 3} {
		fsys := fs.New(nil)
		if err := InstallStatic(fsys, size); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile(StaticPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size {
			t.Fatalf("size %d: file holds %d bytes", size, len(got))
		}
		for i, b := range got {
			if b != byte('a'+i%26) {
				t.Fatalf("size %d: byte %d = %q, want %q", size, i, b, 'a'+i%26)
			}
		}
		if !fsys.Sealed() {
			t.Fatalf("size %d: the filesystem is not sealed", size)
		}
	}
}
