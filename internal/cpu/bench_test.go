package cpu

import (
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// BenchmarkStepLoop measures raw interpreter throughput (host ns per
// simulated instruction) on a register-only loop.
func BenchmarkStepLoop(b *testing.B) {
	var e isa.Enc
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRWX); err != nil {
		b.Fatal(err)
	}
	if err := as.WriteAt(0x1000, e.Buf); err != nil {
		b.Fatal(err)
	}
	c := New(as)
	c.RIP = 0x1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := c.Step(); ev != EvNone {
			b.Fatalf("event %v", ev)
		}
	}
}

// BenchmarkStepMemoryOps measures the load/store path (page-table walk
// per access).
func BenchmarkStepMemoryOps(b *testing.B) {
	var e isa.Enc
	start := e.Len()
	e.Load(isa.RAX, isa.RBX, 0)
	e.Store(isa.RBX, 8, isa.RAX)
	e.Jmp(int64(start) - int64(e.Len()) - 5)
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRWX); err != nil {
		b.Fatal(err)
	}
	if err := as.WriteAt(0x1000, e.Buf); err != nil {
		b.Fatal(err)
	}
	if err := as.MapFixed(0x10000, mem.PageSize, mem.ProtRW); err != nil {
		b.Fatal(err)
	}
	c := New(as)
	c.RIP = 0x1000
	c.Regs[isa.RBX] = 0x10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := c.Step(); ev != EvNone {
			b.Fatalf("event %v", ev)
		}
	}
}

// stepLoopCPU builds the register-only loop used to compare the fast and
// reference engines.
func stepLoopCPU(b *testing.B, mode ExecMode) *CPU {
	b.Helper()
	var e isa.Enc
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRWX); err != nil {
		b.Fatal(err)
	}
	if err := as.WriteAt(0x1000, e.Buf); err != nil {
		b.Fatal(err)
	}
	c := NewExec(as, mode)
	c.RIP = 0x1000
	return c
}

// BenchmarkCPUStep measures per-Step cost on the fast and reference
// engines on the same loop; the ratio is the decode cache's speedup
// (experiments.TestEngineSpeedupFloors holds whole workloads to floors).
func BenchmarkCPUStep(b *testing.B) {
	for _, mode := range []ExecMode{ExecFast, ExecReference} {
		b.Run(mode.String(), func(b *testing.B) {
			c := stepLoopCPU(b, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ev := c.Step(); ev != EvNone {
					b.Fatalf("event %v", ev)
				}
			}
		})
	}
}

// BenchmarkDecodeCache isolates the cache machinery itself: hit path,
// revalidation after an unrelated code mutation, and block rebuild after
// an invalidating write.
func BenchmarkDecodeCache(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c := stepLoopCPU(b, ExecFast)
		for i := 0; i < 8; i++ { // warm the blocks
			c.Step()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Step()
		}
	})
	b.Run("revalidate", func(b *testing.B) {
		c := stepLoopCPU(b, ExecFast)
		// A second executable page mutated each iteration: every Step sees
		// a changed mutation counter and must revalidate its block's pages.
		if err := c.AS.MapFixed(0x9000, mem.PageSize, mem.ProtRWX); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			c.Step()
		}
		one := []byte{0x90}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.AS.WriteAt(0x9000, one); err != nil {
				b.Fatal(err)
			}
			c.Step()
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		c := stepLoopCPU(b, ExecFast)
		for i := 0; i < 8; i++ {
			c.Step()
		}
		nop := []byte{0x90}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Rewrite a byte on the code page itself: the current block is
			// dropped and rebuilt every iteration.
			if err := c.AS.WriteAt(0x1FF0, nop); err != nil {
				b.Fatal(err)
			}
			c.Step()
		}
	})
}

// BenchmarkXsave measures the extended-state save path.
func BenchmarkXsave(b *testing.B) {
	var e isa.Enc
	start := e.Len()
	e.Xsave(isa.RBX)
	e.Jmp(int64(start) - int64(e.Len()) - 5)
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRWX); err != nil {
		b.Fatal(err)
	}
	if err := as.WriteAt(0x1000, e.Buf); err != nil {
		b.Fatal(err)
	}
	if err := as.MapFixed(0x10000, mem.PageSize, mem.ProtRW); err != nil {
		b.Fatal(err)
	}
	c := New(as)
	c.RIP = 0x1000
	c.Regs[isa.RBX] = 0x10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
