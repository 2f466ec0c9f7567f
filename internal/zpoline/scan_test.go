package zpoline

import (
	"math/rand"
	"slices"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// perOffsetSweep is the linear sweep as it was before it skipped zero
// runs: one Decode per offset, resynchronising one byte on every
// rejection. It is the oracle for FindSyscallSites.
func perOffsetSweep(code []byte, base uint64) []uint64 {
	var sites []uint64
	for off := 0; off < len(code); {
		in, err := isa.Decode(code[off:])
		if err != nil {
			off++
			continue
		}
		if in.Mnem == isa.MSyscall || in.Mnem == isa.MSysenter {
			sites = append(sites, base+uint64(off))
		}
		off += in.Len
	}
	return sites
}

func checkScan(tb testing.TB, code []byte, base uint64) {
	tb.Helper()
	got, want := FindSyscallSites(code, base, ScanLinear), perOffsetSweep(code, base)
	if !slices.Equal(got, want) {
		tb.Fatalf("sites %#x, per-offset sweep finds %#x", got, want)
	}
}

// TestNoInstructionStartsWithZero is the premise of the zero-run skip:
// a zero first byte is rejected whatever follows it.
func TestNoInstructionStartsWithZero(t *testing.T) {
	buf := make([]byte, 16)
	for b := 0; b < 256; b++ {
		for i := 1; i < len(buf); i++ {
			buf[i] = byte(b)
		}
		if in, err := isa.Decode(buf); err == nil {
			t.Fatalf("00 %02x ... decodes as %v", b, in)
		}
	}
}

func TestFindSyscallSitesMatchesPerOffsetSweep(t *testing.T) {
	// A loaded text segment: code, then zero padding to the page end.
	p, err := asm.Assemble(simpleGuest, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, mem.PageSize)
	copy(page, p.Code)
	checkScan(t, page, 0x10000)

	// Random images: zero runs between syscalls, instructions whose
	// operands hold zeros and syscall bytes, and arbitrary bytes.
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var code []byte
		for len(code) < 2048 {
			switch r.Intn(5) {
			case 0:
				code = append(code, make([]byte, r.Intn(300))...)
			case 1:
				code = append(code, isa.Byte0F, []byte{isa.ByteSyscall, isa.ByteSysent, 0}[r.Intn(3)])
			case 2:
				var e isa.Enc
				e.MovImm64(isa.RAX, 0x050F<<(8*r.Intn(7))) // 0F 05 among zeros
				code = append(code, e.Buf...)
			default:
				b := make([]byte, r.Intn(16))
				r.Read(b)
				code = append(code, b...)
			}
		}
		checkScan(t, code, uint64(seed)<<12)
	}
}

func FuzzFindSyscallSites(f *testing.F) {
	p, err := asm.Assemble(simpleGuest, 0x10000)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(p.Code, make([]byte, 64)...), uint64(0x10000))
	f.Add([]byte{0, 0, 0x0F, 0x05, 0, 0x0F, 0x34, 0x0F}, uint64(0))
	f.Fuzz(func(t *testing.T, code []byte, base uint64) { checkScan(t, code, base) })
}
