package kernel

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/cpu"
	"lazypoline/internal/isa"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
)

// The model test of the task accessors (DESIGN.md §19). Two address
// spaces start as copies of one another; every operation of a random
// program is applied to both — to one through the task's accessors (and
// the task's own store instruction), to the other through the locked
// AddressSpace calls the kernel used before. The accessors may skip the
// lock and the page generation; they may differ from the locked path in
// nothing else: the same bytes transferred, the same error with the same
// fault address, the same fault and code-mutation counts after every
// operation, the same memory at the end.

const (
	accessBase  = 0x4000_0000 // window the programs map, unmap and access
	accessPages = 8
)

// accessPair is a task beside the oracle address space.
type accessPair struct {
	task   *Task
	oracle *mem.AddressSpace
	// store is the address of the task's `store [rdi], rsi`.
	store uint64
	// Counters of both sides when the program started.
	taskBase, oracleBase mem.Stats
}

func newAccessPair(t testing.TB) *accessPair {
	k := New(Config{})
	p, err := asm.Assemble("_start:\n store [rdi], rsi\n hlt\n", 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	task, err := k.SpawnImage(img, SpawnOpts{Name: "accessors"})
	if err != nil {
		t.Fatal(err)
	}
	for pn := uint64(0); pn < accessPages; pn++ {
		if _, mapped := task.AS.ProtAt(accessBase + pn*mem.PageSize); mapped {
			t.Fatalf("window page %d is mapped in a fresh task", pn)
		}
	}
	ap := &accessPair{task: task, oracle: task.AS.Clone(), store: task.CPU.RIP}
	ap.taskBase, ap.oracleBase = task.AS.Stats(), ap.oracle.Stats()
	return ap
}

// sameError requires the two sides to have failed alike: both nil, or
// faults equal in address, kind and pkey flag, or the same mapping error.
func sameError(t testing.TB, op string, got, want error) {
	t.Helper()
	var gf, wf *mem.Fault
	switch {
	case got == nil && want == nil:
	case errors.As(got, &gf) && errors.As(want, &wf) && *gf == *wf:
	case got != nil && want != nil && gf == nil && wf == nil && got.Error() == want.Error():
	default:
		t.Fatalf("%s: accessor says %v, locked path says %v", op, got, want)
	}
}

func (ap *accessPair) checkCounters(t testing.TB, op string) {
	t.Helper()
	ts, os := ap.task.AS.Stats(), ap.oracle.Stats()
	tf, of := ts.Faults-ap.taskBase.Faults, os.Faults-ap.oracleBase.Faults
	tm, om := ts.CodeMutations-ap.taskBase.CodeMutations, os.CodeMutations-ap.oracleBase.CodeMutations
	if tf != of || tm != om {
		t.Fatalf("after %s: faults/code mutations %d/%d, locked path %d/%d", op, tf, tm, of, om)
	}
	if tg, og := ts.Generations-ap.taskBase.Generations, os.Generations-ap.oracleBase.Generations; tg > og {
		t.Fatalf("after %s: %d generations issued, locked path %d", op, tg, og)
	}
}

// checkContents compares the window through the locked path on both sides.
func (ap *accessPair) checkContents(t testing.TB) {
	t.Helper()
	var got, want [mem.PageSize]byte
	for pn := uint64(0); pn < accessPages; pn++ {
		addr := accessBase + pn*mem.PageSize
		gerr, werr := ap.task.AS.ReadForce(addr, got[:]), ap.oracle.ReadForce(addr, want[:])
		sameError(t, "final ReadForce", gerr, werr)
		if gerr == nil && got != want {
			t.Fatalf("page %d: contents diverge from the locked path", pn)
		}
	}
}

// accessOps is the operation an opcode selects; accesses outnumber the
// mapping changes so that pages live long enough to be hit again.
var accessOps = [...]string{"MapFixed", "MapFixed", "Unmap", "Protect", "SetPkey", "PKRU",
	"WriteAt", "WriteAt", "WriteForce", "WriteForce", "read", "read", "read", "u64", "u64", "guest store"}

// accessPKRUs are the PKRU values the programs switch between: all
// access, then keys 1 and 2 access- or write-disabled in combinations.
var accessPKRUs = [...]uint32{
	0,
	mem.PkeyWriteDisableBit(1),
	mem.PkeyAccessDisableBit(1),
	mem.PkeyWriteDisableBit(2) | mem.PkeyAccessDisableBit(1),
	mem.PkeyAccessDisableBit(2),
}

// runAccessProgram interprets prog as a sequence of operations on a fresh
// accessPair and returns it.
func runAccessProgram(t testing.TB, prog []byte) *accessPair {
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	ap := newAccessPair(t)
	task, oracle := ap.task, ap.oracle
	for len(prog) > 0 {
		op := accessOps[next()%uint64(len(accessOps))]
		first := accessBase + next()%accessPages*mem.PageSize
		n := (1 + next()%3) * mem.PageSize
		addr := first + next()*17%mem.PageSize
		// Half the spans are short, so most stay inside a page; the rest run
		// up to two pages and a bit.
		length := int(next() % 160)
		if big := next(); big&1 != 0 {
			length = int(big*37) % (2*mem.PageSize + 17)
		}
		sel := next()
		prot := mem.Prot(sel % 8)
		fill := byte(next())
		switch op {
		case "MapFixed":
			sameError(t, op, task.AS.MapFixed(first, n, prot), oracle.MapFixed(first, n, prot))
		case "Unmap":
			sameError(t, op, task.AS.Unmap(first, n), oracle.Unmap(first, n))
		case "Protect":
			sameError(t, op, task.AS.Protect(first, n, prot), oracle.Protect(first, n, prot))
		case "SetPkey":
			key := uint8(sel % 3)
			sameError(t, op, task.AS.SetPkey(first, n, key), oracle.SetPkey(first, n, key))
		case "PKRU":
			// What WRPKRU and the scheduler do between them.
			task.CPU.PKRU = accessPKRUs[sel%uint64(len(accessPKRUs))]
			task.AS.SetActivePKRU(task.CPU.PKRU)
			oracle.SetActivePKRU(task.CPU.PKRU)
		case "WriteAt", "WriteForce":
			src := bytes.Repeat([]byte{fill}, length)
			for i := range src {
				src[i] += byte(i)
			}
			if op == "WriteAt" {
				sameError(t, op, task.WriteAt(addr, src), oracle.WriteAt(addr, src))
			} else {
				sameError(t, op, task.WriteForce(addr, src), oracle.WriteForce(addr, src))
			}
		case "read":
			// Stale bytes: a failed read must leave the same ones behind.
			got, want := bytes.Repeat([]byte{0xA5}, length), bytes.Repeat([]byte{0xA5}, length)
			if fill&1 == 0 {
				sameError(t, "ReadAt", task.ReadAt(addr, got), oracle.ReadAt(addr, want))
			} else {
				sameError(t, "ReadForce", task.ReadForce(addr, got), oracle.ReadForce(addr, want))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read(%#x, %d): bytes diverge from the locked path", addr, length)
			}
		case "u64":
			if fill&1 == 0 {
				got, gerr := task.ReadU64(addr)
				want, werr := oracle.ReadU64(addr)
				sameError(t, "ReadU64", gerr, werr)
				if got != want {
					t.Fatalf("ReadU64(%#x) = %#x, locked path %#x", addr, got, want)
				}
			} else {
				v := uint64(fill) * 0x0101010101010101
				sameError(t, "WriteU64", task.WriteU64(addr, v), oracle.WriteU64(addr, v))
			}
		case "guest store":
			// The guest's own store, between the kernel's accesses.
			v := uint64(fill)<<32 | sel
			task.CPU.RIP = ap.store
			task.CPU.Regs[isa.RDI], task.CPU.Regs[isa.RSI] = addr, v
			var gerr error
			if ev := task.CPU.Step(); ev == cpu.EvFault {
				gerr = task.CPU.FaultErr
			} else if ev != cpu.EvNone {
				t.Fatalf("guest store: event %v", ev)
			}
			sameError(t, op, gerr, oracle.WriteU64(addr, v))
		}
		ap.checkCounters(t, op)
	}
	ap.checkContents(t)
	return ap
}

func TestTaskAccessorsMatchLockedPath(t *testing.T) {
	var hits, taskGens, oracleGens uint64
	for seed := int64(0); seed < 150; seed++ {
		prog := make([]byte, 8*300)
		rand.New(rand.NewSource(seed)).Read(prog)
		ap := runAccessProgram(t, prog)
		hits += ap.task.CPU.TLBStats().Hits
		taskGens += ap.task.AS.Stats().Generations - ap.taskBase.Generations
		oracleGens += ap.oracle.Stats().Generations - ap.oracleBase.Generations
	}
	// The comparison means something only if the accessors took their own
	// path for a good share of the accesses.
	t.Logf("%d TLB hits; %d generations issued, locked path %d", hits, taskGens, oracleGens)
	if hits == 0 || taskGens >= oracleGens {
		t.Errorf("the programs never left the locked path: %d TLB hits, %d generations against %d",
			hits, taskGens, oracleGens)
	}
}

func FuzzTaskAccessors(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		prog := make([]byte, 8*64)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runAccessProgram(t, prog) })
}
