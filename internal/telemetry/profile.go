package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Profiler is a deterministic sampling profiler. The kernel samples the
// guest program counter at every scheduler-quantum boundary, weighting
// each sample by the virtual cycles the quantum consumed; because both
// the sample points and the weights derive from the deterministic cycle
// model, two runs of the same workload produce byte-identical profiles.
type Profiler struct {
	samples map[sampleKey]uint64
	lanes   map[int]string
}

type sampleKey struct {
	tid int
	pc  uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		samples: make(map[sampleKey]uint64),
		lanes:   make(map[int]string),
	}
}

// Sample records that task tid spent weight cycles ending at pc.
func (p *Profiler) Sample(tid int, pc, weight uint64) {
	if weight == 0 {
		return
	}
	p.samples[sampleKey{tid, pc}] += weight
}

// SetLane names a task's lane in the folded output (defaults to
// "task<tid>").
func (p *Profiler) SetLane(tid int, name string) {
	p.lanes[tid] = name
}

// TotalWeight returns the sum of all sample weights.
func (p *Profiler) TotalWeight() uint64 {
	var total uint64
	for _, w := range p.samples {
		total += w
	}
	return total
}

// symtab supports nearest-symbol-at-or-below lookup.
type symtab struct {
	addrs []uint64
	names []string
}

func newSymtab(symbols map[string]uint64) *symtab {
	type sym struct {
		addr uint64
		name string
	}
	syms := make([]sym, 0, len(symbols))
	for name, addr := range symbols {
		syms = append(syms, sym{addr, name})
	}
	// Sort by address; ties broken by name so duplicate addresses
	// resolve deterministically.
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].addr != syms[j].addr {
			return syms[i].addr < syms[j].addr
		}
		return syms[i].name < syms[j].name
	})
	st := &symtab{}
	for _, s := range syms {
		st.addrs = append(st.addrs, s.addr)
		st.names = append(st.names, s.name)
	}
	return st
}

// maxSymbolSpan bounds how far below a PC a symbol may start and still
// claim the sample. Guest images place symbols densely, but mechanism
// pages (trampolines, handler stubs) sit megabytes away from image
// code; without a span cap every anonymous page would be attributed to
// whatever symbol happens to precede it in the address space.
const maxSymbolSpan = 1 << 20

func (st *symtab) resolve(pc uint64) string {
	i := sort.Search(len(st.addrs), func(i int) bool { return st.addrs[i] > pc })
	if i > 0 && pc-st.addrs[i-1] < maxSymbolSpan {
		return st.names[i-1]
	}
	return fmt.Sprintf("0x%x", pc)
}

// FoldedLine is one aggregated folded-stack entry.
type FoldedLine struct {
	Stack  string // "lane;symbol"
	Weight uint64
}

// Folded symbolizes all samples against the given symbol table (merge
// image symbols with mechanism symbol maps before calling) and returns
// flamegraph-ready folded lines: "lane;symbol weight", aggregated per
// symbol and sorted by descending weight, ties by stack name. Feed the
// output straight to flamegraph.pl or speedscope.
func (p *Profiler) Folded(symbols map[string]uint64) []FoldedLine {
	st := newSymtab(symbols)
	agg := make(map[string]uint64)
	for key, w := range p.samples {
		lane, ok := p.lanes[key.tid]
		if !ok {
			lane = fmt.Sprintf("task%d", key.tid)
		}
		agg[lane+";"+st.resolve(key.pc)] += w
	}

	lines := make([]FoldedLine, 0, len(agg))
	for stack, w := range agg {
		lines = append(lines, FoldedLine{Stack: stack, Weight: w})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Weight != lines[j].Weight {
			return lines[i].Weight > lines[j].Weight
		}
		return lines[i].Stack < lines[j].Stack
	})
	return lines
}

// WriteFolded writes Folded output in the canonical "stack weight" text
// form, one line per entry.
func (p *Profiler) WriteFolded(w io.Writer, symbols map[string]uint64) error {
	bw := bufio.NewWriter(w)
	for _, line := range p.Folded(symbols) {
		if _, err := fmt.Fprintf(bw, "%s %d\n", line.Stack, line.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MergeSymbols unions symbol maps; later maps win on name collisions.
func MergeSymbols(maps ...map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range maps {
		for name, addr := range m {
			out[name] = addr
		}
	}
	return out
}
