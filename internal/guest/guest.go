// Package guest contains the guest-program corpus the evaluation runs:
// two libc variants reproducing the paper's extended-state ABI hazards,
// ten coreutils (Table III), the microbenchmark loop (Table II/Figure 4),
// a JIT program standing in for tcc -run (§V-A), and event-loop web
// servers with nginx-like and lighttpd-like syscall mixes (Figure 5).
//
// All programs are written in the simulator's assembly dialect and
// assembled at run time; Build loads them into a fresh task.
package guest

import (
	"fmt"

	"lazypoline/internal/asm"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
)

// Layout constants for guest programs.
const (
	// CodeBase is where program text is loaded.
	CodeBase = 0x10000
	// DataBase is the writable data segment.
	DataBase = 0x30000
	// DataSize is the data segment size.
	DataSize = 16 * mem.PageSize
)

// Program is an assembled, loadable guest program.
type Program struct {
	Name string
	// Source is the assembly text the program was built from.
	Source string
	Image  *loader.Image
}

// Build assembles source (entry at `_start`) into a Program with a
// writable data segment.
func Build(name, src string) (*Program, error) {
	p, err := asm.Assemble(src, CodeBase)
	if err != nil {
		return nil, fmt.Errorf("guest %s: %w", name, err)
	}
	img, err := loader.FromProgram(p, "_start", loader.Segment{
		Addr: DataBase,
		Prot: mem.ProtRW,
		Data: make([]byte, DataSize),
	})
	if err != nil {
		return nil, fmt.Errorf("guest %s: %w", name, err)
	}
	return &Program{Name: name, Source: src, Image: img}, nil
}

// Spawn loads the program into a kernel task.
func (p *Program) Spawn(k *kernel.Kernel) (*kernel.Task, error) {
	return k.SpawnImage(p.Image, p.Name)
}

// Header is prepended to every guest source: the kernel's prelude
// (syscall numbers and open flags) and the data segment's address.
var Header = kernel.AsmPrelude + fmt.Sprintf("\t.equ DATA %#x\n", DataBase)
