package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lazypoline/internal/asm"
	"lazypoline/internal/guest"
	"lazypoline/internal/isa"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
)

// asmCmd is the assembler/disassembler for the simulated ISA. Programs
// assemble at guest.CodeBase.
//
//	lazysim asm -o prog.self prog.s        assemble to a SELF image
//	lazysim asm -d prog.self               disassemble an image's text segment
//	lazysim asm -d prog.s                  assemble + disassemble (round trip)
func asmCmd(args []string, w io.Writer) error {
	var out string
	var dis bool
	f := newFlags("asm")
	f.StringVar(&out, "o", "", "output SELF image path (default: the source path with a .self suffix)")
	f.BoolVar(&dis, "d", false, "disassemble instead of assembling")
	if err := f.parse(args, 1); err != nil {
		return err
	}
	if f.NArg() != 1 {
		return fmt.Errorf("usage: lazysim asm [-o out.self] [-d] prog.s|prog.self")
	}
	path := f.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var img *loader.Image
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		p, err := asm.Assemble(guest.Header+string(data), guest.CodeBase)
		if err != nil {
			return err
		}
		img, err = loader.FromProgram(p, "_start")
		if err != nil {
			// Without a _start the image still disassembles; entry = base.
			img = &loader.Image{
				Entry:    p.Base,
				Segments: []loader.Segment{{Addr: p.Base, Prot: mem.ProtRX, Data: p.Code}},
				Symbols:  p.Symbols,
			}
		}
	} else {
		img, err = loader.Unmarshal(data)
		if err != nil {
			return err
		}
	}

	if dis {
		disassemble(w, img)
		return nil
	}
	if out == "" {
		out = strings.TrimSuffix(path, ".s") + ".self"
	}
	if err := os.WriteFile(out, img.Marshal(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (entry %#x, %d segment(s), %d symbol(s))\n",
		out, img.Entry, len(img.Segments), len(img.Symbols))
	return nil
}

// disassemble prints every executable segment with symbol annotations.
func disassemble(w io.Writer, img *loader.Image) {
	// Invert the symbol table for labels.
	labels := make(map[uint64][]string)
	for name, addr := range img.Symbols {
		labels[addr] = append(labels[addr], name)
	}
	for _, seg := range img.Segments {
		if seg.Prot&mem.ProtExec == 0 {
			continue
		}
		fmt.Fprintf(w, "; segment %#x (%d bytes, %s)\n", seg.Addr, len(seg.Data), seg.Prot)
		for off := 0; off < len(seg.Data); {
			addr := seg.Addr + uint64(off)
			for _, l := range labels[addr] {
				fmt.Fprintf(w, "%s:\n", l)
			}
			in, err := isa.Decode(seg.Data[off:])
			if err != nil {
				fmt.Fprintf(w, "  %08x:  .byte %#02x\n", addr, seg.Data[off])
				off++
				continue
			}
			fmt.Fprintf(w, "  %08x:  % -24x %s\n", addr, seg.Data[off:off+in.Len], in)
			off += in.Len
		}
	}
}
