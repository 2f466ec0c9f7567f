// Package loader defines SELF ("Simulated ELF"), the executable image
// format of the simulated machine, and loads images into address spaces.
//
// A SELF image is a set of segments (load address, protection, bytes),
// an entry point, and a symbol table. The loader maps each segment with
// its final protection — code pages land R-X, so any later patching (the
// lazy rewriter) must go through mprotect exactly as on Linux.
package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lazypoline/internal/asm"
	"lazypoline/internal/mem"
)

// Magic identifies a serialized SELF image.
var Magic = [4]byte{'S', 'E', 'L', 'F'}

// Version is the current format version.
const Version = 1

// Segment is one loadable region.
type Segment struct {
	Addr uint64
	Prot mem.Prot
	Data []byte
}

// Image is a loadable executable. Its segments must not change once it
// has been loaded: the first Load builds the image's page frames from
// them, and every later Load maps those frames.
type Image struct {
	Entry    uint64
	Segments []Segment
	Symbols  map[string]uint64

	framesOnce sync.Once
	// frames holds, per segment, the frame of each of its pages, nil for
	// an all-zero page (see Load).
	frames [][]*mem.Frame
}

// Errors.
var (
	ErrBadMagic   = errors.New("loader: bad magic")
	ErrBadVersion = errors.New("loader: unsupported version")
	ErrNoSegments = errors.New("loader: image has no segments")
	ErrTruncated  = errors.New("loader: truncated image")
)

// FromProgram builds an image from an assembled program: one R-X text
// segment at the program's base plus any extra segments.
func FromProgram(p *asm.Program, entrySymbol string, extra ...Segment) (*Image, error) {
	entry := p.Base
	if entrySymbol != "" {
		e, err := p.Symbol(entrySymbol)
		if err != nil {
			return nil, err
		}
		entry = e
	}
	img := &Image{
		Entry:    entry,
		Segments: append([]Segment{{Addr: p.Base, Prot: mem.ProtRX, Data: p.Code}}, extra...),
		Symbols:  p.Symbols,
	}
	return img, nil
}

// Load maps every segment into as with the segment's protection. Segment
// sizes are rounded up to whole pages. Nothing is copied: each page that
// holds a nonzero byte is an immutable frame (mem.FramesOf), built on the
// image's first Load and mapped by reference (mem.AddressSpace.MapFrames),
// so every address space that loads the image shares its bytes — and the
// blocks the CPUs decode from them — until it writes a page, which then
// gets a private copy. An all-zero page is an untouched page (demand-zero,
// DESIGN.md §17), so a guest's all-zero data segment costs nothing until
// the guest touches it.
func (img *Image) Load(as *mem.AddressSpace) error {
	if len(img.Segments) == 0 {
		return ErrNoSegments
	}
	img.framesOnce.Do(func() {
		img.frames = make([][]*mem.Frame, len(img.Segments))
		for i, seg := range img.Segments {
			img.frames[i] = mem.FramesOf(seg.Data, pageRound(len(seg.Data)))
		}
	})
	for i, seg := range img.Segments {
		if seg.Addr%mem.PageSize != 0 {
			return fmt.Errorf("loader: segment at %#x not page aligned", seg.Addr)
		}
		if err := as.MapFrames(seg.Addr, img.frames[i], seg.Prot); err != nil {
			return fmt.Errorf("loader: map %#x: %w", seg.Addr, err)
		}
	}
	return nil
}

// pageRound is the mapped size of a segment of n bytes: n rounded up to
// whole pages, and at least one page.
func pageRound(n int) uint64 {
	if n == 0 {
		return mem.PageSize
	}
	return (uint64(n) + mem.PageSize - 1) &^ (mem.PageSize - 1)
}

// Symbol looks up a symbol address.
func (img *Image) Symbol(name string) (uint64, bool) {
	v, ok := img.Symbols[name]
	return v, ok
}

// ExecRange is one executable span of a loaded image, page-rounded
// exactly as Load maps it.
type ExecRange struct {
	Addr, Length uint64
}

// ExecRanges returns the page-rounded spans of every executable segment
// — the code the image itself ships, which the kernel's privilege-region
// policy registers as syscall-privileged at load time.
func (img *Image) ExecRanges() []ExecRange {
	var out []ExecRange
	for _, seg := range img.Segments {
		if seg.Prot&mem.ProtExec == 0 {
			continue
		}
		out = append(out, ExecRange{Addr: seg.Addr, Length: pageRound(len(seg.Data))})
	}
	return out
}

// Marshal serializes the image.
//
// Layout (all little-endian):
//
//	magic[4] version[4] entry[8] nseg[4] nsym[4]
//	per segment: addr[8] prot[1] len[4] data[len]
//	per symbol:  namelen[2] name addr[8]
func (img *Image) Marshal() []byte {
	var b bytes.Buffer
	b.Write(Magic[:])
	writeU32(&b, Version)
	writeU64(&b, img.Entry)
	writeU32(&b, uint32(len(img.Segments)))
	writeU32(&b, uint32(len(img.Symbols)))
	for _, seg := range img.Segments {
		writeU64(&b, seg.Addr)
		b.WriteByte(byte(seg.Prot))
		writeU32(&b, uint32(len(seg.Data)))
		b.Write(seg.Data)
	}
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(n)))
		b.Write(nl[:])
		b.WriteString(n)
		writeU64(&b, img.Symbols[n])
	}
	return b.Bytes()
}

// Unmarshal parses a serialized image.
func Unmarshal(data []byte) (*Image, error) {
	r := &reader{b: data}
	var magic [4]byte
	if !r.bytes(magic[:]) {
		return nil, ErrTruncated
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	ver, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	entry, ok := r.u64()
	if !ok {
		return nil, ErrTruncated
	}
	nseg, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	nsym, ok := r.u32()
	if !ok {
		return nil, ErrTruncated
	}
	img := &Image{Entry: entry, Symbols: make(map[string]uint64, nsym)}
	for i := uint32(0); i < nseg; i++ {
		addr, ok := r.u64()
		if !ok {
			return nil, ErrTruncated
		}
		prot, ok := r.u8()
		if !ok {
			return nil, ErrTruncated
		}
		n, ok := r.u32()
		if !ok {
			return nil, ErrTruncated
		}
		data := make([]byte, n)
		if !r.bytes(data) {
			return nil, ErrTruncated
		}
		img.Segments = append(img.Segments, Segment{Addr: addr, Prot: mem.Prot(prot), Data: data})
	}
	for i := uint32(0); i < nsym; i++ {
		nl, ok := r.u16()
		if !ok {
			return nil, ErrTruncated
		}
		name := make([]byte, nl)
		if !r.bytes(name) {
			return nil, ErrTruncated
		}
		addr, ok := r.u64()
		if !ok {
			return nil, ErrTruncated
		}
		img.Symbols[string(name)] = addr
	}
	return img, nil
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) bytes(dst []byte) bool {
	if r.off+len(dst) > len(r.b) {
		return false
	}
	copy(dst, r.b[r.off:])
	r.off += len(dst)
	return true
}

func (r *reader) u8() (byte, bool) {
	var b [1]byte
	if !r.bytes(b[:]) {
		return 0, false
	}
	return b[0], true
}

func (r *reader) u16() (uint16, bool) {
	var b [2]byte
	if !r.bytes(b[:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint16(b[:]), true
}

func (r *reader) u32() (uint32, bool) {
	var b [4]byte
	if !r.bytes(b[:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b[:]), true
}

func (r *reader) u64() (uint64, bool) {
	var b [8]byte
	if !r.bytes(b[:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[:]), true
}

func writeU32(b *bytes.Buffer, v uint32) {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], v)
	b.Write(x[:])
}

func writeU64(b *bytes.Buffer, v uint64) {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	b.Write(x[:])
}
