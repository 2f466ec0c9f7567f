package isa

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateContract = flag.Bool("update", false, "rewrite testdata/decode_contract.txt from the current Decode")

// contractTail follows the byte(s) under test: operand bytes with both
// nibbles and the sign bits of every immediate width in use.
var contractTail = [...]byte{0xA7, 0x11, 0x22, 0x33, 0x84, 0x55, 0x66, 0x77, 0xF8}

// contractInputs is every first byte, and behind each of the two prefix
// bytes every second byte, each followed by contractTail.
func contractInputs() [][]byte {
	var ins [][]byte
	for b0 := 0; b0 < 256; b0++ {
		if b0 != Byte0F && b0 != ByteFF {
			ins = append(ins, append([]byte{byte(b0)}, contractTail[:]...))
			continue
		}
		for b1 := 0; b1 < 256; b1++ {
			ins = append(ins, append([]byte{byte(b0), byte(b1)}, contractTail[1:]...))
		}
	}
	return ins
}

func contractLine(b []byte) string {
	in, err := Decode(b)
	class := "ok"
	switch {
	case errors.Is(err, ErrBadOpcode):
		class = "bad"
	case errors.Is(err, ErrTruncated):
		class = "trunc"
	case err != nil:
		class = "other"
	}
	if err != nil && in == (Inst{}) {
		return fmt.Sprintf("%x %s %v", b, class, err)
	}
	return fmt.Sprintf("%x %s mnem=%d op=%#02x a=%d b=%d imm=%d imm2=%d len=%d %q %v",
		b, class, in.Mnem, uint8(in.Op), in.A, in.B, in.Imm, in.Imm2, in.Len, in, err)
}

// TestDecodeContract pins Decode on every first byte and every second byte
// of the two prefixes: the decoded Inst (the zero Inst beside an error),
// which sentinel the error matches and its exact text. testdata/decode_contract.txt was written by the
// map-and-fmt.Errorf decoder this table-driven one replaced; -update
// rewrites it and is for a change to the instruction set itself.
func TestDecodeContract(t *testing.T) {
	var got strings.Builder
	for _, b := range contractInputs() {
		got.WriteString(contractLine(b))
		got.WriteByte('\n')
	}
	const path = "testdata/decode_contract.txt"
	if *updateContract {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d", len(gl), path, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("Decode changed:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}

// TestDecodeTruncation: every proper prefix of a valid encoding is exactly
// ErrTruncated, except that an invalid first byte is reported as such
// however little follows it.
func TestDecodeTruncation(t *testing.T) {
	for _, b := range contractInputs() {
		in, err := Decode(b)
		n := in.Len
		if err != nil {
			if b[0] != Byte0F && b[0] != ByteFF {
				if _, short := Decode(b[:1]); short == nil || short.Error() != err.Error() {
					t.Errorf("Decode(%x) = %v, Decode(%x) = %v", b, err, b[:1], short)
				}
				continue
			}
			n = 2 // a bad second byte: only the lone prefix is a truncation
		}
		for k := 0; k < n; k++ {
			if _, short := Decode(b[:k]); short != ErrTruncated {
				t.Errorf("Decode(%x) = %v, want ErrTruncated (full encoding %x)", b[:k], short, b[:n])
			}
		}
	}
}

func TestDecodeAllocatesNothing(t *testing.T) {
	for name, b := range map[string][]byte{
		"valid":          (&Enc{}).MovImm64(RDI, -1).Buf,
		"syscall":        (&Enc{}).Syscall().Buf,
		"zero padding":   {0, 0, 0, 0},
		"bad after 0f":   {Byte0F, 0x3A},
		"bad after ff":   {ByteFF, 0x00},
		"truncated":      (&Enc{}).MovImm64(RDI, -1).Buf[:5],
		"lone prefix":    {Byte0F},
		"empty":          {},
		"bad first byte": {0x7F, 1, 2, 3},
	} {
		if n := testing.AllocsPerRun(100, func() { _, _ = Decode(b) }); n != 0 {
			t.Errorf("Decode(%s) allocates %v objects per call, want 0", name, n)
		}
	}
}
