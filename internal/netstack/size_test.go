package netstack

import (
	"testing"
	"unsafe"
)

// TestEndpointSizeClass: an Endpoint stays in the allocator's 160-byte
// size class — one is allocated per side of every connection.
func TestEndpointSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Endpoint{}); size > 160 {
		t.Errorf("Endpoint is %d bytes, over the 160-byte size class", size)
	}
}
