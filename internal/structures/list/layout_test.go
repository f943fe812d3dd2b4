package list

import (
	"testing"
	"unsafe"
)

// A list cell sits bare in its typed heap slot: key, value and
// successor word, nothing in front. At 32 bytes for an int64 value two
// cells share a 64-byte line and none straddles one.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node[int64]{}); got != 32 {
		t.Fatalf("list.node[int64] is %d bytes, want 32", got)
	}
}
