package queue

import (
	"testing"
	"unsafe"
)

// A queue cell sits bare in its typed heap slot: value and successor
// word, nothing in front — 24 bytes for an int64 value.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node[int64]{}); got != 24 {
		t.Fatalf("queue.node[int64] is %d bytes, want 24", got)
	}
}
