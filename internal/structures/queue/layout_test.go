package queue

import (
	"reflect"
	"testing"
	"unsafe"

	"gopgas/internal/layouttest"
)

// A queue cell sits bare in its typed heap slot: value and successor
// word, nothing in front — 24 bytes for an int64 value.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node[int64]{}); got != 24 {
		t.Fatalf("queue.node[int64] is %d bytes, want 24", got)
	}
}

// Every op reads a segment's header and adds to its enqs or deqs; the
// next locale's segment is the next object of the same size.
func TestQueueLayout(t *testing.T) {
	layouttest.CheckApart(t, reflect.TypeFor[Queue[int64]](),
		[]string{"head", "tail", "em", "home", "nodes"},
		[]string{"enqs", "deqs"})
}
