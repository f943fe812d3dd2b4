package pgas

import (
	"reflect"
	"testing"
	"unsafe"

	"gopgas/internal/comm"
	"gopgas/internal/layouttest"
)

// The per-op path reads a System's boot-time fields and a Locale's
// head from every locale; it adds to the System's two tallies and
// writes a Locale's handler-slot and delay words.
func TestSystemLayout(t *testing.T) {
	layouttest.CheckApart(t, reflect.TypeFor[System](),
		[]string{"cfg", "prices", "locales", "counters", "matrix", "ctxPool", "tracer", "perturb", "parking", "shutdown", "stopped"},
		[]string{"taskSeq", "asyncPending"})
	layouttest.CheckApart(t, reflect.TypeFor[Locale](),
		[]string{"id", "heap", "privTable"},
		[]string{"amBusy", "amWaiting", "running", "amMu", "amFree", "modelledNS", "perturbNS", "delayWaitNS"})
}

// A word made by NewWord64 is written by every op on it, from
// whichever locale issues the op. On real addresses: each one starts
// on the 128-byte grid, so it fills no more than its own block (an
// adjacent-line pair), and no two share a block, as the head and tail
// words of consecutive queue segments would otherwise. The array keeps
// every word live until the last check.
func TestStandaloneWordsApart(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	c := s.Ctx(0)
	const n = 64
	var words [n]*Word64
	for i := range n {
		words[i] = NewWord64(c, i%2, 0)
	}
	blocks := map[uintptr]int{}
	for i, w := range words {
		addr := uintptr(unsafe.Pointer(w))
		if addr%layouttest.Apart != 0 {
			t.Fatalf("word %d at %#x is not %d-byte aligned", i, addr, layouttest.Apart)
		}
		if prev, ok := blocks[addr/layouttest.Apart]; ok {
			t.Fatalf("word %d at %#x shares its block with word %d", i, addr, prev)
		}
		blocks[addr/layouttest.Apart] = i
	}
}
