package gas

import (
	"testing"
	"unsafe"
)

// span is a field's byte range in its struct.
type span struct {
	name      string
	off, size uintptr
}

// lineApart is how far a word written on the per-op path stays from a
// word other locales read there: an adjacent-line pair. Ranges this
// far apart share no 64-byte line and no 128-byte pair at any base
// alignment.
const lineApart = 128

// checkApart fails t if any written span lies within lineApart bytes
// of any read span, in the same object or in the next one of its size
// (the allocator hands out same-size objects back to back).
func checkApart(t *testing.T, typ string, size uintptr, read, written []span) {
	t.Helper()
	for _, w := range written {
		for _, r := range read {
			for _, shift := range []int{-1, 0, 1} {
				rOff := int(r.off) + shift*int(size)
				gap := int(w.off) - (rOff + int(r.size))
				if rOff > int(w.off) {
					gap = rOff - int(w.off+w.size)
				}
				if gap < lineApart {
					t.Errorf("%s: written %s [%d,%d) is %d B from read %s [%d,%d) (object shift %d), want >= %d",
						typ, w.name, w.off, w.off+w.size, gap, r.name, rOff, rOff+int(r.size), shift, lineApart)
				}
			}
		}
	}
}

// Every Load and Store reads locale and dir, other locales' GETs
// included; every Alloc and Free writes the allocator's words.
func TestHeapLayout(t *testing.T) {
	var h Heap
	for _, tc := range []struct {
		typ           string
		size          uintptr
		read, written []span
	}{{
		typ:  "Heap",
		size: unsafe.Sizeof(h),
		read: []span{
			{"locale", unsafe.Offsetof(h.locale), unsafe.Sizeof(h.locale)},
			{"dir", unsafe.Offsetof(h.dir), unsafe.Sizeof(h.dir)},
		},
		written: []span{
			{"mu", unsafe.Offsetof(h.mu), unsafe.Sizeof(h.mu)},
			{"pools", unsafe.Offsetof(h.pools), unsafe.Sizeof(h.pools)},
			{"live", unsafe.Offsetof(h.live), unsafe.Sizeof(h.live)},
			{"allocs", unsafe.Offsetof(h.allocs), unsafe.Sizeof(h.allocs)},
			{"frees", unsafe.Offsetof(h.frees), unsafe.Sizeof(h.frees)},
			{"uafLoads", unsafe.Offsetof(h.uafLoads), unsafe.Sizeof(h.uafLoads)},
			{"uafStores", unsafe.Offsetof(h.uafStores), unsafe.Sizeof(h.uafStores)},
			{"uafFrees", unsafe.Offsetof(h.uafFrees), unsafe.Sizeof(h.uafFrees)},
			{"highWater", unsafe.Offsetof(h.highWater), unsafe.Sizeof(h.highWater)},
		},
	}} {
		checkApart(t, tc.typ, tc.size, tc.read, tc.written)
	}
}
