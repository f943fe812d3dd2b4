package pgas

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

// The per-op path reads a System's boot-time fields and a Locale's
// head from every locale; it adds to the System's two tallies and
// writes a Locale's handler-slot and delay words.
func TestSystemLayout(t *testing.T) {
	var s System
	var l Locale
	for _, tc := range []struct {
		typ           string
		size          uintptr
		read, written []span
	}{{
		typ:  "System",
		size: unsafe.Sizeof(s),
		read: []span{
			{"cfg", unsafe.Offsetof(s.cfg), unsafe.Sizeof(s.cfg)},
			{"prices", unsafe.Offsetof(s.prices), unsafe.Sizeof(s.prices)},
			{"locales", unsafe.Offsetof(s.locales), unsafe.Sizeof(s.locales)},
			{"counters", unsafe.Offsetof(s.counters), unsafe.Sizeof(s.counters)},
			{"matrix", unsafe.Offsetof(s.matrix), unsafe.Sizeof(s.matrix)},
			{"ctxPool", unsafe.Offsetof(s.ctxPool), unsafe.Sizeof(s.ctxPool)},
			{"tracer", unsafe.Offsetof(s.tracer), unsafe.Sizeof(s.tracer)},
			{"perturb", unsafe.Offsetof(s.perturb), unsafe.Sizeof(s.perturb)},
			{"parking", unsafe.Offsetof(s.parking), unsafe.Sizeof(s.parking)},
			{"shutdown", unsafe.Offsetof(s.shutdown), unsafe.Sizeof(s.shutdown)},
			{"stopped", unsafe.Offsetof(s.stopped), unsafe.Sizeof(s.stopped)},
		},
		written: []span{
			{"taskSeq", unsafe.Offsetof(s.taskSeq), unsafe.Sizeof(s.taskSeq)},
			{"asyncPending", unsafe.Offsetof(s.asyncPending), unsafe.Sizeof(s.asyncPending)},
		},
	}, {
		typ:  "Locale",
		size: unsafe.Sizeof(l),
		read: []span{
			{"id", unsafe.Offsetof(l.id), unsafe.Sizeof(l.id)},
			{"heap", unsafe.Offsetof(l.heap), unsafe.Sizeof(l.heap)},
			{"privTable", unsafe.Offsetof(l.privTable), unsafe.Sizeof(l.privTable)},
		},
		written: []span{
			{"amBusy", unsafe.Offsetof(l.amBusy), unsafe.Sizeof(l.amBusy)},
			{"amWaiting", unsafe.Offsetof(l.amWaiting), unsafe.Sizeof(l.amWaiting)},
			{"running", unsafe.Offsetof(l.running), unsafe.Sizeof(l.running)},
			{"amMu", unsafe.Offsetof(l.amMu), unsafe.Sizeof(l.amMu)},
			{"amFree", unsafe.Offsetof(l.amFree), unsafe.Sizeof(l.amFree)},
			{"modelledNS", unsafe.Offsetof(l.modelledNS), unsafe.Sizeof(l.modelledNS)},
			{"perturbNS", unsafe.Offsetof(l.perturbNS), unsafe.Sizeof(l.perturbNS)},
			{"delayWaitNS", unsafe.Offsetof(l.delayWaitNS), unsafe.Sizeof(l.delayWaitNS)},
		},
	}} {
		checkApart(t, tc.typ, tc.size, tc.read, tc.written)
	}
}
