// Package layouttest checks the layout rule from a struct's field
// offsets: a word the per-op path writes keeps an adjacent-line pair
// away from every word that tasks on other locales read there. The
// layout tests of gas, pgas and the structures share it.
package layouttest

import (
	"reflect"
	"testing"
)

// Apart is how far a word written on the per-op path stays from a
// word other locales read there: an adjacent-line pair. Ranges this
// far apart share no 64-byte line and no 128-byte pair at any base
// alignment.
const Apart = 128

// CheckApart fails t if any written field of struct type typ lies
// within Apart bytes of any read field, in the same object or in the
// next one of its size (the allocator hands out same-size objects back
// to back). Fields are named as declared in typ itself.
func CheckApart(t testing.TB, typ reflect.Type, read, written []string) {
	t.Helper()
	size := int(typ.Size())
	span := func(name string) (off, end int) {
		f, ok := typ.FieldByName(name)
		if !ok || len(f.Index) != 1 {
			t.Fatalf("%v has no field %s of its own", typ, name)
		}
		return int(f.Offset), int(f.Offset + f.Type.Size())
	}
	for _, w := range written {
		wOff, wEnd := span(w)
		for _, r := range read {
			off, end := span(r)
			for _, shift := range []int{-1, 0, 1} {
				rOff, rEnd := off+shift*size, end+shift*size
				gap := wOff - rEnd
				if rOff > wOff {
					gap = rOff - wEnd
				}
				if gap < Apart {
					t.Errorf("%v: written %s [%d,%d) is %d B from read %s [%d,%d) (object shift %d), want >= %d",
						typ, w, wOff, wEnd, gap, r, rOff, rEnd, shift, Apart)
				}
			}
		}
	}
}
