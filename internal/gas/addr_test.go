package gas

import (
	"testing"
	"testing/quick"
)

func TestAddrNil(t *testing.T) {
	if !AddrNil.IsNil() {
		t.Fatal("AddrNil must be nil")
	}
	if AddrNil.String() != "nil" {
		t.Fatalf("AddrNil.String() = %q", AddrNil.String())
	}
}

func TestMakeAddrRoundTrip(t *testing.T) {
	cases := []struct {
		locale int
		index  uint64
	}{
		{0, 0},
		{0, 1},
		{1, 0},
		{65535, 0},
		{65535, MaxIndex - 2},
		{42, 1 << 40},
	}
	for _, tc := range cases {
		a := MakeAddr(tc.locale, tc.index)
		if a.IsNil() {
			t.Fatalf("MakeAddr(%d,%d) is nil", tc.locale, tc.index)
		}
		if got := a.Locale(); got != tc.locale {
			t.Errorf("MakeAddr(%d,%d).Locale() = %d", tc.locale, tc.index, got)
		}
		if got := a.Index(); got != tc.index {
			t.Errorf("MakeAddr(%d,%d).Index() = %d", tc.locale, tc.index, got)
		}
	}
}

func TestMakeAddrPanics(t *testing.T) {
	mustPanic(t, "negative locale", func() { MakeAddr(-1, 0) })
	mustPanic(t, "locale too large", func() { MakeAddr(MaxLocales, 0) })
	mustPanic(t, "index too large", func() { MakeAddr(0, MaxIndex) })
	mustPanic(t, "Locale on nil", func() { AddrNil.Locale() })
	mustPanic(t, "Index on nil", func() { AddrNil.Index() })
}

func TestAddrZeroSlotZeroLocaleDistinctFromNil(t *testing.T) {
	a := MakeAddr(0, 0)
	if a.IsNil() {
		t.Fatal("locale 0 slot 0 must not collide with nil")
	}
}

// Property: compression round-trips for every representable pair.
func TestAddrRoundTripProperty(t *testing.T) {
	f := func(locRaw uint16, idxRaw uint64) bool {
		loc := int(locRaw)
		idx := idxRaw % (MaxIndex - 1)
		a := MakeAddr(loc, idx)
		return a.Locale() == loc && a.Index() == idx && !a.IsNil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct (locale, index) pairs produce distinct addresses.
func TestAddrInjectivityProperty(t *testing.T) {
	f := func(l1, l2 uint16, i1, i2 uint32) bool {
		a1 := MakeAddr(int(l1), uint64(i1))
		a2 := MakeAddr(int(l2), uint64(i2))
		same := l1 == l2 && i1 == i2
		return (a1 == a2) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWidePtrRoundTrip(t *testing.T) {
	a := MakeAddr(7, 1234)
	w := a.Wide()
	if w.IsNil() {
		t.Fatal("wide of non-nil is nil")
	}
	if w.Locale() != 7 || w.Index() != 1234 {
		t.Fatalf("wide = %v", w)
	}
	if got := w.Compress(); got != a {
		t.Fatalf("compress(wide(%v)) = %v", a, got)
	}
}

func TestWideNil(t *testing.T) {
	if !WideNil.IsNil() {
		t.Fatal("WideNil must be nil")
	}
	if got := AddrNil.Wide(); got != WideNil {
		t.Fatalf("nil.Wide() = %v", got)
	}
	if got := WideNil.Compress(); got != AddrNil {
		t.Fatalf("WideNil.Compress() = %v", got)
	}
	mustPanic(t, "Locale on wide nil", func() { WideNil.Locale() })
}

func TestMakeWideBeyondCompressedRange(t *testing.T) {
	// Locales beyond 2^16 are representable wide, not compressed.
	w := WidePtr{Locality: 1 << 20, VAddr: 5 + 1}
	if w.Locale() != 1<<20 || w.Index() != 5 {
		t.Fatalf("w = %v", w)
	}
	mustPanic(t, "compressing an oversized locale", func() { w.Compress() })
}

// Property: Wide/Compress round-trips through the 128-bit form.
func TestWideRoundTripProperty(t *testing.T) {
	f := func(locRaw uint16, idxRaw uint32) bool {
		a := MakeAddr(int(locRaw), uint64(idxRaw))
		return a.Wide().Compress() == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrString(t *testing.T) {
	a := MakeAddr(3, 99)
	if got := a.String(); got != "L3:99" {
		t.Fatalf("String() = %q", got)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
