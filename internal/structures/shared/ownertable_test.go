package shared

import "testing"

// Owner and generation pack into one word: a single load observes a
// consistent pair, and every republish bumps the generation.
func TestOwnerTablePacking(t *testing.T) {
	tab := NewOwnerTable(8, func(e int) int { return e % 3 })
	if tab.Len() != 8 {
		t.Fatalf("Len = %d", tab.Len())
	}
	for e := 0; e < 8; e++ {
		owner, gen := tab.Owner(e)
		if owner != e%3 || gen != 0 {
			t.Fatalf("entry %d = (%d,%d), want (%d,0)", e, owner, gen, e%3)
		}
	}
	if g := tab.Republish(5, 7); g != 1 {
		t.Fatalf("first republish gen = %d, want 1", g)
	}
	if g := tab.Republish(5, 2); g != 2 {
		t.Fatalf("second republish gen = %d, want 2", g)
	}
	owner, gen := tab.Owner(5)
	if owner != 2 || gen != 2 {
		t.Fatalf("entry 5 = (%d,%d), want (2,2)", owner, gen)
	}
	// Neighbours are untouched.
	if owner, gen := tab.Owner(4); owner != 1 || gen != 0 {
		t.Fatalf("entry 4 = (%d,%d), want (1,0)", owner, gen)
	}
}

func TestOwnerTableRejectsWideOwners(t *testing.T) {
	for _, fn := range []func(){
		func() { NewOwnerTable(1, func(int) int { return 1 << 16 }) },
		func() { NewOwnerTable(1, func(int) int { return -1 }) },
		func() { NewOwnerTable(1, func(int) int { return 0 }).Republish(0, 1<<16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("owner outside the 16-bit field did not panic")
				}
			}()
			fn()
		}()
	}
}
