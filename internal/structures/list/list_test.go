package list

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int, backend comm.Backend) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: backend})
	t.Cleanup(s.Shutdown)
	return s
}

func setup(t testing.TB, locales int) (*pgas.System, *List[int], *epoch.Token, *pgas.Ctx) {
	s := newTestSystem(t, locales, comm.BackendNone)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	l := New[int](c, 0, em)
	return s, l, em.Register(c), c
}

func TestListInsertGetRemove(t *testing.T) {
	_, l, tok, c := setup(t, 1)
	if !l.Insert(c, tok, 5, 50) {
		t.Fatal("insert failed")
	}
	if l.Insert(c, tok, 5, 51) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := l.Get(c, tok, 5); !ok || v != 50 {
		t.Fatalf("get = (%d,%v)", v, ok)
	}
	if _, ok := l.Get(c, tok, 6); ok {
		t.Fatal("get of absent key succeeded")
	}
	if !l.Remove(c, tok, 5) {
		t.Fatal("remove failed")
	}
	if l.Remove(c, tok, 5) {
		t.Fatal("double remove succeeded")
	}
	if l.Contains(c, tok, 5) {
		t.Fatal("contains after remove")
	}
}

func TestListSortedOrder(t *testing.T) {
	_, l, tok, c := setup(t, 1)
	keys := []uint64{9, 3, 7, 1, 5, 8, 2, 6, 4, 0}
	for _, k := range keys {
		l.Insert(c, tok, k, int(k)*10)
	}
	got := l.Keys(c, tok)
	if len(got) != len(keys) {
		t.Fatalf("keys = %v", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("keys not sorted: %v", got)
	}
}

func TestListUpsert(t *testing.T) {
	_, l, tok, c := setup(t, 1)
	if l.Upsert(c, tok, 1, 10) {
		t.Fatal("first upsert reported replacement")
	}
	if !l.Upsert(c, tok, 1, 11) {
		t.Fatal("second upsert did not replace")
	}
	if v, _ := l.Get(c, tok, 1); v != 11 {
		t.Fatalf("get after upsert = %d", v)
	}
	if n := l.Len(c, tok); n != 1 {
		t.Fatalf("len = %d after upsert", n)
	}
}

func TestListRemoveMiddle(t *testing.T) {
	_, l, tok, c := setup(t, 1)
	for k := uint64(0); k < 10; k++ {
		l.Insert(c, tok, k, int(k))
	}
	l.Remove(c, tok, 5)
	want := []uint64{0, 1, 2, 3, 4, 6, 7, 8, 9}
	got := l.Keys(c, tok)
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v", got)
		}
	}
}

// Property: the list behaves like a sorted set under any op sequence.
func TestListSetSemanticsProperty(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	f := func(ops []uint16) bool {
		l := New[int](c, 0, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		model := map[uint64]int{}
		for i, op := range ops {
			k := uint64(op % 32)
			switch op % 3 {
			case 0:
				ins := l.Insert(c, tok, k, i)
				_, had := model[k]
				if ins == had {
					return false
				}
				if ins {
					model[k] = i
				}
			case 1:
				rem := l.Remove(c, tok, k)
				_, had := model[k]
				if rem != had {
					return false
				}
				delete(model, k)
			case 2:
				v, ok := l.Get(c, tok, k)
				mv, had := model[k]
				if ok != had || (ok && v != mv) {
					return false
				}
			}
		}
		if l.Len(c, tok) != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestListConcurrentDisjointKeys(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	em := epoch.NewEpochManager(s.Ctx(0))
	l := New[int](s.Ctx(0), 0, em)
	const tasks = 6
	const perTask = 60
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 2)
			tok := em.Register(c)
			defer tok.Unregister(c)
			for i := 0; i < perTask; i++ {
				k := uint64(g*perTask + i)
				if !l.Insert(c, tok, k, int(k)) {
					t.Errorf("insert %d failed", k)
					return
				}
			}
			// Remove the odd half.
			for i := 0; i < perTask; i++ {
				k := uint64(g*perTask + i)
				if k%2 == 1 {
					if !l.Remove(c, tok, k) {
						t.Errorf("remove %d failed", k)
						return
					}
				}
				if i%16 == 0 {
					tok.TryReclaim(c)
				}
			}
		}(g)
	}
	wg.Wait()
	c := s.Ctx(0)
	tok := em.Register(c)
	for k := uint64(0); k < tasks*perTask; k++ {
		want := k%2 == 0
		if got := l.Contains(c, tok, k); got != want {
			t.Fatalf("key %d present=%v want %v", k, got, want)
		}
	}
	tok.Unregister(c)
	em.Clear(c)
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d UAF loads", uaf)
	}
}

// Contended single key: inserts and removes race; invariant is that
// every successful Insert alternates with a successful Remove.
func TestListContendedKey(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	em := epoch.NewEpochManager(s.Ctx(0))
	l := New[int](s.Ctx(0), 0, em)
	const tasks = 4
	const iters = 150
	var insN, remN int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 2)
			tok := em.Register(c)
			defer tok.Unregister(c)
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					if l.Insert(c, tok, 42, i) {
						mu.Lock()
						insN++
						mu.Unlock()
					}
				} else {
					if l.Remove(c, tok, 42) {
						mu.Lock()
						remN++
						mu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c := s.Ctx(0)
	tok := em.Register(c)
	present := l.Contains(c, tok, 42)
	mu.Lock()
	defer mu.Unlock()
	// Successful inserts and removes on one key must interleave:
	// counts differ by exactly the final presence.
	wantIns := remN
	if present {
		wantIns++
	}
	if insN != wantIns {
		t.Fatalf("inserts=%d removes=%d present=%v — not alternating", insN, remN, present)
	}
	tok.Unregister(c)
	em.Clear(c)
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d UAF loads", uaf)
	}
}

func TestListStats(t *testing.T) {
	_, l, tok, c := setup(t, 1)
	l.Insert(c, tok, 1, 1)
	l.Insert(c, tok, 2, 2)
	l.Remove(c, tok, 1)
	st := l.Stats()
	if st.Inserts != 2 || st.Removes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A list cell is one host object: node, successor word and heap box
// are a single allocation, so an insert costs the Go allocator exactly
// that (the structure-level gate beside pgas's TestAMAtomicsZeroAlloc).
func TestListInsertAllocatesOneObject(t *testing.T) {
	_, l, tok, c := setup(t, 1)
	l.Insert(c, tok, 0, 0) // first heap chunk exists
	k := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		k++
		l.Insert(c, tok, k, int(k))
	}); avg > 1 {
		t.Fatalf("Insert allocates %.2f objects per node, want at most 1", avg)
	}
}
