package gas

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestHeapAllocLoad(t *testing.T) {
	h := NewHeap(2)
	type obj struct{ v int }
	a := h.Alloc(&obj{v: 41})
	if a.Locale() != 2 {
		t.Fatalf("alloc locale = %d", a.Locale())
	}
	got, ok := h.Load(a)
	if !ok {
		t.Fatal("load of live object failed")
	}
	if got.(*obj).v != 41 {
		t.Fatalf("loaded %v", got)
	}
}

// typedObj is a node of a typed chunk, as structure nodes are.
type typedObj struct{ v int }

// otherObj is a second node type, for tests that mix chunks of two
// types in one heap.
type otherObj struct{ v int }

var (
	objType   = TypeOf[typedObj]()
	otherType = TypeOf[otherObj]()
)

// objectKind is one face of the heap contract: values on the boxed
// path, or nodes of a typed chunk.
type objectKind struct {
	alloc func(h *Heap, v int) Addr
	load  func(h *Heap, a Addr) (int, bool)
	// hold loads a's slot as a racing reader would and returns a reader
	// of the object the loaded pointer names.
	hold func(h *Heap, a Addr) func() int
}

// forEachObjectKind runs one heap-contract test twice: with plain
// values, which ride the boxed path in a box the heap allocates, and
// with the nodes of a typed chunk, which sit bare in their slots. The
// contract — poison, UAF counting, LIFO reuse, Stats — must not tell
// them apart.
func forEachObjectKind(t *testing.T, test func(t *testing.T, k objectKind)) {
	t.Run("plain", func(t *testing.T) {
		test(t, objectKind{
			alloc: func(h *Heap, v int) Addr { return h.Alloc(v) },
			load: func(h *Heap, a Addr) (int, bool) {
				obj, ok := h.Load(a)
				if !ok {
					return 0, false
				}
				return obj.(int), true
			},
			hold: func(h *Heap, a Addr) func() int {
				s, _ := h.slot(a.Index())
				box := (*any)(atomic.LoadPointer(s))
				return func() int { return (*box).(int) }
			},
		})
	})
	t.Run("typed", func(t *testing.T) {
		test(t, objectKind{
			alloc: func(h *Heap, v int) Addr { return objType.Alloc(h, &typedObj{v: v}) },
			load: func(h *Heap, a Addr) (int, bool) {
				n, ok := objType.Load(h, a)
				if !ok {
					return 0, false
				}
				return n.v, true
			},
			hold: func(h *Heap, a Addr) func() int {
				n, _ := objType.Load(h, a)
				return func() int { return n.v }
			},
		})
	})
}

func TestHeapFreePoisons(t *testing.T) {
	forEachObjectKind(t, func(t *testing.T, k objectKind) {
		h := NewHeap(0)
		a := k.alloc(h, 1)
		// A reader that wins the race to load the slot just before Free...
		stale := k.hold(h, a)
		if !h.Free(a) {
			t.Fatal("first free failed")
		}
		if _, ok := k.load(h, a); ok {
			t.Fatal("load after free must fail (poison)")
		}
		if h.Free(a) {
			t.Fatal("double free must be detected")
		}
		st := h.Stats()
		if st.UAFLoads != 1 || st.UAFFrees != 1 {
			t.Fatalf("stats = %+v", st)
		}
		// ...still reads the old object, even once the address is reused:
		// what a slot points at is never rewritten.
		if b := k.alloc(h, 2); b != a {
			t.Fatalf("slot not reused: %v vs %v", a, b)
		}
		if got := stale(); got != 1 {
			t.Fatalf("stale reader sees %d through the old pointer, want 1", got)
		}
	})
}

func TestHeapLIFOReuse(t *testing.T) {
	forEachObjectKind(t, func(t *testing.T, k objectKind) {
		h := NewHeap(0)
		a := k.alloc(h, 1)
		h.Free(a)
		b := k.alloc(h, 2)
		if a != b {
			t.Fatalf("expected LIFO slot reuse: %v vs %v — the ABA hazard depends on it", a, b)
		}
		if got, ok := k.load(h, b); !ok || got != 2 {
			t.Fatalf("reused slot holds %v ok=%v", got, ok)
		}
	})
}

func TestHeapStoreInPlace(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		h := NewHeap(0)
		a := h.Alloc(1)
		before, _ := h.slot(a.Index())
		old := (*any)(atomic.LoadPointer(before))
		if !h.Store(a, 2) {
			t.Fatal("store to live slot failed")
		}
		if got, _ := h.Load(a); got.(int) != 2 {
			t.Fatalf("got %v", got)
		}
		if (*old).(int) != 1 {
			t.Fatalf("Store rewrote the box a reader may hold: it reads %v", *old)
		}
		h.Free(a)
		if h.Store(a, 3) {
			t.Fatal("store to freed slot must be detected")
		}
		st := h.Stats()
		if st.UAFStores != 1 {
			t.Fatalf("UAFStores = %d, want 1", st.UAFStores)
		}
		if st.UAFLoads != 0 {
			t.Fatalf("a poisoned store must not count as a poisoned load: %+v", st)
		}
		if got := st.String(); !strings.Contains(got, "uafStores=1") {
			t.Fatalf("Stats.String() = %q missing uafStores", got)
		}
		// A store to an address beyond anything ever allocated is the same
		// class of bug.
		if h.Store(MakeAddr(0, 1<<20), 4) {
			t.Fatal("store to never-allocated slot must be detected")
		}
		if st = h.Stats(); st.UAFStores != 2 {
			t.Fatalf("UAFStores = %d, want 2", st.UAFStores)
		}
	})
	// A typed node is published once and never replaced: a Store of its
	// address panics and leaves the slot and the books as they were.
	t.Run("typed", func(t *testing.T) {
		h := NewHeap(0)
		a := objType.Alloc(h, &typedObj{v: 1})
		st := h.Stats()
		mustPanic(t, "boxed store of a typed address", func() { h.Store(a, 2) })
		if n, ok := objType.Load(h, a); !ok || n.v != 1 {
			t.Fatalf("typed slot after a refused store: %+v ok=%v", n, ok)
		}
		if got := h.Stats(); got != st {
			t.Fatalf("a refused store moved the books: %+v, want %+v", got, st)
		}
	})
}

// Publishing a typed node costs the heap no host allocation: the node
// itself is the only one, and a Load none, against two per Alloc
// (object and box) on the boxed path.
func TestHeapTypedAllocAddsNoAllocation(t *testing.T) {
	h := NewHeap(0)
	h.Free(h.Alloc(0))                    // the boxed chunk and pool exist
	h.Free(objType.Alloc(h, &typedObj{})) // and the typed ones
	a := objType.Alloc(h, &typedObj{v: 7})
	if avg := testing.AllocsPerRun(200, func() { h.Free(objType.Alloc(h, &typedObj{})) }); avg != 1 {
		t.Errorf("typed Alloc: %.2f allocations, want 1 (the node)", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { objType.Load(h, a) }); avg != 0 {
		t.Errorf("typed Load: %.2f allocations, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { h.Free(h.Alloc(&struct{ v int }{})) }); avg != 2 {
		t.Errorf("boxed Alloc of a plain object: %.2f allocations, want 2 (object and box)", avg)
	}
}

// A dereference through the wrong face panics instead of reading a
// slot as a type it does not hold: a typed Load of another type's
// chunk, a typed Load of a boxed slot, and a boxed Load or Store of a
// typed one.
func TestHeapWrongFacePanics(t *testing.T) {
	h := NewHeap(0)
	typed := objType.Alloc(h, &typedObj{v: 1})
	other := otherType.Alloc(h, &otherObj{v: 2})
	plain := h.Alloc(3)
	mustPanic(t, "typed load with another type's tag", func() { otherType.Load(h, typed) })
	mustPanic(t, "typed load with another type's tag", func() { objType.Load(h, other) })
	mustPanic(t, "typed load of a boxed slot", func() { objType.Load(h, plain) })
	mustPanic(t, "boxed load of a typed slot", func() { h.Load(typed) })
	mustPanic(t, "boxed store to a typed slot", func() { h.Store(other, 4) })
	// A freed typed slot is still its chunk's: the wrong face panics
	// there too, rather than reporting a use-after-free.
	h.Free(typed)
	mustPanic(t, "boxed load of a freed typed slot", func() { h.Load(typed) })
	if st := h.Stats(); st.UAFLoads != 0 || st.UAFStores != 0 {
		t.Fatalf("a panicking access was booked as a use-after-free: %+v", st)
	}
}

// A reader that loaded a typed node before it was freed and its
// address reallocated keeps reading the node it loaded; the new node
// is a different object.
func TestHeapTypedStaleReaderKeepsOldNode(t *testing.T) {
	h := NewHeap(0)
	a := objType.Alloc(h, &typedObj{v: 1})
	held, _ := objType.Load(h, a)
	h.Free(a)
	if b := objType.Alloc(h, &typedObj{v: 2}); b != a {
		t.Fatalf("slot not reused: %v vs %v", a, b)
	}
	fresh, ok := objType.Load(h, a)
	if !ok || fresh.v != 2 || fresh == held {
		t.Fatalf("reused slot holds %+v ok=%v (same node as the stale reader's: %v)", fresh, ok, fresh == held)
	}
	if held.v != 1 {
		t.Fatalf("stale reader sees %d, want 1", held.v)
	}
}

func TestHeapWrongLocalePanics(t *testing.T) {
	h := NewHeap(1)
	other := MakeAddr(0, 0)
	mustPanic(t, "foreign load", func() { h.Load(other) })
	mustPanic(t, "foreign free", func() { h.Free(other) })
	mustPanic(t, "nil load", func() { h.Load(AddrNil) })
	mustPanic(t, "foreign typed load", func() { objType.Load(h, other) })
}

func TestHeapStats(t *testing.T) {
	forEachObjectKind(t, func(t *testing.T, k objectKind) {
		h := NewHeap(0)
		var addrs []Addr
		for i := 0; i < 5; i++ {
			addrs = append(addrs, k.alloc(h, i))
		}
		st := h.Stats()
		if st.Live != 5 || st.Allocs != 5 || st.HighWater != 5 {
			t.Fatalf("stats = %+v", st)
		}
		for _, a := range addrs[:3] {
			h.Free(a)
		}
		st = h.Stats()
		if st.Live != 2 || st.Frees != 3 || st.HighWater != 5 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestHeapConcurrentAllocFree(t *testing.T) {
	h := NewHeap(0)
	const goroutines = 8
	const per = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []Addr
			for i := 0; i < per; i++ {
				mine = append(mine, h.Alloc(g*per+i))
			}
			for _, a := range mine {
				v, ok := h.Load(a)
				if !ok {
					t.Errorf("lost object at %v", a)
					return
				}
				_ = v
				if !h.Free(a) {
					t.Errorf("free failed at %v", a)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := h.Stats()
	if st.Live != 0 {
		t.Fatalf("leaked %d slots", st.Live)
	}
	if st.Allocs != goroutines*per || st.Frees != goroutines*per {
		t.Fatalf("stats = %+v", st)
	}
	if st.UAFLoads != 0 || st.UAFFrees != 0 {
		t.Fatalf("unexpected UAF: %+v", st)
	}
}

// TestHeapLockFreeReadersUnderChurn races lock-free Loads and Stores
// against an alloc/free churn on the same heap: readers must only ever
// observe a value some Store published or a poison verdict, never a
// torn or stale object, and the bookkeeping must balance afterwards.
// Run under -race this is the regression guard for the chunked
// atomic-slot storage.
func TestHeapLockFreeReadersUnderChurn(t *testing.T) {
	h := NewHeap(0)
	const stable = 64
	addrs := make([]Addr, stable)
	for i := range addrs {
		addrs[i] = h.Alloc(int64(0))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: Store monotonically tagged values into the stable set.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !h.Store(addrs[i%stable], int64(i)) {
					t.Error("store to live slot failed")
					return
				}
			}
		}(w)
	}
	// Churner: allocate and free around the stable set, forcing
	// directory growth and free-list reuse while readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mine []Addr
		for i := 0; ; i++ {
			select {
			case <-stop:
				for _, a := range mine {
					h.Free(a)
				}
				return
			default:
			}
			mine = append(mine, h.Alloc(i))
			if len(mine) > 2*chunkSize {
				for _, a := range mine {
					h.Free(a)
				}
				mine = mine[:0]
			}
		}
	}()
	// Readers: every load of a stable address must succeed and carry a
	// value of the type the writers publish. They run to a fixed count;
	// writers and the churner wind down once the readers are done.
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200_000; i++ {
				v, ok := h.Load(addrs[i%stable])
				if !ok {
					t.Error("live slot reported poisoned")
					return
				}
				if _, isInt := v.(int64); !isInt {
					t.Errorf("torn read: %T", v)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	st := h.Stats()
	if st.UAFLoads != 0 || st.UAFStores != 0 || st.UAFFrees != 0 {
		t.Fatalf("unexpected UAF during churn: %+v", st)
	}
	if st.Live != st.Allocs-st.Frees {
		t.Fatalf("bookkeeping imbalance: %+v", st)
	}
}

// Property: any interleaved alloc/free sequence keeps Live ==
// Allocs - Frees and never corrupts slot contents.
func TestHeapInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		h := NewHeap(0)
		var live []Addr
		next := 0
		for _, isAlloc := range ops {
			if isAlloc || len(live) == 0 {
				live = append(live, h.Alloc(next))
				next++
			} else {
				a := live[len(live)-1]
				live = live[:len(live)-1]
				if !h.Free(a) {
					return false
				}
			}
		}
		st := h.Stats()
		if st.Live != int64(len(live)) || st.Live != st.Allocs-st.Frees {
			return false
		}
		for _, a := range live {
			if _, ok := h.Load(a); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Live: 1, Allocs: 2, Frees: 3, UAFLoads: 4, UAFStores: 7, UAFFrees: 5, HighWater: 6}
	b := Stats{Live: 10, Allocs: 20, Frees: 30, UAFLoads: 40, UAFStores: 70, UAFFrees: 50, HighWater: 60}
	got := a.Add(b)
	want := Stats{Live: 11, Allocs: 22, Frees: 33, UAFLoads: 44, UAFStores: 77, UAFFrees: 55, HighWater: 66}
	if got != want {
		t.Fatalf("Add = %+v", got)
	}
}
