package epoch

import (
	"sync"
	"testing"
	"testing/quick"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int, backend comm.Backend) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: backend})
	t.Cleanup(s.Shutdown)
	return s
}

type payload struct{ v int }

func TestLimboPushDrain(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := NewLimboList(c)
		var want []gas.Addr
		for i := 0; i < 10; i++ {
			a := c.Alloc(&payload{v: i})
			want = append(want, a)
			l.Push(c, a)
		}
		got := l.Drain(c)
		if len(got) != len(want) {
			t.Fatalf("drained %d, want %d", len(got), len(want))
		}
		set := make(map[gas.Addr]bool, len(got))
		for _, a := range got {
			set[a] = true
		}
		for _, a := range want {
			if !set[a] {
				t.Fatalf("lost %v", a)
			}
		}
	})
}

func TestLimboEmptyDrain(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := NewLimboList(c)
		if got := l.Drain(c); len(got) != 0 {
			t.Fatalf("fresh list drained %d objects", len(got))
		}
		if !l.PopAll().IsNil() {
			t.Fatal("PopAll of empty list not nil")
		}
		l.Release(c, gas.AddrNil, func(gas.Addr) { t.Fatal("Release of a nil chain visited an object") })
	})
}

func TestLimboNodeRecycling(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := NewLimboList(c)
		obj := c.Alloc(&payload{})
		// First round allocates nodes; drain recycles them.
		for i := 0; i < 5; i++ {
			l.Push(c, obj)
		}
		l.Drain(c)
		allocsAfterRound1 := s.HeapStats().Allocs
		// Second round must reuse the pooled nodes: no new allocations.
		for i := 0; i < 5; i++ {
			l.Push(c, obj)
		}
		l.Drain(c)
		if got := s.HeapStats().Allocs; got != allocsAfterRound1 {
			t.Fatalf("second round allocated %d fresh nodes", got-allocsAfterRound1)
		}
	})
}

// The deletion phase is one walk: every object of a detached chain is
// visited exactly once, the whole chain goes back to the pool in one
// piece, and the pool then serves as many pushes as the chain was long
// without touching the heap or the host allocator.
func TestLimboReleaseOneWalk(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := NewLimboList(c)
		const n = 100
		seen := make(map[gas.Addr]int, n)
		for i := 0; i < n; i++ {
			l.Push(c, c.Alloc(&payload{v: i}))
		}
		l.Release(c, l.PopAll(), func(obj gas.Addr) { seen[obj]++ })
		if len(seen) != n {
			t.Fatalf("visited %d distinct objects, want %d", len(seen), n)
		}
		for obj, times := range seen {
			if times != 1 {
				t.Fatalf("%v visited %d times", obj, times)
			}
		}
		if !l.PopAll().IsNil() {
			t.Fatal("list not empty after the detach")
		}
		obj := c.Alloc(&payload{})
		heapAllocs := s.HeapStats().Allocs
		visited := 0
		if avg := testing.AllocsPerRun(20, func() {
			for i := 0; i < n; i++ {
				l.Push(c, obj)
			}
			l.Release(c, l.PopAll(), func(gas.Addr) { visited++ })
		}); avg != 0 {
			t.Errorf("a warm pool allocates %.2f per %d pushes and their release", avg, n)
		}
		if visited != 21*n { // AllocsPerRun warms up with one extra run
			t.Errorf("visited %d objects over 21 rounds of %d", visited, n)
		}
		if got := s.HeapStats().Allocs; got != heapAllocs {
			t.Errorf("warm pool allocated %d fresh nodes", got-heapAllocs)
		}
	})
}

// Generations are independent lists sharing one node pool: tasks
// pushing onto the current generation's list — popping nodes off the
// pool — while the reclaimer detaches another's and hands its chain
// back to that pool (run with -race) lose nothing and double nothing
// on either.
func TestLimboReleaseBesidePushersOnAnotherList(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c0 := s.Ctx(0)
	gens := newGenerations(c0)
	current, reclaiming := gens[1], gens[2]
	const tasks = 4
	const per = 500
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Ctx(0)
			for i := 0; i < per; i++ {
				current.Push(c, c.Alloc(&payload{}))
			}
		}()
	}
	released := 0
	for round := 0; round < 50; round++ {
		want := make(map[gas.Addr]bool, 32)
		for i := 0; i < 32; i++ {
			a := c0.Alloc(&payload{})
			want[a] = true
			reclaiming.Push(c0, a)
		}
		reclaiming.Release(c0, reclaiming.PopAll(), func(obj gas.Addr) {
			if !want[obj] {
				t.Errorf("round %d: %v visited twice or never pushed", round, obj)
			}
			delete(want, obj)
			c0.Free(obj)
			released++
		})
		if len(want) != 0 {
			t.Fatalf("round %d lost %d objects", round, len(want))
		}
	}
	wg.Wait()
	got := current.Drain(c0)
	set := make(map[gas.Addr]bool, len(got))
	for _, a := range got {
		set[a] = true
	}
	if len(got) != tasks*per || len(set) != tasks*per {
		t.Fatalf("current list drained %d objects (%d distinct), want %d", len(got), len(set), tasks*per)
	}
	if released != 50*32 {
		t.Fatalf("released %d, want %d", released, 50*32)
	}
	if st := s.HeapStats(); st.UAFLoads+st.UAFStores+st.UAFFrees != 0 {
		t.Fatalf("heap misuse: %v", st)
	}
}

// A chain released from one generation serves the next pushes to any
// other: the pool holds the locale's peak once, not once per list.
func TestGenerationsShareOnePool(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	gens := newGenerations(c)
	obj := c.Alloc(&payload{})
	const burst = 64
	for i := 0; i < burst; i++ {
		gens[1].Push(c, obj)
	}
	gens[1].Drain(c)
	allocs := s.HeapStats().Allocs
	for e := firstEpoch + 1; e <= numEpochs; e++ {
		for i := 0; i < burst; i++ {
			gens[e].Push(c, obj)
		}
		gens[e].Drain(c)
	}
	if got := s.HeapStats().Allocs; got != allocs {
		t.Fatalf("later generations allocated %d nodes beside the pooled %d", got-allocs, burst)
	}
}

func TestLimboConcurrentInsertPhase(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	l := NewLimboList(s.Ctx(0))
	const tasks = 8
	const per = 200
	var wg sync.WaitGroup
	addrs := make([][]gas.Addr, tasks)
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(0)
			for i := 0; i < per; i++ {
				a := c.Alloc(&payload{v: g*per + i})
				addrs[g] = append(addrs[g], a)
				l.Push(c, a)
			}
		}(g)
	}
	wg.Wait()
	got := l.Drain(s.Ctx(0))
	if len(got) != tasks*per {
		t.Fatalf("drained %d, want %d", len(got), tasks*per)
	}
	set := make(map[gas.Addr]bool, len(got))
	for _, a := range got {
		if set[a] {
			t.Fatalf("duplicate %v", a)
		}
		set[a] = true
	}
	for _, g := range addrs {
		for _, a := range g {
			if !set[a] {
				t.Fatalf("lost %v", a)
			}
		}
	}
}

// Property: for any push sequence, drain returns exactly the pushed
// multiset (as a set — addresses are unique).
func TestLimboMultisetProperty(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	l := NewLimboList(c)
	f := func(sizes uint8) bool {
		n := int(sizes % 64)
		pushed := make(map[gas.Addr]bool, n)
		for i := 0; i < n; i++ {
			a := c.Alloc(&payload{v: i})
			pushed[a] = true
			l.Push(c, a)
		}
		got := l.Drain(c)
		if len(got) != n {
			return false
		}
		for _, a := range got {
			if !pushed[a] {
				return false
			}
			c.Free(a) // release so addresses can recycle
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The recycle pool is ABA-protected: concurrent pushers pop nodes from
// the pool at once, racing the exact read-deref-CAS window the stamp
// protects. Phases stay disjoint (drain only at barriers), as the
// protocol requires.
func TestLimboPoolContention(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c0 := s.Ctx(0)
	l := NewLimboList(c0)
	const rounds = 30
	const tasks = 8
	const per = 16
	// Pre-seed the pool so round one already contends on recycling.
	for i := 0; i < tasks*per; i++ {
		l.Push(c0, c0.Alloc(&payload{}))
	}
	for _, a := range l.Drain(c0) {
		c0.Free(a)
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < tasks; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := s.Ctx(0)
				for i := 0; i < per; i++ {
					l.Push(c, c.Alloc(&payload{}))
				}
			}()
		}
		wg.Wait() // barrier: insertion phase over
		got := l.Drain(c0)
		if len(got) != tasks*per {
			t.Fatalf("round %d drained %d, want %d", r, len(got), tasks*per)
		}
		for _, a := range got {
			c0.Free(a)
		}
	}
}
