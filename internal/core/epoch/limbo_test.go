package epoch

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
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

// newLimbo creates a limbo list with a node pool of its own.
func newLimbo(c *pgas.Ctx) *LimboList {
	return newLimboList(c, atomics.NewLocal(c.Here(), true))
}

func TestLimboPushDrain(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := newLimbo(c)
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
		l := newLimbo(c)
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
		l := newLimbo(c)
		obj := c.Alloc(&payload{})
		// First round allocates one block per limboBlockSize objects on
		// a cold pool; drain recycles them.
		const n = 3*limboBlockSize + 5
		cold := s.HeapStats().Allocs
		for i := 0; i < n; i++ {
			l.Push(c, obj)
		}
		if got := l.Drain(c); len(got) != n {
			t.Fatalf("drained %d objects, want %d", len(got), n)
		}
		allocsAfterRound1 := s.HeapStats().Allocs
		if blocks := allocsAfterRound1 - cold; blocks != (n+limboBlockSize-1)/limboBlockSize {
			t.Fatalf("a cold pool allocated %d blocks for %d pushes, want %d", blocks, n, (n+limboBlockSize-1)/limboBlockSize)
		}
		// Second round must reuse the pooled blocks: no new allocations.
		for i := 0; i < n; i++ {
			l.Push(c, obj)
		}
		l.Drain(c)
		if got := s.HeapStats().Allocs; got != allocsAfterRound1 {
			t.Fatalf("second round allocated %d fresh blocks", got-allocsAfterRound1)
		}
	})
}

// The deletion phase is one walk: every object of a detached chain of
// several blocks is visited exactly once, the whole chain goes back to
// the pool in one piece, and the pool then serves as many pushes as
// the chain held without touching the heap or the host allocator.
func TestLimboReleaseOneWalk(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		l := newLimbo(c)
		const n = 5*limboBlockSize + 3
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
			t.Errorf("warm pool allocated %d fresh blocks", got-heapAllocs)
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
	l := newLimbo(s.Ctx(0))
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
	l := newLimbo(c)
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
	l := newLimbo(c0)
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

// Four tasks each push 10 blocks' worth of objects and 7 more, so
// pushes claim slots across block boundaries and race to publish the
// next block. Every object is visited exactly once.
func TestLimboBlocksAcrossBoundaries(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	l := newLimbo(s.Ctx(0))
	const tasks, per = 4, 10*limboBlockSize + 7
	addrs := make([][]gas.Addr, tasks)
	var wg sync.WaitGroup
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
	c := s.Ctx(0)
	if got := l.Len(c); got != tasks*per {
		t.Fatalf("Len = %d, want %d", got, tasks*per)
	}
	seen := make(map[gas.Addr]int, tasks*per)
	l.Release(c, l.PopAll(), func(obj gas.Addr) { seen[obj]++ })
	for _, g := range addrs {
		for _, a := range g {
			if seen[a] != 1 {
				t.Fatalf("%v visited %d times", a, seen[a])
			}
			delete(seen, a)
		}
	}
	if len(seen) != 0 {
		t.Fatalf("visited %d objects never pushed", len(seen))
	}
}

// A block is published only after its count and slot 0 are written, so
// a pusher that reads the new head finds a block already holding one
// object. Tasks publish one block each while the test goroutine walks
// the chain, reading each block's count and slot 0 on its first visit.
// It waits for the chain, not for the publishers: joining them would
// order all their writes before its reads. So under -race a slot 0
// stored after the exchange is a reported race, whatever the timing.
func TestLimboBlockFilledBeforePublish(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	l := newLimbo(c)
	const tasks = 8
	objs := make([]gas.Addr, tasks)
	for i := range objs {
		objs[i] = c.Alloc(&payload{v: i})
	}
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l.publish(s.Ctx(0), objs[g])
		}(g)
	}
	seen := make(map[gas.Addr]bool, tasks)
	for deadline := time.Now().Add(time.Minute); len(seen) < tasks; {
		if time.Now().After(deadline) {
			t.Fatalf("the chain shows %d of %d published blocks", len(seen), tasks)
		}
		for blk := l.head.Read(); !blk.IsNil(); {
			b := l.blocks.MustLoad(c, blk)
			if !seen[blk] {
				if n, first := b.n.Load(), b.objs[0]; n != 1 || first.IsNil() {
					t.Fatalf("block %v published with count %d and slot 0 = %v", blk, n, first)
				}
				seen[blk] = true
			}
			blk = b.loadNext()
		}
	}
	wg.Wait()
}

// Two pushers that find the head block full at once both publish a
// block. The interleaving is forced: both fetch-and-adds land on the
// full block (its count runs to limboBlockSize+2), then both publish.
// The chain holds three blocks, the one that lost the head keeps its
// spare slots as slack, and Len, the walk and the pool see every object
// exactly once.
func TestLimboFullBlockRace(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	l := newLimbo(c)
	var pushed []gas.Addr
	push := func() gas.Addr {
		a := c.Alloc(&payload{v: len(pushed)})
		pushed = append(pushed, a)
		return a
	}
	for i := 0; i < limboBlockSize; i++ {
		l.Push(c, push())
	}
	full := l.blocks.MustLoad(c, l.head.Read())
	for range 2 {
		if i := full.n.Add(1) - 1; i < limboBlockSize {
			t.Fatalf("claimed slot %d of a full block", i)
		}
	}
	l.publish(c, push())
	l.publish(c, push())
	for i := 0; i < 3; i++ {
		l.Push(c, push()) // into the second pusher's block
	}
	if got := full.n.Load(); got != limboBlockSize+2 {
		t.Fatalf("full block's count = %d, want %d", got, limboBlockSize+2)
	}
	if blocks := chainBlocks(c, l.head.Read()); blocks != 3 {
		t.Fatalf("chain holds %d blocks, want 3", blocks)
	}
	if got := l.Len(c); got != len(pushed) {
		t.Fatalf("Len = %d, want %d", got, len(pushed))
	}
	seen := make(map[gas.Addr]int, len(pushed))
	l.Release(c, l.PopAll(), func(obj gas.Addr) { seen[obj]++ })
	if len(seen) != len(pushed) {
		t.Fatalf("visited %d distinct objects, want %d", len(seen), len(pushed))
	}
	for _, a := range pushed {
		if seen[a] != 1 {
			t.Fatalf("%v visited %d times", a, seen[a])
		}
	}
	if got := chainBlocks(c, l.pool.Read()); got != 3 {
		t.Fatalf("pool holds %d blocks after the release, want 3", got)
	}
}

// chainBlocks counts the blocks linked from top: a list's head or its
// pool's. Quiescent callers only.
func chainBlocks(c *pgas.Ctx, top gas.Addr) int {
	blocks := pgas.NewSlab[limboBlock](c.Sys())
	n := 0
	for blk := top; !blk.IsNil(); blk = blocks.MustLoad(c, blk).loadNext() {
		n++
	}
	return n
}

// limboState is everything a block list's lifecycle moves: each
// generation's length, the shared pool's length and the heap's books.
type limboState struct {
	lens         [numEpochs + 1]int
	pool         int
	live, allocs int64
}

// The complete state after every lifecycle step of a manager's
// generations (SNIPPETS §2): a push into a fresh list allocates a
// block, filling it allocates nothing, the overflow allocates the
// second, PopAll empties the list and Release fills the pool with the
// whole chain, and pushes to another generation reuse the pooled
// blocks until the pool runs dry.
func TestLimboBlockLifecycleState(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	gens := newGenerations(c)
	objs := make([]gas.Addr, 4*limboBlockSize)
	for i := range objs {
		objs[i] = c.Alloc(&payload{v: i})
	}
	base := s.HeapStats()
	next := 0
	push := func(e, n int) {
		for range n {
			gens[e].Push(c, objs[next])
			next++
		}
	}
	want := limboState{live: base.Live, allocs: base.Allocs}
	check := func(step string) {
		t.Helper()
		var got limboState
		for e := firstEpoch; e <= numEpochs; e++ {
			got.lens[e] = gens[e].Len(c)
		}
		got.pool = chainBlocks(c, gens[firstEpoch].pool.Read())
		h := s.HeapStats()
		got.live, got.allocs = h.Live, h.Allocs
		if got != want {
			t.Fatalf("after %s: state %+v, want %+v", step, got, want)
		}
	}
	check("construction")

	push(1, 1)
	want.lens[1], want.live, want.allocs = 1, want.live+1, want.allocs+1
	check("a push into a fresh list")

	push(1, limboBlockSize-1)
	want.lens[1] = limboBlockSize
	check("filling the block")

	push(1, 1)
	want.lens[1], want.live, want.allocs = limboBlockSize+1, want.live+1, want.allocs+1
	check("the overflow")

	push(2, 1)
	want.lens[2], want.live, want.allocs = 1, want.live+1, want.allocs+1
	check("a push into another generation")

	head := gens[1].PopAll()
	want.lens[1] = 0
	check("PopAll")

	visited := 0
	gens[1].Release(c, head, func(gas.Addr) { visited++ })
	if visited != limboBlockSize+1 {
		t.Fatalf("Release visited %d objects, want %d", visited, limboBlockSize+1)
	}
	want.pool = 2
	check("Release")

	push(3, 1)
	want.lens[3], want.pool = 1, 1
	check("a push reusing a pooled block")

	push(3, limboBlockSize)
	want.lens[3], want.pool = limboBlockSize+1, 0
	check("an overflow reusing the last pooled block")

	push(3, limboBlockSize)
	want.lens[3], want.live, want.allocs = 2*limboBlockSize+1, want.live+1, want.allocs+1
	check("an overflow past a dry pool")
}
