package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func TestEpochCycle(t *testing.T) {
	// 1 → 2 → 3 → 4 → 1, and an advance to e reclaims e−3: the
	// generation that is none of e, e−1 and e−2.
	prev := func(e uint64) uint64 { return (e+numEpochs-2)%numEpochs + 1 }
	if nextEpoch(1) != 2 || nextEpoch(2) != 3 || nextEpoch(3) != 4 || nextEpoch(4) != 1 {
		t.Fatal("epoch cycle broken")
	}
	for e := uint64(firstEpoch); e <= numEpochs; e++ {
		if prev(nextEpoch(e)) != e {
			t.Fatalf("prev(next(%d)) = %d", e, prev(nextEpoch(e)))
		}
		if r := reclaimEpochOf(e); r != prev(prev(prev(e))) {
			t.Fatalf("reclaimEpochOf(%d) = %d, want e−3 = %d", e, r, prev(prev(prev(e))))
		}
	}
}

func TestRegisterPinUnpin(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		if tok.Pinned() {
			t.Fatal("fresh token pinned")
		}
		tok.Pin(c)
		if !tok.Pinned() || tok.Epoch() != firstEpoch {
			t.Fatalf("pinned epoch = %d", tok.Epoch())
		}
		// Re-pin is a no-op.
		tok.Pin(c)
		if tok.Epoch() != firstEpoch {
			t.Fatal("re-pin changed epoch")
		}
		tok.Unpin(c)
		if tok.Pinned() {
			t.Fatal("unpin did not clear")
		}
		tok.Unregister(c)
	})
}

func TestTokenRecycling(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		t1 := em.Register(c)
		t1.Unregister(c)
		t2 := em.Register(c)
		if t1 != t2 {
			t.Fatal("unregistered token not recycled")
		}
		if got := em.Stats(c).Tokens; got != 1 {
			t.Fatalf("minted %d tokens, want 1", got)
		}
		// Register while t2 still held mints a second token.
		t3 := em.Register(c)
		if t3 == t2 {
			t.Fatal("live token handed out twice")
		}
		if got := em.Stats(c).Tokens; got != 2 {
			t.Fatalf("minted %d tokens, want 2", got)
		}
	})
}

func TestTokenWrongLocalePanics(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		c.On(1, func(rc *pgas.Ctx) {
			defer func() {
				if recover() == nil {
					t.Error("pin from the wrong locale must panic")
				}
			}()
			tok.Pin(rc)
		})
	})
}

func TestDeferDeleteRequiresPin(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		obj := payloads.AllocOn(c, c.Here(), &payload{})
		defer func() {
			if recover() == nil {
				t.Fatal("DeferDelete while unpinned must panic")
			}
		}()
		tok.DeferDelete(c, obj)
	})
}

// The grace rule: an object deferred in epoch e is reclaimed at the
// third advance past e — the second past e+1, the newest epoch a reader
// that can hold it may be pinned in.
func TestTwoAdvanceReclamation(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)

		tok.Pin(c)
		obj := payloads.AllocOn(c, c.Here(), &payload{v: 1})
		tok.DeferDelete(c, obj)
		tok.Unpin(c)

		// Object deferred in epoch 1. The advances to 2 and 3 reclaim
		// generations 3 and 4 (empty): the object must still be live.
		for n := 1; n <= 2; n++ {
			em.TryReclaim(c)
			if _, ok := payloads.Load(c, obj); !ok {
				t.Fatalf("object reclaimed after %d advance(s)", n)
			}
		}
		// Third advance: new epoch 4 reclaims generation 1 → freed.
		em.TryReclaim(c)
		if _, ok := payloads.Load(c, obj); ok {
			t.Fatal("object still live after three advances")
		}
		if got := em.Stats(c).Reclaimed; got != 1 {
			t.Fatalf("reclaimed = %d", got)
		}
	})
}

// A token pinned in the previous epoch blocks advancement entirely.
func TestPinnedTokenBlocksAdvance(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		var blocker *Token
		c.On(1, func(rc *pgas.Ctx) {
			blocker = em.Register(rc)
			blocker.Pin(rc) // pinned in epoch 1 on locale 1
		})

		// First advance succeeds: blocker is in the current epoch.
		em.TryReclaim(c)
		if got := em.readGlobal(c); got != 2 {
			t.Fatalf("epoch = %d, want 2", got)
		}
		// Now blocker (still in epoch 1) must block 2 → 3.
		em.TryReclaim(c)
		if got := em.readGlobal(c); got != 2 {
			t.Fatalf("advance proceeded past a pinned token: epoch = %d", got)
		}
		if em.Stats(c).AdvanceFail == 0 {
			t.Fatal("blocked advance not recorded")
		}
		// Unpin: advancement resumes.
		c.On(1, func(rc *pgas.Ctx) { blocker.Unpin(rc) })
		em.TryReclaim(c)
		if got := em.readGlobal(c); got != 3 {
			t.Fatalf("epoch = %d after unblock, want 3", got)
		}
	})
}

// A blocked advance yields the processor once, so a straggler that the
// scheduler descheduled mid-op while pinned can finish and unpin before
// the next election. On one processor, task A pins in epoch 1 and
// yields, standing in for a preemption; task B then elects three times
// and never yields of its own accord. The first election advances to 2,
// the second finds A's pin and yields to A, which unpins, so the third
// advances to 3. Without the yield A never runs between the elections
// and the stats read one advance and two failures.
func TestBlockedAdvanceYieldsToStraggler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestSystem(t, 2, comm.BackendNone)
	c0, c1 := s.Ctx(0), s.Ctx(1)
	em := NewEpochManager(c0)
	var electing atomic.Bool
	pinned, done := make(chan struct{}), make(chan struct{})
	go func() { // task A, on locale 1
		tok := em.Pin(c1)
		close(pinned)
		for !electing.Load() {
			runtime.Gosched() // descheduled mid-op, still pinned
		}
		tok.Unpin(c1)
		tok.Unregister(c1)
		close(done)
	}()
	<-pinned
	electing.Store(true)
	for range 3 {
		em.TryReclaim(c0) // task B, on locale 0
	}
	<-done
	if got, want := em.Stats(c0), (Stats{Advances: 2, AdvanceFail: 1, Tokens: 1}); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	checkState(t, c0, em, "three elections", settled(2, 3))
}

// An unregistered-but-allocated token (epoch 0) never blocks.
func TestUnregisteredTokenDoesNotBlock(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		tok.Pin(c)
		tok.Unpin(c)
		tok.Unregister(c)
		for i := 0; i < 5; i++ {
			em.TryReclaim(c)
		}
		if got := em.readGlobal(c); got != nextEpoch(nextEpoch(nextEpoch(nextEpoch(nextEpoch(1))))) {
			t.Fatalf("epoch = %d", got)
		}
	})
}

// Scatter lists: remote objects are freed on their owner with bulk
// transfers, not per-object RPCs.
func TestScatterListBulkFree(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		tok.Pin(c)
		const perLocale = 50
		var objs []gas.Addr
		for l := 0; l < 4; l++ {
			for i := 0; i < perLocale; i++ {
				objs = append(objs, payloads.AllocOn(c, l, &payload{v: i}))
			}
		}
		for _, o := range objs {
			tok.DeferDelete(c, o)
		}
		tok.Unpin(c)

		before := s.Counters().Snapshot()
		em.TryReclaim(c)
		em.TryReclaim(c)
		em.TryReclaim(c)
		d := s.Counters().Snapshot().Sub(before)

		for _, o := range objs {
			if _, ok := payloads.Load(c, o); ok {
				t.Fatalf("object %v survived reclamation", o)
			}
		}
		// All 200 objects were deferred on locale 0; three destinations
		// are remote → exactly 3 bulk transfers, zero per-object RPCs
		// attributable to frees (allocation RPCs happened before).
		if d.BulkXfers != 3 {
			t.Fatalf("reclamation used %d bulk transfers, want 3 (%v)", d.BulkXfers, d)
		}
		if got := em.Stats(c).Reclaimed; got != 4*perLocale {
			t.Fatalf("reclaimed = %d, want %d", got, 4*perLocale)
		}
	})
}

// Election: while one task holds the reclamation flags, others return
// immediately (non-blocking) and record backoffs.
func TestElectionBackoff(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		// Simulate a task on locale 1 holding the global flag.
		em.global.isSettingEpoch.TestAndSet(c)
		em.TryReclaim(c) // local election won, global lost
		st := em.Stats(c)
		if st.GlobalBackoff != 1 {
			t.Fatalf("global backoff = %d", st.GlobalBackoff)
		}
		if got := em.readGlobal(c); got != 1 {
			t.Fatalf("epoch advanced to %d during a held election", got)
		}
		em.global.isSettingEpoch.Clear(c)

		// Local flag held on this locale: immediate return.
		inst := em.priv.Get(c)
		inst.isSettingEpoch.Store(1)
		em.TryReclaim(c)
		if st := em.Stats(c); st.LocalBackoff != 1 {
			t.Fatalf("local backoff = %d", st.LocalBackoff)
		}
		inst.isSettingEpoch.Store(0)

		// With both free, reclamation works again.
		em.TryReclaim(c)
		if got := em.readGlobal(c); got != 2 {
			t.Fatalf("epoch = %d", got)
		}
	})
}

func TestClearReclaimsEverything(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		var objs []gas.Addr
		var mu sync.Mutex
		// Defer objects from several locales into several epochs.
		c.CoforallLocales(func(lc *pgas.Ctx) {
			tok := em.Register(lc)
			tok.Pin(lc)
			for i := 0; i < 20; i++ {
				o := payloads.AllocOn(lc, lc.RandIntn(3), &payload{v: i})
				tok.DeferDelete(lc, o)
				mu.Lock()
				objs = append(objs, o)
				mu.Unlock()
			}
			tok.Unpin(lc)
			tok.Unregister(lc)
		})
		em.TryReclaim(c) // moves epoch so lists spread across generations
		c.CoforallLocales(func(lc *pgas.Ctx) {
			tok := em.Register(lc)
			tok.Pin(lc)
			for i := 0; i < 20; i++ {
				o := payloads.AllocOn(lc, lc.Here(), &payload{v: i})
				tok.DeferDelete(lc, o)
				mu.Lock()
				objs = append(objs, o)
				mu.Unlock()
			}
			tok.Unpin(lc)
			tok.Unregister(lc)
		})

		em.Clear(c)
		for _, o := range objs {
			if _, ok := payloads.Load(c, o); ok {
				t.Fatalf("object %v survived Clear", o)
			}
		}
		st := em.Stats(c)
		if st.Reclaimed != st.Deferred {
			t.Fatalf("reclaimed %d of %d deferred", st.Reclaimed, st.Deferred)
		}
	})
}

func TestLocaleEpochCacheTracksGlobal(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		em.TryReclaim(c)
		c.CoforallLocales(func(lc *pgas.Ctx) {
			if got := em.currentEpoch(lc); got != 2 {
				t.Errorf("locale %d cache = %d, want 2", lc.Here(), got)
			}
		})
	})
}

// Pin/unpin performs zero communication — the privatization payoff
// that makes Figure 7 flat.
func TestPinUnpinZeroCommunication(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		c.CoforallLocales(func(lc *pgas.Ctx) {
			tok := em.Register(lc)
			before := s.Counters().Snapshot()
			for i := 0; i < 100; i++ {
				tok.Pin(lc)
				tok.Unpin(lc)
			}
			if d := s.Counters().Snapshot().Sub(before); d.Remote() != 0 {
				t.Errorf("locale %d pin/unpin cost communication: %v", lc.Here(), d)
			}
			tok.Unregister(lc)
		})
	})
}

// Integration: concurrent readers and deleters over a shared slot,
// protected by the manager — no use-after-free may ever be detected.
func TestNoUseAfterFreeUnderEBR(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	em := NewEpochManager(s.Ctx(0))

	// A shared cell holding the current object; writers swap in new
	// objects and defer-delete the old; readers deref what they see.
	type cell struct{ cur gas.Addr }
	c0 := s.Ctx(0)
	shared := &cell{cur: payloads.AllocOn(c0, c0.Here(), &payload{v: 0})}
	var mu sync.Mutex // guards shared.cur pointer swap only

	const readers = 4
	const writers = 2
	const iters = 300
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := s.Ctx(r % 2)
			tok := em.Register(c)
			for i := 0; i < iters; i++ {
				tok.Pin(c)
				mu.Lock()
				a := shared.cur
				mu.Unlock()
				// Under the pin, the object must be dereferenceable.
				p := payloads.MustLoad(c, a)
				_ = p.v
				tok.Unpin(c)
			}
			tok.Unregister(c)
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.Ctx(w % 2)
			tok := em.Register(c)
			for i := 0; i < iters; i++ {
				tok.Pin(c)
				fresh := payloads.AllocOn(c, c.Here(), &payload{v: i})
				mu.Lock()
				old := shared.cur
				shared.cur = fresh
				mu.Unlock()
				tok.DeferDelete(c, old) // logical removal
				tok.Unpin(c)
				if i%16 == 0 {
					tok.TryReclaim(c)
				}
			}
			tok.Unregister(c)
		}(w)
	}
	wg.Wait()

	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("detected %d use-after-free loads under EBR protection", uaf)
	}
	em.Clear(s.Ctx(0))
	st := em.Stats(s.Ctx(0))
	if st.Reclaimed != st.Deferred {
		t.Fatalf("reclaimed %d of %d", st.Reclaimed, st.Deferred)
	}
	s.Shutdown()
}

// Control experiment: the same workload with eager frees instead of
// DeferDelete does produce detectable use-after-free — demonstrating
// the hazard the manager exists to prevent.
func TestUseAfterFreeWithoutEBR(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	c0 := s.Ctx(0)
	type cell struct{ cur gas.Addr }
	shared := &cell{cur: payloads.AllocOn(c0, c0.Here(), &payload{v: 0})}
	var mu sync.Mutex

	const iters = 2000
	var wg sync.WaitGroup
	// One interleaving is forced rather than left to the scheduler: a
	// reader snapshots the address, the writer swaps and frees it, and
	// only then does the reader dereference its stale snapshot.
	snapped, freed := make(chan struct{}), make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := s.Ctx(0)
		mu.Lock()
		a := shared.cur
		mu.Unlock()
		close(snapped)
		<-freed
		payloads.Load(c, a) // reads a freed slot
	}()
	go func() {
		defer wg.Done()
		c := s.Ctx(0)
		<-snapped
		fresh := payloads.AllocOn(c, c.Here(), &payload{v: -1})
		mu.Lock()
		old := shared.cur
		shared.cur = fresh
		mu.Unlock()
		c.Free(old) // eager free: unsafe
		close(freed)
	}()
	wg.Wait()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Ctx(0)
			for i := 0; i < iters; i++ {
				mu.Lock()
				a := shared.cur
				mu.Unlock()
				payloads.Load(c, a) // may hit a freed slot
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.Ctx(0)
		for i := 0; i < iters; i++ {
			fresh := payloads.AllocOn(c, c.Here(), &payload{v: i})
			mu.Lock()
			old := shared.cur
			shared.cur = fresh
			mu.Unlock()
			c.Free(old) // eager free: unsafe
		}
	}()
	wg.Wait()
	if uaf := s.HeapStats().UAFLoads; uaf == 0 {
		t.Fatal("eager frees produced no detected use-after-free load")
	}
}

// Concurrent tryReclaim from every locale: exactly one advance per
// "round" can win, nothing corrupts, and all deferred objects are
// eventually reclaimed.
func TestConcurrentTryReclaim(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	em := NewEpochManager(s.Ctx(0))
	const tasks = 8
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 4)
			tok := em.Register(c)
			for i := 0; i < iters; i++ {
				tok.Pin(c)
				obj := payloads.AllocOn(c, c.RandIntn(4), &payload{v: i})
				tok.DeferDelete(c, obj)
				tok.Unpin(c)
				tok.TryReclaim(c)
			}
			tok.Unregister(c)
		}(g)
	}
	wg.Wait()
	c := s.Ctx(0)
	em.Clear(c)
	st := em.Stats(c)
	if st.Deferred != tasks*iters {
		t.Fatalf("deferred = %d", st.Deferred)
	}
	if st.Reclaimed != st.Deferred {
		t.Fatalf("reclaimed %d of %d", st.Reclaimed, st.Deferred)
	}
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d UAFs under concurrent reclamation", uaf)
	}
	if uaf := s.HeapStats().UAFFrees; uaf != 0 {
		t.Fatalf("%d double frees under concurrent reclamation", uaf)
	}
}

// Tokens registered inside a distributed forall via task intents, the
// paper's Listing 3 usage pattern.
func TestForallTaskIntentUsage(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		const n = 300
		objs := make([]gas.Addr, n)
		for i := range objs {
			objs[i] = payloads.AllocOn(c, i%3, &payload{v: i})
		}
		pgas.ForallCyclic(c, n, 2,
			func(tc *pgas.Ctx) *Token { return em.Register(tc) },
			func(tc *pgas.Ctx, tok *Token, i int) {
				tok.Pin(tc)
				tok.DeferDelete(tc, objs[i])
				tok.Unpin(tc)
			},
			func(tc *pgas.Ctx, tok *Token) { tok.Unregister(tc) }, // automatic unregister
		)
		em.Clear(c)
		st := em.Stats(c)
		if st.Reclaimed != n {
			t.Fatalf("reclaimed %d of %d", st.Reclaimed, n)
		}
	})
}
