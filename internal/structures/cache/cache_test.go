package cache

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone})
	t.Cleanup(s.Shutdown)
	return s
}

func TestNewValidates(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Run(func(c *pgas.Ctx) {
		defer func() {
			if recover() == nil {
				t.Fatal("New accepted a non-positive slot count")
			}
		}()
		New[int](c, 0, epoch.NewEpochManager(c))
	})
}

// A miss fetches through and publishes; the repeat read is a hit
// served with zero communication, on every locale.
func TestGetThroughMemoizesLocally(t *testing.T) {
	s := newTestSystem(t, 4)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		ca := New[int](c, 64, em)
		if !ca.Valid() || ca.numSets()*Ways != 64 {
			t.Fatalf("handle: valid=%v slots=%d", ca.Valid(), ca.numSets()*Ways)
		}
		var fetches [4]int
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				fetch := func() (int, bool) { fetches[lc.Here()]++; return 42, true }
				if v, ok := ca.GetThrough(lc, tok, 7, fetch); !ok || v != 42 {
					t.Errorf("locale %d first read = (%d, %v)", lc.Here(), v, ok)
				}
				before := s.Counters().Snapshot()
				for i := 0; i < 50; i++ {
					if v, ok := ca.GetThrough(lc, tok, 7, fetch); !ok || v != 42 {
						t.Errorf("locale %d cached read = (%d, %v)", lc.Here(), v, ok)
					}
				}
				delta := s.Counters().Snapshot().Sub(before)
				if delta.Remote() != 0 {
					t.Errorf("locale %d hits performed remote events: %v", lc.Here(), delta)
				}
			})
		})
		for l, n := range fetches {
			if n != 1 {
				t.Errorf("locale %d fetched %d times, want 1 (memoized)", l, n)
			}
		}
		st := ca.Stats(c)
		if st.Entries != 4 {
			t.Fatalf("stats = %+v, want 4 entries", st)
		}
		snap := s.Counters().Snapshot()
		if snap.CacheHits != 200 || snap.CacheMiss != 4 {
			t.Fatalf("comm cache counters = %d/%d, want 200/4", snap.CacheHits, snap.CacheMiss)
		}
	})
}

// Negative fetch results are not cached: every read re-fetches.
func TestNegativeResultsNotCached(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		ca := New[int](c, 16, em)
		em.Protect(c, func(tok *epoch.Token) {
			fetches := 0
			fetch := func() (int, bool) { fetches++; return 0, false }
			for i := 0; i < 3; i++ {
				if _, ok := ca.GetThrough(c, tok, 9, fetch); ok {
					t.Fatal("absent key reported present")
				}
			}
			if fetches != 3 {
				t.Fatalf("absent key fetched %d times, want 3 (no negative caching)", fetches)
			}
		})
	})
}

// Invalidation unpublishes every replica once the writer's buffers
// flush, and the retired entries reclaim cleanly through the epoch
// manager — deferred == reclaimed, zero UAF.
func TestInvalidateUnpublishesAllReplicas(t *testing.T) {
	s := newTestSystem(t, 4)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		ca := New[string](c, 32, em)
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				ca.GetThrough(lc, tok, 3, func() (string, bool) { return "old", true })
			})
		})
		if st := ca.Stats(c); st.Entries != 4 {
			t.Fatalf("entries before invalidation = %d, want 4", st.Entries)
		}

		ca.Invalidate(c, 3)
		c.Flush() // ship the buffered remote invalidations

		if st, inv := ca.Stats(c), s.Counters().Snapshot().CacheInval; st.Entries != 0 || inv != 4 {
			t.Fatalf("after invalidation: %+v and %d invalidation ops, want 0 entries / 4 ops", st, inv)
		}
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				if _, ok := ca.peek(lc, tok, 3); ok {
					t.Errorf("locale %d still serves the invalidated key", lc.Here())
				}
			})
		})

		em.Clear(c)
		est := em.Stats(c)
		if est.Deferred != 4 || est.Reclaimed != est.Deferred {
			t.Fatalf("epoch verdict: %+v, want 4 deferred == reclaimed", est)
		}
		if h := s.HeapStats(); h.UAFLoads != 0 || h.UAFFrees != 0 {
			t.Fatalf("heap verdict: %+v", h)
		}
	})
}

// The generation tag kills a fill that races an invalidation: an entry
// fetched before the bump is published dead and never served.
func TestRacingFillIsDeadOnArrival(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		ca := New[int](c, 16, em)
		em.Protect(c, func(tok *epoch.Token) {
			// The fetch itself invalidates the key — the single-locale
			// deterministic stand-in for "a write-through invalidation
			// lands while the value is in flight from the owner".
			v, ok := ca.GetThrough(c, tok, 5, func() (int, bool) {
				ca.Invalidate(c, 5)
				return 1, true
			})
			if !ok || v != 1 {
				t.Fatalf("fetched read = (%d, %v)", v, ok)
			}
			// The published entry carries the pre-bump generation, so it
			// must not be served.
			if _, ok := ca.peek(c, tok, 5); ok {
				t.Fatal("stale entry served after a racing invalidation")
			}
			// The next miss refills under the current generation.
			if v, ok := ca.GetThrough(c, tok, 5, func() (int, bool) { return 2, true }); !ok || v != 2 {
				t.Fatalf("refill read = (%d, %v)", v, ok)
			}
			if v, ok := ca.peek(c, tok, 5); !ok || v != 2 {
				t.Fatalf("refilled entry not served: (%d, %v)", v, ok)
			}
		})
	})
}

// Two keys colliding in one set coexist (the second way absorbs the
// collision — the hot-pair case); a third key evicts one resident, and
// the displaced entry is retired through the epoch manager rather than
// freed in place (a pinned reader may still hold it).
func TestSetCollisionsAbsorbedThenEvict(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		ca := New[int](c, 16, em)
		// Three keys in one set: k1 and k2 fill both ways, k3 evicts.
		k1 := uint64(1)
		var k2, k3 uint64
		for k2 = k1 + 1; ca.SetOf(k2) != ca.SetOf(k1); k2++ {
		}
		for k3 = k2 + 1; ca.SetOf(k3) != ca.SetOf(k1); k3++ {
		}
		em.Protect(c, func(tok *epoch.Token) {
			ca.GetThrough(c, tok, k1, func() (int, bool) { return 11, true })
			ca.GetThrough(c, tok, k2, func() (int, bool) { return 22, true })
			// Associativity: the colliding pair is served side by side.
			if v, ok := ca.peek(c, tok, k1); !ok || v != 11 {
				t.Fatalf("k1 after pair fill = (%d, %v), want (11, true)", v, ok)
			}
			if v, ok := ca.peek(c, tok, k2); !ok || v != 22 {
				t.Fatalf("k2 after pair fill = (%d, %v), want (22, true)", v, ok)
			}
			// A third key forces a round-robin eviction of one resident.
			ca.GetThrough(c, tok, k3, func() (int, bool) { return 33, true })
			if v, ok := ca.peek(c, tok, k3); !ok || v != 33 {
				t.Fatalf("k3 after eviction fill = (%d, %v), want (33, true)", v, ok)
			}
			_, ok1 := ca.peek(c, tok, k1)
			_, ok2 := ca.peek(c, tok, k2)
			if ok1 == ok2 {
				t.Fatalf("exactly one of the pair must survive eviction: k1=%v k2=%v", ok1, ok2)
			}
		})
		em.Clear(c)
		est := em.Stats(c)
		if est.Deferred != 1 || est.Reclaimed != 1 {
			t.Fatalf("epoch verdict: %+v, want exactly the displaced entry deferred and reclaimed", est)
		}
	})
}

// Destroy frees every published entry: a fill-only cache (no
// invalidations, so no limbo-pool nodes, which are recycled rather
// than freed by design) tears down to exactly the baseline heap.
func TestDestroyLeavesNoResidue(t *testing.T) {
	s := newTestSystem(t, 4)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		base := s.HeapStats().Live
		ca := New[int](c, 32, em)
		// Collision-free keys (one per set): a displaced entry would be
		// retired through the epoch manager instead of freed by Destroy,
		// which is not the path under test here.
		var keys []uint64
		seen := map[int]bool{}
		for k := uint64(0); len(keys) < 8; k++ {
			if idx := ca.SetOf(k); !seen[idx] {
				seen[idx] = true
				keys = append(keys, k)
			}
		}
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				for _, k := range keys {
					ca.GetThrough(lc, tok, k, func() (int, bool) { return int(k), true })
				}
			})
		})
		ca.Destroy(c)
		h := s.HeapStats()
		if h.Live != base || h.UAFLoads != 0 || h.UAFFrees != 0 {
			t.Fatalf("heap after Destroy: %+v (baseline live %d)", h, base)
		}
	})
}

// Concurrent readers, writers and reclaimers under -race: hits keep
// serving while invalidations retire entries and epoch advances
// reclaim them. The poisoned heaps and deferred==reclaimed verdict
// prove no cached read ever observed reclaimed memory.
func TestConcurrentInvalidationStorm(t *testing.T) {
	const locales, keys, opsPerTask = 4, 8, 400
	s := newTestSystem(t, locales)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		ca := New[uint64](c, 32, em)
		var wg sync.WaitGroup
		for l := 0; l < locales; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				lc := s.Ctx(l)
				em.Protect(lc, func(tok *epoch.Token) {
					for i := 0; i < opsPerTask; i++ {
						k := uint64(i % keys)
						switch {
						case i%7 == 0:
							ca.Invalidate(lc, k)
						default:
							ca.GetThrough(lc, tok, k, func() (uint64, bool) { return k * 10, true })
						}
						if i%64 == 0 {
							tok.TryReclaim(lc)
						}
					}
				})
				lc.Flush()
			}(l)
		}
		wg.Wait()
		em.Clear(c)
		est := em.Stats(c)
		if est.Reclaimed != est.Deferred {
			t.Fatalf("epoch verdict: %+v, want deferred == reclaimed", est)
		}
		if h := s.HeapStats(); h.UAFLoads != 0 || h.UAFFrees != 0 {
			t.Fatalf("heap verdict: %+v", h)
		}
		snap := s.Counters().Snapshot()
		if snap.CacheInval == 0 || snap.CacheHits == 0 {
			t.Fatalf("storm exercised nothing: %v", snap)
		}
	})
}
