package hashmap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// Repeat gets of a hot key through a CachedView are locale-private:
// after one warming read per locale, a get storm performs zero remote
// events anywhere — the hotspot the owner-computed design funnels onto
// the bucket owner simply disappears.
func TestCachedViewHotGetsAreZeroComm(t *testing.T) {
	sys := pgas.NewSystem(pgas.Config{Locales: 4, Backend: comm.BackendNone})
	defer sys.Shutdown()
	sys.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[int64](c, 16, em)
		cv := m.Cached(c, 64)
		em.Protect(c, func(tok *epoch.Token) {
			m.Insert(c, tok, 99, 4242)
		})
		// Warm every replica.
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				if v, ok := cv.Get(lc, tok, 99); !ok || v != 4242 {
					t.Errorf("locale %d warming get = (%d, %v)", lc.Here(), v, ok)
				}
			})
		})
		before := sys.Counters().Snapshot()
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				for i := 0; i < 100; i++ {
					if v, ok := cv.Get(lc, tok, 99); !ok || v != 4242 {
						t.Errorf("locale %d hot get = (%d, %v)", lc.Here(), v, ok)
					}
				}
			})
		})
		delta := sys.Counters().Snapshot().Sub(before)
		if got := delta.Remote() - delta.OnStmts; got != 0 {
			t.Fatalf("hot gets performed %d non-launch remote events: %v", got, delta)
		}
		if delta.CacheHits != 400 || delta.CacheMiss != 0 {
			t.Fatalf("cache counters = %d hits / %d misses, want 400/0", delta.CacheHits, delta.CacheMiss)
		}
	})
}

// Mutations write through: after the writer's buffers flush, every
// replica re-fetches and observes the new value (or the removal).
func TestCachedViewWriteThrough(t *testing.T) {
	sys := pgas.NewSystem(pgas.Config{Locales: 4, Backend: comm.BackendNone})
	defer sys.Shutdown()
	sys.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		cv := New[string](c, 16, em).Cached(c, 32)
		em.Protect(c, func(tok *epoch.Token) {
			cv.Insert(c, tok, 5, "v1")
		})
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				if v, ok := cv.Get(lc, tok, 5); !ok || v != "v1" {
					t.Errorf("locale %d initial get = (%q, %v)", lc.Here(), v, ok)
				}
			})
		})

		em.Protect(c, func(tok *epoch.Token) {
			if !cv.Upsert(c, tok, 5, "v2") {
				t.Error("upsert of a present key did not replace")
			}
		})
		c.Flush() // ship the buffered invalidations
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				if v, ok := cv.Get(lc, tok, 5); !ok || v != "v2" {
					t.Errorf("locale %d post-upsert get = (%q, %v), want v2", lc.Here(), v, ok)
				}
			})
		})

		em.Protect(c, func(tok *epoch.Token) {
			if !cv.Remove(c, tok, 5) {
				t.Error("remove of a present key failed")
			}
		})
		c.Flush()
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				if _, ok := cv.Get(lc, tok, 5); ok {
					t.Errorf("locale %d still reads a removed key", lc.Here())
				}
			})
		})
		if sys.Counters().Snapshot().CacheInval == 0 {
			t.Fatal("write-through produced no invalidations")
		}
	})
}

// InsertBulk writes through and is coherent on return: replicas warmed
// with pre-bulk values re-fetch the bulk's values without an explicit
// caller flush.
func TestCachedViewInsertBulkInvalidates(t *testing.T) {
	sys := pgas.NewSystem(pgas.Config{Locales: 4, Backend: comm.BackendNone})
	defer sys.Shutdown()
	sys.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		cv := New[int64](c, 16, em).Cached(c, 64)
		// Warm replicas with "absent" fetch attempts plus one present key.
		em.Protect(c, func(tok *epoch.Token) {
			cv.Insert(c, tok, 1, 10)
		})
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				cv.Get(lc, tok, 1)
			})
		})
		pairs := []KV[int64]{{K: 2, V: 20}, {K: 3, V: 30}}
		if n := cv.InsertBulk(c, pairs); n != 2 {
			t.Fatalf("InsertBulk inserted %d, want 2", n)
		}
		c.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				for _, kv := range pairs {
					if v, ok := cv.Get(lc, tok, kv.K); !ok || v != kv.V {
						t.Errorf("locale %d bulk key %d = (%d, %v)", lc.Here(), kv.K, v, ok)
					}
				}
			})
		})
	})
}

// A cached view tears down cleanly: destroy, recreate, reuse — the
// churn pattern the workload engine drives.
func TestCachedViewChurn(t *testing.T) {
	sys := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer sys.Shutdown()
	sys.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		for round := 0; round < 3; round++ {
			cv := New[int64](c, 8, em).Cached(c, 16)
			em.Protect(c, func(tok *epoch.Token) {
				cv.Insert(c, tok, 7, int64(round))
				if v, ok := cv.Get(c, tok, 7); !ok || v != int64(round) {
					t.Fatalf("round %d read back (%d, %v)", round, v, ok)
				}
			})
			c.Flush()
			em.Clear(c)
			cv.Destroy(c)
		}
		if h := sys.HeapStats(); h.UAFLoads != 0 || h.UAFFrees != 0 {
			t.Fatalf("heap verdict after churn: %+v", h)
		}
	})
}

// The cache stays coherent when the writes it must observe never touch
// the writer's own context: every locale reads a shared hot-key set
// through the cached handle while every locale also fires
// UpsertAgg/RemoveAgg at it with in-flight combining on, and a driver
// task migrates the keys' buckets round-robin the whole time — so
// writes are absorbed, applied under a remote owner's combiner,
// re-routed past a republish, and each one invalidates the replicas
// from whichever locale finally applied it. Once the writers have
// flushed and the re-route chains have quiesced, every key read through
// the cache on every locale must equal what the owner's list holds.
// Under -race this storms the owner-side invalidation and the runtime's
// context drain against fills, migrations and epoch reclamation.
//
// Both vacuity guards hold by construction. Removes draw only from the
// upper half of the hot keys, so a lower-half key, which some task
// upserts, ends absent only if a write was lost, whatever order a
// migration's re-routed writes apply in. And after its flush each
// writer keeps issuing ops until it has seen the migrator's first
// migration land, ending on a write issued after it, so no storm ends
// before a migration.
func TestMapCacheCoherentUnderRoutedWrites(t *testing.T) {
	const locales, tasks, hotKeys, ops, maxMigrations = 4, 2, 12, 600, 1024
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		Seed:    11,
		Agg:     comm.AggConfig{Combine: true},
	})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	base := New[int64](c0, 8, em)
	m := base.Cached(c0, 16)

	stop := make(chan struct{})
	var migWG sync.WaitGroup
	var migrations int64
	var landed atomic.Bool // set at the first migration, or when the migrator gives up
	migWG.Add(1)
	go func() {
		defer migWG.Done()
		defer landed.Store(true)
		mc := s.Ctx(0)
		for r := 0; r < maxMigrations; r++ {
			select {
			case <-stop:
				return
			default:
			}
			e := m.BucketOf(uint64(r % hotKeys))
			dst := (m.EntryOwner(e) + 1 + r%(locales-1)) % locales
			if _, ok := m.Migrate(mc, e, dst); ok {
				migrations++
				landed.Store(true)
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for loc := 0; loc < locales; loc++ {
		for task := 0; task < tasks; task++ {
			wg.Add(1)
			go func(loc, task int) {
				defer wg.Done()
				c := s.Ctx(loc)
				id := int64(loc*tasks + task)
				tok := em.Register(c)
				op := func(i int) {
					k := uint64(i+loc+task) % hotKeys
					switch {
					case i%41 == 17:
						m.RemoveAgg(c, hotKeys/2+k%(hotKeys/2))
					case i%3 == 0:
						m.UpsertAgg(c, k, id<<32|int64(i))
					default:
						m.Get(c, tok, k) // fills race the invalidations
					}
					if i%128 == 127 {
						tok.TryReclaim(c)
					}
				}
				for i := 0; i < ops; i++ {
					op(i)
				}
				c.Flush()
				for i := ops; ; i++ { // every i%3 == 0 op is a write
					after := landed.Load()
					op(i)
					if after && i%3 == 0 {
						break
					}
					runtime.Gosched()
				}
				c.Flush()
				tok.Unregister(c)
			}(loc, task)
		}
	}
	wg.Wait()
	close(stop)
	migWG.Wait()
	c0.Flush() // drain any still-pending async re-route chains

	if migrations == 0 {
		t.Fatal("driver performed no migrations; the storm is vacuous")
	}
	present := 0
	c0.CoforallLocales(func(lc *pgas.Ctx) {
		em.Protect(lc, func(tok *epoch.Token) {
			for k := uint64(0); k < hotKeys; k++ {
				want, wantOK := base.Get(lc, tok, k)
				got, ok := m.Get(lc, tok, k)
				if ok != wantOK || got != want {
					t.Errorf("locale %d key %d: cache reads (%d,%v), owner's list holds (%d,%v)",
						lc.Here(), k, got, ok, want, wantOK)
				}
				if lc.Here() == 0 && wantOK {
					present++
				}
			}
		})
	})
	if present == 0 {
		t.Fatal("storm left every key absent; the comparison is vacuous")
	}

	snap := s.Counters().Snapshot()
	if snap.CacheHits == 0 || snap.CacheInval == 0 {
		t.Fatalf("cache never engaged: %+v", snap)
	}
	if snap.MigAdopted != snap.MigRetired {
		t.Fatalf("books unbalanced: adopted %d retired %d", snap.MigAdopted, snap.MigRetired)
	}
	if snap.AggOps+snap.AggCombined != snap.AggOpsEnq {
		t.Fatalf("shipped+combined != enqueued: %+v", snap)
	}
	heap := s.HeapStats()
	if heap.UAFLoads != 0 || heap.UAFStores != 0 || heap.UAFFrees != 0 {
		t.Fatalf("use-after-free under the coherence storm: %+v", heap)
	}
	em.Clear(c0)
	if st := em.Stats(c0); st.Deferred != st.Reclaimed {
		t.Fatalf("epoch books after storm: deferred %d reclaimed %d", st.Deferred, st.Reclaimed)
	}
	m.Destroy(c0)
}

// Ctx.Flush leaves nothing pending when an own-locale delivery enqueues
// on the flushing task's own buffers. Through a cached handle, a
// combined write of a key the writer's locale owns applies at the flush,
// on the writer's Ctx, and its invalidations land in that same task's
// buffers toward every other locale — behind the flush's cursor for the
// lower-numbered ones unless the own-locale buffer goes first. One Flush
// must ship them too: every replica then re-fetches the new value.
func TestCachedOwnLocaleAggWriteFlushesItsInvalidations(t *testing.T) {
	const locales = 4
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Agg: comm.AggConfig{Combine: true}})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 16, em).Cached(c0, 16)
	c := s.Ctx(locales - 2) // has both lower- and higher-numbered neighbours
	own := keyHomedOn(m, c.Here())
	em.Protect(c, func(tok *epoch.Token) { m.Upsert(c, tok, own, 1) })
	c.Flush()
	readAll := func(want int64) {
		t.Helper()
		c0.CoforallLocales(func(lc *pgas.Ctx) {
			em.Protect(lc, func(tok *epoch.Token) {
				if v, ok := m.Get(lc, tok, own); !ok || v != want {
					t.Errorf("locale %d reads (%d, %v) through its cache, want (%d, true)", lc.Here(), v, ok, want)
				}
			})
		})
	}
	readAll(1) // every replica now holds the old value

	before := s.Counters().Snapshot()
	m.UpsertAgg(c, own, 2)
	if c.PendingOps() != 1 {
		t.Fatalf("%d ops pending after one own-locale UpsertAgg, want 1", c.PendingOps())
	}
	c.Flush()
	if c.PendingOps() != 0 {
		t.Fatalf("Flush left %d ops pending", c.PendingOps())
	}
	// One flush of the write, then one per other locale carrying its
	// invalidation — in the same pass, so exactly locales-1 transfers.
	d := s.Counters().Snapshot().Sub(before)
	if d.AggFlushes != locales || d.BulkXfers != locales-1 || d.AggOps != locales || d.AggOps+d.AggCombined != d.AggOpsEnq {
		t.Fatalf("counters %+v, want %d flushes of one op each, %d of them transfers", d, locales, locales-1)
	}
	readAll(2)
}
