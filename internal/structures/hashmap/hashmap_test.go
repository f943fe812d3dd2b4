package hashmap

import (
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

func TestMapBasicOps(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[string](c, 16, em)
		tok := em.Register(c)
		if !m.Insert(c, tok, 1, "one") {
			t.Fatal("insert failed")
		}
		if m.Insert(c, tok, 1, "uno") {
			t.Fatal("duplicate insert succeeded")
		}
		if v, ok := m.Get(c, tok, 1); !ok || v != "one" {
			t.Fatalf("get = (%q,%v)", v, ok)
		}
		if m.Upsert(c, tok, 1, "uno") != true {
			t.Fatal("upsert did not replace")
		}
		if v, _ := m.Get(c, tok, 1); v != "uno" {
			t.Fatalf("get after upsert = %q", v)
		}
		if !m.Remove(c, tok, 1) || m.Remove(c, tok, 1) {
			t.Fatal("remove semantics")
		}
		if m.Contains(c, tok, 1) {
			t.Fatal("contains after remove")
		}
		tok.Unregister(c)
		em.Clear(c)
		m.Destroy(c) // empty and quiescent: releases the table replicas
	})
}

func TestMapBucketRounding(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		if got := New[int](c, 12, em).NumBuckets(); got != 16 {
			t.Fatalf("buckets = %d, want 16", got)
		}
		if got := New[int](c, 1, em).NumBuckets(); got != 1 {
			t.Fatalf("buckets = %d, want 1", got)
		}
	})
}

// A non-positive bucket count is a caller bug, not a request for a
// one-bucket map: New rejects it.
func TestMapRejectsNonPositiveBuckets(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		for _, n := range []int{0, -4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("New with %d buckets did not panic", n)
					}
				}()
				New[int](c, n, em)
			}()
		}
	})
}

// HomeOf is the routing map: it matches where bucket CASes actually
// land, and local-bucket lookups perform zero remote communication.
func TestMapHomeOfColocation(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[int](c, 64, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		for k := uint64(0); k < 128; k++ {
			m.Insert(c, tok, k, int(k))
		}
		// From each locale, Gets on keys it owns must not communicate.
		// Sequential (one locale at a time) so the counter windows are
		// exact.
		for l := 0; l < 4; l++ {
			lc := s.Ctx(l)
			ltok := em.Register(lc)
			before := s.Counters().Snapshot()
			hits := 0
			for k := uint64(0); k < 128; k++ {
				if m.HomeOf(k) != l {
					continue
				}
				if v, ok := m.Get(lc, ltok, k); !ok || v != int(k) {
					t.Errorf("local get %d = (%d,%v)", k, v, ok)
				}
				hits++
			}
			delta := s.Counters().Snapshot().Sub(before)
			ltok.Unregister(lc)
			if hits == 0 {
				t.Errorf("locale %d owns no keys", l)
			}
			if delta.Remote() != 0 {
				t.Errorf("locale %d local-bucket gets performed remote events: %v", l, delta)
			}
		}
	})
}

func TestMapManyKeys(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[uint64](c, 32, em)
		tok := em.Register(c)
		const n = 500
		for k := uint64(0); k < n; k++ {
			if !m.Insert(c, tok, k, k*k) {
				t.Fatalf("insert %d failed", k)
			}
		}
		if got := m.Len(c, tok); got != n {
			t.Fatalf("len = %d", got)
		}
		for k := uint64(0); k < n; k++ {
			if v, ok := m.Get(c, tok, k); !ok || v != k*k {
				t.Fatalf("get %d = (%d,%v)", k, v, ok)
			}
		}
	})
}

// Property: the map agrees with a Go map under random single-threaded
// op sequences.
func TestMapModelProperty(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	f := func(ops []uint32) bool {
		m := New[int](c, 8, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		model := map[uint64]int{}
		for i, op := range ops {
			k := uint64(op % 64)
			switch op % 4 {
			case 0:
				ins := m.Insert(c, tok, k, i)
				_, had := model[k]
				if ins == had {
					return false
				}
				if ins {
					model[k] = i
				}
			case 1:
				rep := m.Upsert(c, tok, k, i)
				_, had := model[k]
				if rep != had {
					return false
				}
				model[k] = i
			case 2:
				rem := m.Remove(c, tok, k)
				_, had := model[k]
				if rem != had {
					return false
				}
				delete(model, k)
			case 3:
				v, ok := m.Get(c, tok, k)
				mv, had := model[k]
				if ok != had || (ok && v != mv) {
					return false
				}
			}
		}
		return m.Len(c, tok) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMapConcurrentMixedWorkload(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	em := epoch.NewEpochManager(s.Ctx(0))
	m := New[int](s.Ctx(0), 64, em)
	const tasks = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 4)
			tok := em.Register(c)
			defer tok.Unregister(c)
			for i := 0; i < iters; i++ {
				k := c.RandUint64() % 128
				switch c.RandIntn(10) {
				case 0, 1, 2, 3: // 40% reads
					m.Get(c, tok, k)
				case 4, 5, 6: // 30% upserts
					m.Upsert(c, tok, k, i)
				case 7, 8: // 20% inserts
					m.Insert(c, tok, k, i)
				default: // 10% removes
					m.Remove(c, tok, k)
				}
				if i%64 == 0 {
					tok.TryReclaim(c)
				}
			}
		}(g)
	}
	wg.Wait()
	c := s.Ctx(0)
	// Every marker unlinked its node before returning: none lingers.
	if st := m.Stats(c); st.Unlinks != st.Removes {
		t.Fatalf("at quiescence unlinks=%d removes=%d, want equal", st.Unlinks, st.Removes)
	}
	em.Clear(c)
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d use-after-free loads in mixed workload", uaf)
	}
	// Internal consistency: every key Get reports present must be
	// enumerated by Len exactly once per bucket traversal.
	tok := em.Register(c)
	n := m.Len(c, tok)
	count := 0
	for k := uint64(0); k < 128; k++ {
		if m.Contains(c, tok, k) {
			count++
		}
	}
	if n != count {
		t.Fatalf("Len=%d but %d keys respond to Contains", n, count)
	}
}

func TestMapForEach(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[int](c, 8, em)
		tok := em.Register(c)
		for k := uint64(0); k < 30; k++ {
			m.Insert(c, tok, k, int(k)*3)
		}
		got := map[uint64]int{}
		m.forEach(c, tok, func(k uint64, v int) bool {
			got[k] = v
			return true
		})
		if len(got) != 30 {
			t.Fatalf("visited %d entries", len(got))
		}
		for k, v := range got {
			if v != int(k)*3 {
				t.Fatalf("entry %d = %d", k, v)
			}
		}
		// Early stop.
		n := 0
		m.forEach(c, tok, func(uint64, int) bool { n++; return n < 5 })
		if n != 5 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}

// Upsert visibility: once a key is inserted, concurrent readers must
// never observe it absent across any number of upserts (the new node
// is linked before the old is marked).
func TestMapUpsertAlwaysVisible(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	em := epoch.NewEpochManager(s.Ctx(0))
	m := New[int](s.Ctx(0), 4, em)
	boot := em.Register(s.Ctx(0))
	m.Insert(s.Ctx(0), boot, 7, 0)
	boot.Unregister(s.Ctx(0))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := s.Ctx(r % 2)
			tok := em.Register(c)
			defer tok.Unregister(c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := m.Get(c, tok, 7); !ok {
					t.Error("key vanished during upsert churn")
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.Ctx(0)
		tok := em.Register(c)
		defer tok.Unregister(c)
		for i := 1; i <= 400; i++ {
			m.Upsert(c, tok, 7, i)
			if i%64 == 0 {
				tok.TryReclaim(c)
			}
		}
		close(stop)
	}()
	wg.Wait()
	// All 400 superseded nodes are unlinked, though nothing but Gets of
	// the same key ever walked the bucket.
	if st := m.Stats(s.Ctx(0)); st.Removes != 400 || st.Unlinks != st.Removes {
		t.Fatalf("stats after 400 replacements = %+v, want 400 removes, each unlinked", st)
	}
	em.Clear(s.Ctx(0))
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d UAF loads", uaf)
	}
}

func TestMapBucketDistribution(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[int](c, 64, em)
		// HomeOf must cover all locales for a spread of keys.
		seen := map[int]bool{}
		for k := uint64(0); k < 256; k++ {
			l := m.HomeOf(k)
			if l < 0 || l >= 4 {
				t.Fatalf("bucket locale %d out of range", l)
			}
			seen[l] = true
		}
		if len(seen) != 4 {
			t.Fatalf("keys only touch locales %v", seen)
		}
	})
}
