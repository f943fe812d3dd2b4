package hashmap

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/list"
)

// runCombineStorm drives a seeded aggregated write storm — every task
// hammering a small private hot-key set with UpsertAgg/RemoveAgg —
// and returns the final map contents plus the run's counter snapshot.
// Each task's keys are disjoint from every other task's, so the final
// value of each key is the task's last buffered write and the whole
// final state is deterministic regardless of scheduling; that is what
// lets the combining-on and combining-off runs be compared exactly.
func runCombineStorm(t *testing.T, combine bool) (map[uint64]int64, comm.Snapshot) {
	t.Helper()
	const locales, tasks, hotKeys, writes = 4, 2, 4, 512
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		Seed:    99,
		Agg:     comm.AggConfig{Combine: combine},
	})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 64, em)

	var wg sync.WaitGroup
	for loc := 0; loc < locales; loc++ {
		for task := 0; task < tasks; task++ {
			wg.Add(1)
			go func(loc, task int) {
				defer wg.Done()
				c := s.Ctx(loc)
				id := uint64(loc*tasks + task)
				for i := 0; i < writes; i++ {
					k := id*1000 + uint64(i)%hotKeys
					switch {
					case i%97 == 13:
						m.RemoveAgg(c, k)
					default:
						m.UpsertAgg(c, k, int64(id)<<32|int64(i))
					}
				}
				c.Flush()
			}(loc, task)
		}
	}
	wg.Wait()

	got := make(map[uint64]int64)
	tok := em.Register(c0)
	m.forEach(c0, tok, func(k uint64, v int64) bool {
		got[k] = v
		return true
	})
	tok.Unregister(c0)
	snap := s.Counters().Snapshot()
	em.Clear(c0)
	m.Destroy(c0)
	return got, snap
}

// Absorption must not change observable values: the same seeded write
// storm lands the map in the identical final state with combining on
// and off, while the counters prove the combined run shipped far
// fewer ops. Run under -race this also storms the owner-side flat
// combiner from 8 concurrent tasks.
func TestMapCombineEquivalence(t *testing.T) {
	on, onSnap := runCombineStorm(t, true)
	off, offSnap := runCombineStorm(t, false)
	if !reflect.DeepEqual(on, off) {
		t.Fatalf("combining changed final map state:\n on: %v\noff: %v", on, off)
	}
	if len(on) == 0 {
		t.Fatal("storm left the map empty; the equivalence is vacuous")
	}
	if onSnap.AggCombined == 0 {
		t.Fatalf("combined run absorbed nothing: %+v", onSnap)
	}
	if offSnap.AggCombined != 0 {
		t.Fatalf("uncombined run absorbed ops: %+v", offSnap)
	}
	if onSnap.AggOps+onSnap.AggCombined != onSnap.AggOpsEnq {
		t.Fatalf("shipped+combined != enqueued: %+v", onSnap)
	}
	// A hot-key storm at 4 keys per task absorbs the overwhelming
	// majority of writes: shipped ops must be at least 5x below
	// enqueued (the A9 acceptance bound, asserted here at unit level).
	if onSnap.AggOps*5 > onSnap.AggOpsEnq {
		t.Fatalf("absorption below 5x: shipped %d of %d enqueued", onSnap.AggOps, onSnap.AggOpsEnq)
	}
}

// keyHomedOn returns the smallest key whose bucket locale loc owns.
func keyHomedOn[V any](m Map[V], loc int) uint64 {
	k := uint64(0)
	for m.HomeOf(k) != loc {
		k++
	}
	return k
}

// An absorbed write costs the host nothing: with combining on, a
// fire-and-forget write toward a remote owner whose key is already in
// the task's buffer merges into the buffered op before anything is
// built, and the lookup's key boxes for free. The counters book the
// merge exactly as an absorbed Enqueue would be, and a write to a
// locally owned key lands at the same flush.
func TestAbsorbedAggWriteZeroAlloc(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Agg:     comm.AggConfig{Combine: true, Policy: comm.FlushManual},
	})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	m := New[int64](c, 16, em)
	remote, local := keyHomedOn(m, 1), keyHomedOn(m, 0)

	before := s.Counters().Snapshot()
	m.UpsertAgg(c, remote, 1) // the op every later write merges into
	const runs = 200
	if avg := testing.AllocsPerRun(runs, func() { m.UpsertAgg(c, remote, 2) }); avg != 0 {
		t.Errorf("absorbed UpsertAgg allocates %.2f/op", avg)
	}
	if avg := testing.AllocsPerRun(runs, func() { m.RemoveAgg(c, remote) }); avg != 0 {
		t.Errorf("absorbed RemoveAgg allocates %.2f/op", avg)
	}
	op := &writeOp[int64]{m: m, k: remote}
	if avg := testing.AllocsPerRun(runs, func() { op.CombineKey() }); avg != 0 {
		t.Errorf("writeOp.CombineKey allocates %.2f/op", avg)
	}
	d := s.Counters().Snapshot().Sub(before)
	// AllocsPerRun adds one warm-up call to each measured loop.
	if want := int64(2 * (runs + 1)); d.AggOpsEnq != want+1 || d.AggCombined != want {
		t.Errorf("booked enq=%d combined=%d, want %d enqueued and all but the first combined", d.AggOpsEnq, d.AggCombined, want+1)
	}
	if n := c.Aggregator(1).Pending(); n != 1 {
		t.Errorf("%d ops buffered toward the owner, want the 1 they merged into", n)
	}
	m.UpsertAgg(c, remote, 7) // last writer wins over the removes
	m.UpsertAgg(c, local, 9)  // local owner: buffered like the remote one
	c.Flush()
	tok := em.Register(c)
	if v, ok := m.Get(c, tok, remote); !ok || v != 7 {
		t.Errorf("merged write landed as (%d, %v), want (7, true)", v, ok)
	}
	if v, ok := m.Get(c, tok, local); !ok || v != 9 {
		t.Errorf("local write landed as (%d, %v), want (9, true)", v, ok)
	}
	tok.Unregister(c)
	d = s.Counters().Snapshot().Sub(before)
	if d.AggOps+d.AggCombined != d.AggOpsEnq {
		t.Errorf("shipped+combined != enqueued across the flush: %+v", d)
	}
}

// Delivering a run costs the host a fixed number of allocations, not a
// number per write: what a delivery allocates beyond the gas-heap
// objects the list links and retires (one each, counted on the heap's
// books) is the same for a run of 64 writes as for a run of 8.
func TestDeliveredRunAllocs(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Agg:     comm.AggConfig{Combine: true, Policy: comm.FlushManual},
	})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	m := New[int64](c, 16, em)
	keys := keysHomedOn(m, 1, 64)
	// beyond returns the host allocations per delivered run of n
	// buffered writes, less the gas-heap objects the run allocated.
	beyond := func(n int) float64 {
		const rounds = 50
		var extra int64
		for r := 0; r < rounds; r++ {
			for _, k := range keys[:n] {
				m.UpsertAgg(c, k, int64(r))
			}
			objs := s.HeapStats().Allocs
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Aggregator(1).Flush()
			runtime.ReadMemStats(&after)
			extra += int64(after.Mallocs-before.Mallocs) - (s.HeapStats().Allocs - objs)
		}
		return float64(extra) / rounds
	}
	beyond(64) // warm the context pool and the limbo lists
	short, long := beyond(8), beyond(64)
	if long > short+1 {
		t.Fatalf("a delivered run allocates %.2f beyond its list's objects at 64 writes, %.2f at 8: it grows with the run", long, short)
	}
	em.Clear(c)
	m.Destroy(c)
}

// Absorption depends on the key, not on where the key lives: with
// combining on, N fire-and-forget writes of a key the writing locale
// owns buffer and merge like remote ones — nothing reaches the bucket's
// list before the flush, one write does after it, and the flush is
// booked as a flush and nothing else (no transfer, no matrix cell, no
// remote event). With combining off nothing can merge, so each write
// still applies inline and books nothing.
func TestOwnLocaleAggWritesAbsorb(t *testing.T) {
	const locales, n = 4, 10
	boot := func(t *testing.T, combine bool) (*pgas.System, *pgas.Ctx, epoch.EpochManager, Map[int64], uint64) {
		s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Agg: comm.AggConfig{Combine: combine}})
		t.Cleanup(s.Shutdown)
		em := epoch.NewEpochManager(s.Ctx(0))
		m := New[int64](s.Ctx(0), 16, em)
		c := s.Ctx(2)
		return s, c, em, m, keyHomedOn(m, c.Here())
	}
	get := func(c *pgas.Ctx, em epoch.EpochManager, m Map[int64], k uint64) (v int64, ok bool) {
		em.Protect(c, func(tok *epoch.Token) { v, ok = m.Get(c, tok, k) })
		return v, ok
	}
	matrixUnmoved := func(t *testing.T, s *pgas.System, before [][]int64) {
		t.Helper()
		if after := s.Matrix().Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("own-locale writes moved the matrix: %v -> %v", before, after)
		}
	}

	t.Run("combine on: one write survives", func(t *testing.T) {
		s, c, em, m, own := boot(t, true)
		before, beforeM := s.Counters().Snapshot(), s.Matrix().Snapshot()
		for i := 1; i <= n; i++ {
			m.UpsertAgg(c, own, int64(i))
		}
		if p := c.Aggregator(c.Here()).Pending(); p != 1 || c.PendingOps() != 1 {
			t.Fatalf("before flush: %d ops in the own-locale buffer, %d on the task; want 1 and 1", p, c.PendingOps())
		}
		if st := m.Stats(c); st != (list.Stats{}) {
			t.Fatalf("before flush: list stats %+v, want none — nothing applied yet", st)
		}
		want := comm.Snapshot{AggOpsEnq: n, AggCombined: n - 1}
		if d := s.Counters().Snapshot().Sub(before); d != want {
			t.Fatalf("before flush: counters %+v, want %+v", d, want)
		}
		c.Flush()
		if st := m.Stats(c); st != (list.Stats{Inserts: 1}) {
			t.Fatalf("after flush: list stats %+v, want one insert", st)
		}
		want = comm.Snapshot{AggOpsEnq: n, AggCombined: n - 1, AggOps: 1, AggFlushes: 1, AggBytes: mapWriteBytes,
			LocalAMOs: 2, CASAttempts: 1}
		d := s.Counters().Snapshot().Sub(before)
		if d != want || d.Remote() != 0 || c.PendingOps() != 0 {
			t.Fatalf("after flush: counters %+v (remote %d, pending %d), want %+v", d, d.Remote(), c.PendingOps(), want)
		}
		matrixUnmoved(t, s, beforeM)
		if v, ok := get(c, em, m, own); !ok || v != n {
			t.Fatalf("key reads (%d, %v), want the last write (%d, true)", v, ok, n)
		}
	})

	t.Run("combine on: a remove absorbs the upsert before it", func(t *testing.T) {
		s, c, em, m, own := boot(t, true)
		before, beforeM := s.Counters().Snapshot(), s.Matrix().Snapshot()
		m.UpsertAgg(c, own, 1)
		m.RemoveAgg(c, own)
		c.Flush()
		d := s.Counters().Snapshot().Sub(before)
		if d.AggOpsEnq != 2 || d.AggCombined != 1 || d.AggOps != 1 || d.AggFlushes != 1 || d.BulkXfers != 0 || d.Remote() != 0 {
			t.Fatalf("counters %+v, want 2 enqueued, 1 combined, 1 shipped in 1 flush and no transfer", d)
		}
		matrixUnmoved(t, s, beforeM)
		if st := m.Stats(c); st != (list.Stats{}) {
			t.Fatalf("list stats %+v, want none: the surviving remove found nothing", st)
		}
		if v, ok := get(c, em, m, own); ok {
			t.Fatalf("key reads (%d, true), want absent", v)
		}
	})

	t.Run("combine off: every write applies inline", func(t *testing.T) {
		s, c, em, m, own := boot(t, false)
		before, beforeM := s.Counters().Snapshot(), s.Matrix().Snapshot()
		for i := 1; i <= n; i++ {
			m.UpsertAgg(c, own, int64(i))
			if v, ok := get(c, em, m, own); !ok || v != int64(i) || c.PendingOps() != 0 {
				t.Fatalf("write %d: key reads (%d, %v) with %d ops pending, want it applied inline", i, v, ok, c.PendingOps())
			}
		}
		d := s.Counters().Snapshot().Sub(before)
		// Locale-local list work is all that may have moved.
		d.LocalAMOs, d.CASAttempts = 0, 0
		if d != (comm.Snapshot{}) {
			t.Fatalf("inline writes booked aggregation or communication: %+v", d)
		}
		matrixUnmoved(t, s, beforeM)
		// Each upsert after the first replaces: insert the new node, mark
		// and unlink the old one.
		if st := m.Stats(c); st != (list.Stats{Inserts: n, Removes: n - 1, Unlinks: n - 1}) {
			t.Fatalf("list stats %+v, want %d inserts and %d replaced nodes", st, n, n-1)
		}
	})
}
