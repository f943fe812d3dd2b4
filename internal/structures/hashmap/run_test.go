package hashmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// keysHomedOn returns the first n keys, counting up from 0, whose
// bucket locale loc owns and whose bucket is in buckets (any bucket
// when buckets is empty).
func keysHomedOn[V any](m Map[V], loc, n int, buckets ...int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if m.HomeOf(k) != loc {
			continue
		}
		in := len(buckets) == 0
		for _, e := range buckets {
			in = in || m.BucketOf(k) == e
		}
		if in {
			keys = append(keys, k)
		}
	}
	return keys
}

// combineSpans returns the args of the KindCombine spans that ended on
// locale loc, in order, from a drained trace.
func combineSpans(events []trace.Event, loc int) []int64 {
	var args []int64
	for _, ev := range events {
		if ev.Kind == trace.KindCombine && ev.Phase == trace.PhaseEnd && int(ev.Src) == loc {
			args = append(args, ev.Arg)
		}
	}
	return args
}

// The complete state after one delivered run: 64 distinct writes that
// locale 1 owns, buffered on locale 0 and flushed, ship as one batch
// and apply in one combiner pass on the owner — one combine span
// counting all 64 — and every key reads back. The books say one flush,
// one bulk transfer and 64 shipped ops, and once the epoch clears
// every deferral is reclaimed and the heap holds exactly the map's
// nodes.
func TestDeliveredRunState(t *testing.T) {
	const writes = 64
	rec := trace.NewRecorder(2, trace.Config{BufferSize: 1 << 10})
	s := pgas.NewSystem(pgas.Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Agg:     comm.AggConfig{Combine: true},
		Tracer:  rec,
	})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	m := New[int64](c, 16, em)
	keys := keysHomedOn(m, 1, writes)
	rec.Drain(0)
	liveBefore := s.HeapStats().Live
	before := s.Counters().Snapshot()

	for _, k := range keys {
		m.UpsertAgg(c, k, int64(k)*7)
	}
	c.Flush()

	d := s.Counters().Snapshot().Sub(before)
	if d.AggOps != writes || d.AggFlushes != 1 || d.BulkXfers != 1 {
		t.Fatalf("books after the flush: aggOps=%d aggFlushes=%d bulkXfers=%d, want %d/1/1",
			d.AggOps, d.AggFlushes, d.BulkXfers, writes)
	}
	events := rec.Drain(0)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events with a roomy buffer", rec.Dropped())
	}
	if got := combineSpans(events, 1); len(got) != 1 || got[0] != writes {
		t.Fatalf("combine spans on the owner = %v, want one counting %d", got, writes)
	}
	if got := combineSpans(events, 0); len(got) != 0 {
		t.Fatalf("combine spans on the writer = %v, want none", got)
	}
	tok := em.Register(c)
	for _, k := range keys {
		if v, ok := m.Get(c, tok, k); !ok || v != int64(k)*7 {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, int64(k)*7)
		}
	}
	n := m.Len(c, tok)
	tok.Unregister(c)
	if n != writes {
		t.Fatalf("map holds %d entries, want %d", n, writes)
	}

	em.Clear(c)
	if st := em.Stats(c); st.Deferred != st.Reclaimed {
		t.Fatalf("epoch books: deferred %d reclaimed %d", st.Deferred, st.Reclaimed)
	}
	if live := s.HeapStats().Live - liveBefore; live != writes {
		t.Fatalf("heap holds %d objects beyond the empty map, want its %d nodes", live, writes)
	}
	m.Destroy(c)
}

// A run that straddles a migration: writes to two buckets of one owner
// ship in one batch, and one bucket migrates before the flush. The run
// takes one combiner pass; inside it the migrated bucket's writes fail
// their generation re-check and re-route — exactly one MigReroute each,
// every one settled after the pass ended — while the other bucket's
// apply in place. After Flush every key reads its value from its
// bucket's current owner.
func TestDeliveredRunStraddlesMigration(t *testing.T) {
	const locales, perBucket = 3, 16
	rec := trace.NewRecorder(locales, trace.Config{BufferSize: 1 << 10})
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		Agg:     comm.AggConfig{Combine: true},
		Tracer:  rec,
	})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	m := New[int64](c, 16, em)
	stay, move := 1, 1+locales // two buckets locale 1 owns
	keys := append(keysHomedOn(m, 1, perBucket, stay), keysHomedOn(m, 1, perBucket, move)...)
	rec.Drain(0)
	before := s.Counters().Snapshot()

	for _, k := range keys {
		m.UpsertAgg(c, k, int64(k)+100)
	}
	if _, ok := m.Migrate(c, move, 2); !ok {
		t.Fatal("migration declined")
	}
	c.Flush()

	if d := s.Counters().Snapshot().Sub(before); d.MigReroutes != perBucket {
		t.Fatalf("MigReroutes = %d, want the %d writes of the migrated bucket", d.MigReroutes, perBucket)
	}
	events := rec.Drain(0)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events with a roomy buffer", rec.Dropped())
	}
	if got := combineSpans(events, 1); len(got) != 2 || got[1] != 2*perBucket {
		// The first pass on locale 1 is the migration's own.
		t.Fatalf("combine spans on the old owner = %v, want the migration's and one run of %d", got, 2*perBucket)
	}
	var runEnd int64 // the last pass on the old owner is the run's
	for _, ev := range events {
		if ev.Kind == trace.KindCombine && ev.Phase == trace.PhaseEnd && ev.Src == 1 {
			runEnd = ev.TS
		}
	}
	reroutes := 0
	for _, ev := range events {
		if ev.Kind != trace.KindReroute {
			continue
		}
		reroutes++
		if ev.TS < runEnd {
			t.Fatalf("write re-routed at %d, inside the run's combiner pass (ended %d)", ev.TS, runEnd)
		}
	}
	if reroutes != perBucket {
		t.Fatalf("%d reroute instants, want %d", reroutes, perBucket)
	}
	if got := combineSpans(events, 2); len(got) == 0 {
		t.Fatal("no re-routed write applied on the new owner")
	}
	tok := em.Register(c)
	for _, k := range keys {
		if v, ok := m.Get(c, tok, k); !ok || v != int64(k)+100 {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, int64(k)+100)
		}
	}
	if n := m.Len(c, tok); n != len(keys) {
		t.Fatalf("map holds %d entries, want %d", n, len(keys))
	}
	tok.Unregister(c)
	em.Clear(c)
	m.Destroy(c)
}

// A run that straddles a partition. First exactly: a plain call in the
// middle of one delivered batch severs the pair, so the writes before
// it are admitted and apply as one run, and only the writes after it
// are refused and park; the heal redelivers those as one run of their
// own. Then under a flap storm with combining on, every locale writing
// while (1, 2) severs and heals: every refused write parks and
// redelivers, and the map ends exact.
func TestDeliveredRunStraddlesPartition(t *testing.T) {
	const locales, half = 3, 32
	rec := trace.NewRecorder(locales, trace.Config{BufferSize: 1 << 12})
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		Agg:     comm.AggConfig{Combine: true},
		Park:    comm.ParkConfig{DeadlineNS: int64(time.Hour), Capacity: 1 << 16},
		Tracer:  rec,
	})
	defer s.Shutdown()
	value := func(k uint64) int64 { return int64(k)*3 + 1 }
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	m := New[int64](c, 64, em)
	keys := keysHomedOn(m, 1, 2*half)
	rec.Drain(0)

	for _, k := range keys[:half] {
		m.UpsertAgg(c, k, value(k))
	}
	c.Aggregator(1).Call(func(*pgas.Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Errorf("sever: %v", err)
		}
	})
	for _, k := range keys[half:] {
		m.UpsertAgg(c, k, value(k))
	}
	c.Flush()
	if snap := s.Counters().Snapshot(); snap.OpsParked != half || snap.OpsRedelivered != 0 {
		t.Fatalf("books while severed: parked=%d redelivered=%d, want %d/0", snap.OpsParked, snap.OpsRedelivered, half)
	}
	if err := s.Heal(0, 1); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if got := combineSpans(rec.Drain(0), 1); len(got) != 2 || got[0] != half || got[1] != half {
		t.Fatalf("combine spans on the owner = %v, want the admitted run and the redelivered one, %d each", got, half)
	}
	snap := s.Counters().Snapshot()
	if snap.OpsParked != half || snap.OpsRedelivered != half || snap.OpsExpired != 0 || snap.OpsLost != 0 {
		t.Fatalf("settlement: parked=%d redelivered=%d expired=%d lost=%d, want %d/%d/0/0",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired, snap.OpsLost, half, half)
	}

	// The storm writes until the flapper has severed the pair a few
	// times and a delivery has parked on a severed window, flushing
	// every few writes so deliveries keep crossing it.
	const flush, maxPerLocale = 16, 1 << 14
	var flaps atomic.Int64
	stormDone := func() bool {
		return flaps.Load() >= 8 && s.Counters().Snapshot().OpsParked > half
	}
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Sever(1, 2); err != nil {
				t.Errorf("sever: %v", err)
				return
			}
			time.Sleep(300 * time.Microsecond)
			if err := s.Heal(1, 2); err != nil {
				t.Errorf("heal: %v", err)
				return
			}
			flaps.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	base := uint64(1 << 20)
	written := make([]uint64, locales)
	c.CoforallLocales(func(lc *pgas.Ctx) {
		i := uint64(0)
		for ; i < maxPerLocale && (i%flush != 0 || !stormDone()); i++ {
			k := base + uint64(lc.Here())*maxPerLocale + i
			m.UpsertAgg(lc, k, value(k))
			if i%flush == flush-1 {
				lc.Flush()
			}
		}
		lc.Flush()
		written[lc.Here()] = i
	})
	close(stop)
	flapper.Wait()
	_ = s.Heal(1, 2)
	s.DrainParking()

	if n := s.ParkedOps(); n != 0 {
		t.Fatalf("%d ops still parked after the final heal", n)
	}
	snap = s.Counters().Snapshot()
	if snap.OpsParked == half {
		t.Fatal("the storm never delivered across a severed window")
	}
	if snap.OpsParked != snap.OpsRedelivered+snap.OpsExpired || snap.OpsExpired != 0 || snap.OpsLost != 0 {
		t.Fatalf("retry books after the storm: parked=%d redelivered=%d expired=%d lost=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired, snap.OpsLost)
	}
	tok := em.Register(c)
	want := len(keys)
	for _, k := range keys {
		if v, ok := m.Get(c, tok, k); !ok || v != value(k) {
			t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, value(k))
		}
	}
	for loc, n := range written {
		want += int(n)
		for i := uint64(0); i < n; i++ {
			k := base + uint64(loc)*maxPerLocale + i
			if v, ok := m.Get(c, tok, k); !ok || v != value(k) {
				t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, value(k))
			}
		}
	}
	if n := m.Len(c, tok); n != want {
		t.Fatalf("map holds %d entries, want %d", n, want)
	}
	tok.Unregister(c)
	em.Clear(c)
	m.Destroy(c)
}
