package hashmap

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// Migration spans are exact, deterministically: the span opens inside
// the source combiner only after the generation re-check, so declined
// and double-move-raced migrations record nothing, and every begin
// pairs with one completed handoff (== one MigAdopted). A routed write
// raced past a migration books a reroute instant instead.
func TestRebalancedMigrateSpans(t *testing.T) {
	const locales = 4
	rec := trace.NewRecorder(locales, trace.Config{BufferSize: 1 << 10})
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Tracer: rec})
	t.Cleanup(s.Shutdown)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 8, em)
	rv := m

	for k := uint64(1); k <= 32; k++ {
		rv.UpsertAgg(c0, k, int64(k))
	}
	c0.Flush()

	// Three completed migrations, one decline (self-migration), one
	// stale decline (raced generation), mirrored exactly by the comm
	// books.
	before := s.Counters().Snapshot()
	e := m.BucketOf(1)
	src := rv.EntryOwner(e)
	dst := (src + 1) % locales
	if _, ok := rv.Migrate(c0, e, dst); !ok {
		t.Fatal("first migration declined")
	}
	if _, ok := rv.Migrate(c0, e, dst); ok {
		t.Fatal("self-migration ran")
	}
	if _, ok := rv.Migrate(c0, e, src); !ok {
		t.Fatal("migration back declined")
	}
	e2 := (e + 1) % rv.NumEntries()
	src2 := rv.EntryOwner(e2)
	if _, ok := rv.Migrate(c0, e2, (src2+2)%locales); !ok {
		t.Fatal("third migration declined")
	}
	s.Quiesce()
	delta := s.Counters().Snapshot().Sub(before)
	if delta.MigAdopted != 3 {
		t.Fatalf("MigAdopted = %d, want 3", delta.MigAdopted)
	}

	events := rec.Drain(0)
	var begins, ends int
	for _, ev := range events {
		if ev.Kind != trace.KindMigrate {
			continue
		}
		switch ev.Phase {
		case trace.PhaseBegin:
			begins++
		case trace.PhaseEnd:
			ends++
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events with a roomy buffer", rec.Dropped())
	}
	if begins != 3 || ends != 3 {
		t.Fatalf("migrate spans = %d begins / %d ends, want 3/3 (== MigAdopted)", begins, ends)
	}
	if !trace.BooksBalanced(rec.Books()) {
		t.Fatalf("books unbalanced: %+v", rec.Books())
	}

	em.Clear(c0)
	m.Destroy(c0)
}

// The failure plane's trace evidence is exact and always recorded: one
// crash instant per crash, one adopt span per shard the failover moved
// off the dead locale, one force-retire span per stranded token it
// cleared — all with balanced books, so a post-mortem trace is a
// complete account of what the recovery actually did.
func TestCrashFailoverSpans(t *testing.T) {
	const locales = 4
	const victim = 1
	rec := trace.NewRecorder(locales, trace.Config{BufferSize: 1 << 12})
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Tracer: rec})
	t.Cleanup(s.Shutdown)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 16, em)
	rv := m

	for k := uint64(1); k <= 64; k++ {
		rv.UpsertAgg(c0, k, int64(k))
	}
	c0.Flush()

	// Two tasks die pinned on the victim; both must be force-retired.
	c0.On(victim, func(vc *pgas.Ctx) {
		em.Pin(vc)
		em.Pin(vc)
	})
	if err := s.Crash(victim); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	var victimOwned int64
	for e := 0; e < rv.NumEntries(); e++ {
		if rv.EntryOwner(e) == victim {
			victimOwned++
		}
	}
	sc := c0.Salvage()
	shards, _ := rv.Failover(sc, victim)
	tokens := em.ForceRetire(sc, victim)
	sc.Flush()
	s.Quiesce()

	if shards != victimOwned {
		t.Fatalf("failover adopted %d shards, victim owned %d", shards, victimOwned)
	}
	if tokens != 2 {
		t.Fatalf("force-retired %d tokens, want 2", tokens)
	}

	events := rec.Drain(0)
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events with a roomy buffer", rec.Dropped())
	}
	counts := map[trace.Kind]map[trace.Phase]int64{}
	for _, ev := range events {
		if counts[ev.Kind] == nil {
			counts[ev.Kind] = map[trace.Phase]int64{}
		}
		counts[ev.Kind][ev.Phase]++
	}
	if got := counts[trace.KindCrash][trace.PhaseInstant]; got != 1 {
		t.Fatalf("crash instants = %d, want 1", got)
	}
	if b, e := counts[trace.KindAdopt][trace.PhaseBegin], counts[trace.KindAdopt][trace.PhaseEnd]; b != shards || e != shards {
		t.Fatalf("adopt spans = %d begins / %d ends, want %d/%d (== shards adopted)", b, e, shards, shards)
	}
	if b, e := counts[trace.KindForceRetire][trace.PhaseBegin], counts[trace.KindForceRetire][trace.PhaseEnd]; b != tokens || e != tokens {
		t.Fatalf("force-retire spans = %d begins / %d ends, want %d/%d (== tokens retired)", b, e, tokens, tokens)
	}
	// Every adopt is also a completed migration handoff, so migrate
	// spans cover at least the failover's shard count.
	if got := counts[trace.KindMigrate][trace.PhaseBegin]; got != shards {
		t.Fatalf("migrate spans = %d, want %d (failover handoffs only)", got, shards)
	}
	if !trace.BooksBalanced(rec.Books()) {
		t.Fatalf("books unbalanced: %+v", rec.Books())
	}

	em.Clear(c0)
	m.Destroy(c0)
}
