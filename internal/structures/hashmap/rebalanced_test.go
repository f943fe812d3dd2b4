package hashmap

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// A migration moves a bucket's contents and its future ownership, books
// exact adopt/retire/bytes evidence on both sides, and leaves every key
// readable through the view and through the base map.
func TestRebalancedMigrateMovesBucket(t *testing.T) {
	const locales = 4
	s := newTestSystem(t, locales, comm.BackendNone)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 16, em)
	rv := m

	keys := make([]uint64, 0, 24)
	for k := uint64(1); k <= 24; k++ {
		rv.UpsertAgg(c0, k, int64(k)*10)
		keys = append(keys, k)
	}
	c0.Flush()

	e := m.BucketOf(keys[0])
	inBucket := 0
	for _, k := range keys {
		if m.BucketOf(k) == e {
			inBucket++
		}
	}
	src := rv.EntryOwner(e)
	if src != m.HomeOf(keys[0]) {
		t.Fatalf("pre-migration owner %d != static home %d", src, m.HomeOf(keys[0]))
	}
	dst := (src + 1) % locales

	before := s.Counters().Snapshot()
	bytes, ok := rv.Migrate(c0, e, dst)
	if !ok {
		t.Fatal("migration declined")
	}
	if want := int64(inBucket) * mapWriteBytes; bytes != want {
		t.Fatalf("migration shipped %d bytes, want %d (%d entries)", bytes, want, inBucket)
	}
	if got := rv.EntryOwner(e); got != dst {
		t.Fatalf("owner after migration = %d, want %d", got, dst)
	}
	if got := rv.HomeOf(keys[0]); got != dst {
		t.Fatalf("HomeOf = %d, want %d", got, dst)
	}
	delta := s.Counters().Snapshot().Sub(before)
	if delta.MigAdopted != 1 || delta.MigRetired != 1 || delta.MigBytes != bytes {
		t.Fatalf("books = adopted %d retired %d bytes %d, want 1/1/%d",
			delta.MigAdopted, delta.MigRetired, delta.MigBytes, bytes)
	}
	// The retire filed every node of the old list on the source's limbo,
	// in the current generation, and touched nothing else.
	want := epoch.Snapshot{Global: 1, Locales: make([]epoch.LocaleState, locales)}
	for l := range want.Locales {
		want.Locales[l].Cache = 1
	}
	want.Locales[src].Limbo[1] = inBucket
	if err := em.Snapshot(c0).Diff(want); err != nil {
		t.Fatalf("epoch state after the migrate-retire: %v", err)
	}

	// Every key — migrated bucket or not — stays readable on both paths.
	tok := em.Register(c0)
	for _, k := range keys {
		if v, okGet := rv.Get(c0, tok, k); !okGet || v != int64(k)*10 {
			t.Fatalf("view Get(%d) = (%d,%v) after migration", k, v, okGet)
		}
		if v, okGet := m.Get(c0, tok, k); !okGet || v != int64(k)*10 {
			t.Fatalf("base Get(%d) = (%d,%v) after migration", k, v, okGet)
		}
	}
	tok.Unregister(c0)

	// Migrating to the current owner declines without touching the books.
	if b, okSame := rv.Migrate(c0, e, dst); okSame || b != 0 {
		t.Fatalf("self-migration = (%d,%v), want decline", b, okSame)
	}

	// New writes route to the new owner; migrating back works.
	rv.UpsertAgg(c0, keys[0], -1)
	c0.Flush()
	tok = em.Register(c0)
	if v, okGet := rv.Get(c0, tok, keys[0]); !okGet || v != -1 {
		t.Fatalf("Get after post-migration write = (%d,%v)", v, okGet)
	}
	tok.Unregister(c0)
	if _, okBack := rv.Migrate(c0, e, src); !okBack {
		t.Fatal("migration back declined")
	}
	snap := s.Counters().Snapshot()
	if snap.MigAdopted != snap.MigRetired {
		t.Fatalf("books unbalanced: adopted %d retired %d", snap.MigAdopted, snap.MigRetired)
	}

	em.Clear(c0)
	st := em.Stats(c0)
	if st.Deferred != st.Reclaimed {
		t.Fatalf("epoch books: deferred %d reclaimed %d", st.Deferred, st.Reclaimed)
	}
	want.Locales[src].Limbo[1] = 0
	if err := em.Snapshot(c0).Diff(want); err != nil {
		t.Fatalf("epoch state after Clear: %v", err)
	}
	heap := s.HeapStats()
	if heap.UAFLoads != 0 || heap.UAFStores != 0 || heap.UAFFrees != 0 {
		t.Fatalf("use-after-free detected: %+v", heap)
	}
	m.Destroy(c0)
}

// An empty bucket still ships its (empty) fill op, so migrations,
// adopts, and retires stay in exact correspondence.
func TestRebalancedMigrateEmptyBucket(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 8, em)
	rv := m

	bytes, ok := rv.Migrate(c0, 0, 1)
	if !ok || bytes != 0 {
		t.Fatalf("empty-bucket migration = (%d,%v), want (0,true)", bytes, ok)
	}
	snap := s.Counters().Snapshot()
	if snap.MigAdopted != 1 || snap.MigRetired != 1 || snap.MigBytes != 0 {
		t.Fatalf("books = adopted %d retired %d bytes %d, want 1/1/0",
			snap.MigAdopted, snap.MigRetired, snap.MigBytes)
	}
	em.Clear(c0)
	m.Destroy(c0)
}

// A routed write that raced a migration — buffered toward the old
// owner, delivered after the republish — detects the generation bump
// and re-dispatches itself to the current owner instead of landing on
// a shard that no longer owns the bucket.
func TestRebalancedStaleWriteReroutes(t *testing.T) {
	const locales = 4
	s := newTestSystem(t, locales, comm.BackendNone)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 16, em)
	rv := m

	// A key whose bucket starts on a remote locale, so the write
	// buffers instead of executing inline.
	var k uint64
	for k = 1; m.HomeOf(k) == 0; k++ {
	}
	e := m.BucketOf(k)
	src := rv.EntryOwner(e)
	dst := (src + 1) % locales
	if dst == 0 {
		dst = (dst + 1) % locales
	}

	rv.UpsertAgg(c0, k, 42) // buffered toward src, not yet delivered
	if _, ok := rv.Migrate(c0, e, dst); !ok {
		t.Fatal("migration declined")
	}
	c0.Flush() // delivers the stale op at src; it must re-route to dst

	snap := s.Counters().Snapshot()
	if snap.MigReroutes == 0 {
		t.Fatalf("stale write did not re-route: %+v", snap)
	}
	tok := em.Register(c0)
	if v, ok := rv.Get(c0, tok, k); !ok || v != 42 {
		t.Fatalf("Get after re-routed write = (%d,%v), want (42,true)", v, ok)
	}
	tok.Unregister(c0)
	em.Clear(c0)
	m.Destroy(c0)
}

// runMigrationStorm drives the seeded storm of runCombineStorm through
// the rebalanced view — concurrent Get/Upsert/Remove traffic from
// every locale — while (when migrate is set) a driver task migrates
// every bucket round-robin across destinations the whole time. After
// the workers quiesce it writes one deterministic final pass (no
// migrations in flight), so the final state is identical whether or
// not ownership moved underneath the storm. Returns the final map
// contents, the counter snapshot, and the migration count/bytes the
// driver observed.
func runMigrationStorm(t *testing.T, migrate bool) (map[uint64]int64, comm.Snapshot, int64, int64) {
	t.Helper()
	const locales, tasks, hotKeys, writes, maxMigrations = 4, 2, 4, 512, 1024
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		Seed:    7,
		Agg:     comm.AggConfig{Combine: true},
	})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 32, em)
	rv := m

	stop := make(chan struct{})
	var migWG sync.WaitGroup
	var migrations, migBytes int64
	if migrate {
		migWG.Add(1)
		go func() {
			defer migWG.Done()
			mc := s.Ctx(0)
			for r := 0; r < maxMigrations; r++ {
				select {
				case <-stop:
					return
				default:
				}
				e := r % rv.NumEntries()
				dst := (rv.EntryOwner(e) + 1 + r%(locales-1)) % locales
				if b, ok := rv.Migrate(mc, e, dst); ok {
					migrations++
					migBytes += b
				}
				runtime.Gosched()
			}
		}()
	}

	var wg sync.WaitGroup
	for loc := 0; loc < locales; loc++ {
		for task := 0; task < tasks; task++ {
			wg.Add(1)
			go func(loc, task int) {
				defer wg.Done()
				c := s.Ctx(loc)
				id := uint64(loc*tasks + task)
				tok := em.Register(c)
				for i := 0; i < writes; i++ {
					k := id*1000 + uint64(i)%hotKeys
					switch {
					case i%97 == 13:
						rv.RemoveAgg(c, k)
					case i%31 == 7:
						rv.Get(c, tok, k) // reads race the pointer swaps
					default:
						rv.UpsertAgg(c, k, int64(id)<<32|int64(i))
					}
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

	// Deterministic final pass: ownership is now static, so these apply
	// in program order and fix every key's final value and presence.
	for id := uint64(0); id < locales*tasks; id++ {
		for j := uint64(0); j < hotKeys; j++ {
			k := id*1000 + j
			if (id+j)%3 == 0 {
				rv.RemoveAgg(c0, k)
			} else {
				rv.UpsertAgg(c0, k, int64(id*100+j))
			}
		}
	}
	c0.Flush()

	got := make(map[uint64]int64)
	tok := em.Register(c0)
	m.forEach(c0, tok, func(k uint64, v int64) bool {
		got[k] = v
		return true
	})
	tok.Unregister(c0)

	snap := s.Counters().Snapshot()
	heap := s.HeapStats()
	if heap.UAFLoads != 0 || heap.UAFStores != 0 || heap.UAFFrees != 0 {
		t.Fatalf("use-after-free under migration storm: %+v", heap)
	}
	em.Clear(c0)
	if st := em.Stats(c0); st.Deferred != st.Reclaimed {
		t.Fatalf("epoch books after storm: deferred %d reclaimed %d", st.Deferred, st.Reclaimed)
	}
	m.Destroy(c0)
	return got, snap, migrations, migBytes
}

// A locale dies in the middle of the migration storm and the survivors
// adopt its shards while their own traffic — and the migration driver —
// keeps running. The test is the crash half of the storm family: the
// victim's tasks abandon fail-stop (no flush, no unregister, budget to
// the ledger), a stranded pin models the epoch wedge a dead task leaves
// behind, and recovery runs Failover plus ForceRetire from a salvage
// context against live concurrent mutators. Under -race this storms the
// failover handoff exactly where it is most fragile. Afterward:
//
//   - no bucket is owned by the dead locale, and a deterministic final
//     pass lands every key on the adopters with zero further ops lost;
//   - adopt/retire books balance globally (driver migrations, the
//     aborted-handoff path, and failover adoptions all included);
//   - ForceRetire cleared exactly the stranded pin, and the final Clear
//     drains every deferred node (deferred == reclaimed, zero UAF).
func TestRebalancedCrashFailoverStorm(t *testing.T) {
	const locales, tasks, hotKeys, writes, maxMigrations = 4, 2, 4, 512, 1024
	const victim = 2
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		Seed:    7,
		Agg:     comm.AggConfig{Combine: true},
	})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, 32, em)
	rv := m

	// The stranded pin: a task the crash will kill mid-read. Left alone
	// it wedges every epoch advance after the first; ForceRetire must
	// clear it (and only it — the workers' tokens are quiescent).
	c0.On(victim, func(vc *pgas.Ctx) { em.Pin(vc) })

	stop := make(chan struct{})
	var migWG sync.WaitGroup
	migWG.Add(1)
	go func() {
		defer migWG.Done()
		mc := s.Ctx(0)
		for r := 0; r < maxMigrations; r++ {
			select {
			case <-stop:
				return
			default:
			}
			e := r % rv.NumEntries()
			dst := (rv.EntryOwner(e) + 1 + r%(locales-1)) % locales
			rv.Migrate(mc, e, dst)
			runtime.Gosched()
		}
	}()

	// The victim's tasks park at their halfway mark until the crash has
	// landed, then observe it on their next liveness check and abandon —
	// a deterministic crash point (each victim task loses exactly half
	// its budget) that still lets the survivors and the migration driver
	// race the recovery freely.
	crashed := make(chan struct{})
	var victimProgress atomic.Int64
	var lostBudget atomic.Int64
	var victimWG, wg sync.WaitGroup
	for loc := 0; loc < locales; loc++ {
		for task := 0; task < tasks; task++ {
			wg.Add(1)
			if loc == victim {
				victimWG.Add(1)
			}
			go func(loc, task int) {
				defer wg.Done()
				if loc == victim {
					defer victimWG.Done()
				}
				c := s.Ctx(loc)
				id := uint64(loc*tasks + task)
				tok := em.Register(c)
				for i := 0; i < writes; i++ {
					if loc == victim && i == writes/2 {
						<-crashed
					}
					// Fail-stop: a task dies with its locale — it abandons
					// its remaining budget to the ledger and exits without
					// flushing its buffers or unregistering its token.
					if !s.Alive(loc) {
						lostBudget.Add(int64(writes - i))
						s.Counters().IncOpsLost(loc, int64(writes-i))
						return
					}
					k := id*1000 + uint64(i)%hotKeys
					switch {
					case i%97 == 13:
						rv.RemoveAgg(c, k)
					case i%31 == 7:
						rv.Get(c, tok, k)
					default:
						rv.UpsertAgg(c, k, int64(id)<<32|int64(i))
					}
					if loc == victim {
						victimProgress.Add(1)
					}
				}
				c.Flush()
				tok.Unregister(c)
			}(loc, task)
		}
	}

	// Orchestrator: crash mid-storm, wait for the victim's tasks to
	// drain (force-retiring a pin a live task still holds would break
	// the grace period it guarantees), then recover while the surviving
	// six workers and the migration driver keep storming.
	var shards, bytes, tokens int64
	var victimOwned int
	var orchWG sync.WaitGroup
	orchWG.Add(1)
	go func() {
		defer orchWG.Done()
		for victimProgress.Load() < tasks*(writes/2) {
			runtime.Gosched()
		}
		if err := s.Crash(victim); err != nil {
			t.Errorf("Crash(%d): %v", victim, err)
			return
		}
		close(crashed)
		victimWG.Wait()
		for e := 0; e < rv.NumEntries(); e++ {
			if rv.EntryOwner(e) == victim {
				victimOwned++
			}
		}
		oc := s.Ctx(0)
		sc := oc.Salvage()
		shards, bytes = rv.Failover(sc, victim)
		tokens = em.ForceRetire(sc, victim)
		sc.Flush()
	}()

	wg.Wait()
	orchWG.Wait()
	close(stop)
	migWG.Wait()
	c0.Flush() // drain any still-pending async re-route chains

	if want := int64(tasks * (writes - writes/2)); lostBudget.Load() != want {
		t.Fatalf("victim tasks abandoned %d ops, want exactly %d (half of each task's budget)",
			lostBudget.Load(), want)
	}
	// victimOwned is a sample, not a fence: the one migration the driver
	// had in flight across the crash republishes after it. Out of the
	// victim (admitted before the crash), failover finds a shard fewer;
	// into it (republished in the window after its last liveness check),
	// the migrator moves the bucket on itself, before or after failover
	// counted it — a shard fewer or a shard more. What is guaranteed is
	// asserted below: no entry is left with the victim, books balance.
	if d := shards - int64(victimOwned); d < -1 || d > 1 {
		t.Fatalf("failover adopted %d shards, victim owned %d at recovery", shards, victimOwned)
	}
	if shards == 0 {
		t.Fatal("victim owned no shards at recovery; the failover is vacuous")
	}
	if tokens != 1 {
		t.Fatalf("force-retired %d tokens, want exactly the stranded pin", tokens)
	}
	for e := 0; e < rv.NumEntries(); e++ {
		if own := rv.EntryOwner(e); own == victim {
			t.Fatalf("entry %d still owned by dead locale %d", e, victim)
		}
	}

	// Deterministic final pass: every key re-written from locale 0 must
	// land on the adopters — zero further refusals — fixing the exact
	// final contents regardless of what the crash swallowed.
	preLost := s.Counters().Snapshot().OpsLost
	for id := uint64(0); id < locales*tasks; id++ {
		for j := uint64(0); j < hotKeys; j++ {
			k := id*1000 + j
			if (id+j)%3 == 0 {
				rv.RemoveAgg(c0, k)
			} else {
				rv.UpsertAgg(c0, k, int64(id*100+j))
			}
		}
	}
	c0.Flush()

	want := make(map[uint64]int64)
	for id := uint64(0); id < locales*tasks; id++ {
		for j := uint64(0); j < hotKeys; j++ {
			if (id+j)%3 != 0 {
				want[id*1000+j] = int64(id*100 + j)
			}
		}
	}
	got := make(map[uint64]int64)
	tok := em.Register(c0)
	m.forEach(c0, tok, func(k uint64, v int64) bool {
		got[k] = v
		return true
	})
	tok.Unregister(c0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-recovery state diverged:\ngot:  %v\nwant: %v", got, want)
	}

	snap := s.Counters().Snapshot()
	if snap.OpsLost != preLost {
		t.Fatalf("post-recovery writes were refused: opsLost %d -> %d", preLost, snap.OpsLost)
	}
	if snap.OpsLost < lostBudget.Load() {
		t.Fatalf("ledger %d below the victims' abandoned budget %d", snap.OpsLost, lostBudget.Load())
	}
	if snap.MigAdopted != snap.MigRetired {
		t.Fatalf("books unbalanced after crash storm: adopted %d retired %d", snap.MigAdopted, snap.MigRetired)
	}
	if snap.MigAdopted < shards {
		t.Fatalf("adopted %d below failover's %d shards", snap.MigAdopted, shards)
	}
	if bytes < 0 || snap.MigBytes < bytes {
		t.Fatalf("failover bytes %d exceed total migrated bytes %d", bytes, snap.MigBytes)
	}

	heap := s.HeapStats()
	if heap.UAFLoads != 0 || heap.UAFStores != 0 || heap.UAFFrees != 0 {
		t.Fatalf("use-after-free under crash storm: %+v", heap)
	}
	em.Clear(c0)
	if st := em.Stats(c0); st.Deferred != st.Reclaimed {
		t.Fatalf("epoch books after crash storm: deferred %d reclaimed %d", st.Deferred, st.Reclaimed)
	}
	m.Destroy(c0)
}

// A locale dies while buckets are being migrated into it. The crash is
// timed off the adopt counter — the fill op books it as it lands — so
// round after round it falls inside a handoff: after the fill landed
// (the handoff is abandoned and its shipped copy retired) or after the
// liveness check under the combiner (the bucket is republished to the
// dead locale, and the migrator or the failover sweep moves it on).
// Once both have returned no bucket is owned by the dead locale, no key
// is lost and every book balances.
func TestRebalancedMigrateIntoDyingLocale(t *testing.T) {
	const locales, buckets, keys, victim, rounds = 4, 8, 64, 2, 100
	for round := 0; round < rounds; round++ {
		s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Seed: 7})
		c0 := s.Ctx(0)
		em := epoch.NewEpochManager(c0)
		m := New[int64](c0, buckets, em)
		tok := em.Register(c0)
		for k := uint64(0); k < keys; k++ {
			m.Insert(c0, tok, k, int64(k))
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc := s.Ctx(1)
			for r := 0; r < 2*buckets; r++ {
				if e := r % buckets; m.EntryOwner(e) != victim {
					m.Migrate(mc, e, victim)
				}
			}
		}()
		for s.Counters().Snapshot().MigAdopted < int64(1+round%6) {
			runtime.Gosched()
		}
		if err := s.Crash(victim); err != nil {
			t.Fatal(err)
		}
		sc := c0.Salvage()
		m.Failover(sc, victim)
		wg.Wait()

		for e := 0; e < buckets; e++ {
			if m.EntryOwner(e) == victim {
				t.Fatalf("round %d: entry %d still owned by dead locale %d", round, e, victim)
			}
		}
		if n := m.Len(c0, tok); n != keys {
			t.Fatalf("round %d: %d keys after recovery, want %d", round, n, keys)
		}
		if snap := s.Counters().Snapshot(); snap.MigAdopted != snap.MigRetired {
			t.Fatalf("round %d: books unbalanced: adopted %d retired %d", round, snap.MigAdopted, snap.MigRetired)
		}
		tok.Unregister(c0)
		em.ForceRetire(sc, victim)
		sc.Flush()
		em.Clear(c0)
		if st := em.Stats(c0); st.Deferred != st.Reclaimed {
			t.Fatalf("round %d: epoch books: deferred %d reclaimed %d", round, st.Deferred, st.Reclaimed)
		}
		if heap := s.HeapStats(); heap.UAFLoads != 0 || heap.UAFStores != 0 || heap.UAFFrees != 0 {
			t.Fatalf("round %d: use-after-free: %+v", round, heap)
		}
		m.Destroy(c0)
		s.Shutdown()
	}
}

// The migration storm is invisible to the data: a run whose buckets
// migrated continuously lands bit-identical to a static-ownership run
// of the same seeded workload, with zero use-after-free and exactly
// balanced adopt/retire books. Run under -race this storms the
// handoff (combiner drain, pointer swap, epoch retire) from 8 mutator
// tasks plus the migration driver.
func TestRebalancedMigrationStormEquivalence(t *testing.T) {
	moved, movedSnap, migrations, migBytes := runMigrationStorm(t, true)
	static, staticSnap, _, _ := runMigrationStorm(t, false)

	if !reflect.DeepEqual(moved, static) {
		t.Fatalf("migration changed final map state:\nmoved:  %v\nstatic: %v", moved, static)
	}
	if len(moved) == 0 {
		t.Fatal("storm left the map empty; the equivalence is vacuous")
	}
	if migrations == 0 {
		t.Fatal("driver performed no migrations; the storm is vacuous")
	}
	if movedSnap.MigAdopted != migrations || movedSnap.MigRetired != migrations {
		t.Fatalf("books: adopted %d retired %d, driver counted %d",
			movedSnap.MigAdopted, movedSnap.MigRetired, migrations)
	}
	if movedSnap.MigBytes != migBytes {
		t.Fatalf("moved bytes %d != shipped bulk bytes %d", movedSnap.MigBytes, migBytes)
	}
	if staticSnap.MigAdopted != 0 || staticSnap.MigRetired != 0 || staticSnap.MigReroutes != 0 {
		t.Fatalf("static run booked migration evidence: %+v", staticSnap)
	}
}
