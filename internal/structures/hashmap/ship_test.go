package hashmap

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// The route is a property of the machine, not a knob: New ships exactly
// when one on-statement undercuts the shortest remote walk.
func TestShipRule(t *testing.T) {
	cases := []struct {
		name    string
		backend comm.Backend
		lat     comm.LatencyProfile
		ship    bool
	}{
		{"none/default", comm.BackendNone, comm.DefaultProfile(), true},
		{"ugni/default", comm.BackendUGNI, comm.DefaultProfile(), false},
		{"none/zero", comm.BackendNone, comm.Zero(), false},
		{"ugni/zero", comm.BackendUGNI, comm.Zero(), false},
		{"none/scaled", comm.BackendNone, comm.DefaultProfile().Scale(0.01), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: tc.backend, Latency: tc.lat})
			defer s.Shutdown()
			c := s.Ctx(0)
			m := New[int](c, 4, epoch.NewEpochManager(c))
			if m.ship != tc.ship {
				t.Fatalf("New chose ship=%v, want %v", m.ship, tc.ship)
			}
			if m.Shipped(!tc.ship).ship == tc.ship || m.Cached(c, 4).ship != tc.ship {
				t.Fatal("Shipped must pin the route of the copy only, and Cached must keep it")
			}
		})
	}
}

// matrixDelta returns after - before, cell by cell.
func matrixDelta(after, before [][]int64) [][]int64 {
	d := make([][]int64, len(after))
	for i := range after {
		d[i] = make([]int64, len(after[i]))
		for j := range after[i] {
			d[i][j] = after[i][j] - before[i][j]
		}
	}
	return d
}

// The hashmap-level companion of list.TestListEventTable. A map of one
// bucket homed on locale 0 holds 10, 20, 30 — the list table's list —
// so a walking handle must reproduce that table's 1 + 2v rows, while a
// shipping handle called off the owner books exactly one on-statement
// (one matrix cell, caller → owner) and the same word accesses as
// owner-local atomics: no GET, no remote atomic, and a local
// allocation. On the owner a shipping handle books nothing remote.
func TestMapEventTable(t *testing.T) {
	cases := []struct {
		name    string
		op      string
		key     uint64
		want    bool
		v       int64 // nodes visited
		amos    int64 // word reads + CASes
		cas     int64
		onStmts int64 // remote allocations on the walk
	}{
		{"get-hit", "get", 20, true, 2, 1 + 2, 0, 0},
		{"get-miss", "get", 40, false, 3, 1 + 3, 0, 0},
		{"remove-absent", "remove", 15, false, 2, 1 + 2, 0, 0},
		{"insert-present", "insert", 20, false, 2, 1 + 2, 0, 0},
		{"insert-fresh", "insert", 25, true, 3, 1 + 3 + 1, 1, 1},
		{"upsert-fresh", "upsert", 40, false, 3, 1 + 3 + 1, 1, 1},
		{"upsert-present", "upsert", 20, true, 2, 1 + 2 + 3, 3, 1},
		{"remove-present", "remove", 30, true, 3, 1 + 3 + 2, 2, 0},
	}
	callers := []struct {
		name    string
		backend comm.Backend
		locale  int // the bucket is owned by locale 0
		ship    bool
	}{
		{"remote/ship", comm.BackendNone, 1, true},
		{"home/ship", comm.BackendNone, 0, true},
		{"remote/walk/none", comm.BackendNone, 1, false},
		{"remote/walk/ugni", comm.BackendUGNI, 1, false},
	}
	for _, caller := range callers {
		for _, tc := range cases {
			t.Run(caller.name+"/"+tc.name, func(t *testing.T) {
				s := newTestSystem(t, 2, caller.backend)
				c0 := s.Ctx(0)
				em := epoch.NewEpochManager(c0)
				m := New[int](c0, 1, em).Shipped(caller.ship)
				tok0 := em.Register(c0)
				for _, k := range []uint64{10, 20, 30} {
					m.Insert(c0, tok0, k, int(k))
				}
				c := s.Ctx(caller.locale)
				tok := em.Register(c)

				before, beforeM := s.Counters().Snapshot(), s.Matrix().Snapshot()
				var got bool
				switch tc.op {
				case "get":
					got = m.Contains(c, tok, tc.key)
				case "insert":
					got = m.Insert(c, tok, tc.key, 0)
				case "upsert":
					got = m.Upsert(c, tok, tc.key, 0)
				case "remove":
					got = m.Remove(c, tok, tc.key)
				}
				d := s.Counters().Snapshot().Sub(before)
				dm := matrixDelta(s.Matrix().Snapshot(), beforeM)

				if got != tc.want {
					t.Fatalf("op returned %v, want %v", got, tc.want)
				}
				want := comm.Snapshot{CASAttempts: tc.cas}
				wantM := [][]int64{{0, 0}, {0, 0}}
				switch {
				case caller.ship && caller.locale != 0:
					want.OnStmts, want.LocalAMOs = 1, tc.amos
					wantM[1][0] = 1
				case caller.ship:
					want.LocalAMOs = tc.amos
				case caller.backend == comm.BackendUGNI:
					want.Gets, want.NICAMOs, want.OnStmts = tc.v, tc.amos, tc.onStmts
					wantM = nil
				default:
					want.Gets, want.AMAMOs, want.OnStmts = tc.v, tc.amos, tc.onStmts
					wantM = nil
				}
				if d != want {
					t.Fatalf("events per op:\n got  %+v\n want %+v", d, want)
				}
				if wantM != nil && !reflect.DeepEqual(dm, wantM) {
					t.Fatalf("matrix delta %v, want %v", dm, wantM)
				}
				if st := m.Stats(c0); st.Unlinks != st.Removes {
					t.Fatalf("unlinks=%d removes=%d at quiescence", st.Unlinks, st.Removes)
				}
			})
		}
	}
}

// A read costs the same host allocations — none — on either route: the
// shipped Get's body runs on a pooled context and takes no combiner,
// so nothing of it escapes to the heap.
func TestShippedGetAllocatesNothing(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int](c0, 1, em)
	tok0 := em.Register(c0)
	for k := uint64(10); k <= 30; k += 10 {
		m.Insert(c0, tok0, k, int(k))
	}
	c1 := s.Ctx(1)
	tok := em.Register(c1)
	for _, ship := range []bool{false, true} {
		h := m.Shipped(ship)
		if n := testing.AllocsPerRun(100, func() { h.Get(c1, tok, 20) }); n != 0 {
			t.Fatalf("ship=%v: a remote Get allocates %v objects", ship, n)
		}
	}
}

// A refused ship falls back to the walk and books what the walk books.
// With the owner first partitioned from the caller, then crashed, a
// shipping handle's sync Upsert, Get and Remove of the owner's key still
// apply, and each op's counter delta equals a walking handle's for the
// same op on an identical system: the refusal itself books nothing — no
// loss, no parking, no expiry.
func TestShipRefusedFallsBackToWalk(t *testing.T) {
	const owner = 1
	books := func(ship bool) []comm.Snapshot {
		s := newTestSystem(t, 3, comm.BackendNone)
		c0 := s.Ctx(0)
		em := epoch.NewEpochManager(c0)
		m := New[int](c0, 8, em).Shipped(ship)
		k := uint64(0)
		for m.HomeOf(k) != owner {
			k++
		}
		tok := em.Register(c0)
		var out []comm.Snapshot
		step := func(name string, op func() bool) {
			before := s.Counters().Snapshot()
			if !op() {
				t.Fatalf("ship=%v: %s did not apply", ship, name)
			}
			out = append(out, s.Counters().Snapshot().Sub(before))
		}
		faults := []func() error{
			func() error { return s.Sever(0, owner) },
			func() error { return s.Crash(owner) },
		}
		for i, fault := range faults {
			if err := fault(); err != nil {
				t.Fatal(err)
			}
			v := i + 1
			step("upsert", func() bool { return !m.Upsert(c0, tok, k, v) })
			step("get", func() bool { got, ok := m.Get(c0, tok, k); return ok && got == v })
			step("remove", func() bool { return m.Remove(c0, tok, k) })
		}
		return out
	}
	shipped, walked := books(true), books(false)
	for i := range walked {
		if shipped[i] != walked[i] {
			t.Fatalf("op %d: shipping handle booked\n %+v\nwalking handle booked\n %+v", i, shipped[i], walked[i])
		}
		if d := shipped[i]; d.OpsLost != 0 || d.OpsParked != 0 || d.OpsExpired != 0 || d.AMAMOs == 0 {
			t.Fatalf("op %d did not walk cleanly: %+v", i, d)
		}
	}
}

// A shipped op follows the owner table: once a bucket has migrated from
// locale 0 to locale 2, a sync Upsert then Get from locale 1 are two
// on-statements to locale 2 and nothing else crosses the network.
func TestShipFollowsMigration(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int](c0, 8, em).Shipped(true)
	k := uint64(0)
	for m.HomeOf(k) != 0 {
		k++
	}
	if _, ok := m.Migrate(c0, m.BucketOf(k), 2); !ok {
		t.Fatal("migration declined")
	}
	c1 := s.Ctx(1)
	tok := em.Register(c1)
	before := s.Matrix().Snapshot()
	if m.Upsert(c1, tok, k, 42) {
		t.Fatal("upsert of a fresh key replaced something")
	}
	if v, ok := m.Get(c1, tok, k); !ok || v != 42 {
		t.Fatalf("get after shipped upsert = (%d, %v), want (42, true)", v, ok)
	}
	want := [][]int64{{0, 0, 0}, {0, 0, 2}, {0, 0, 0}}
	if d := matrixDelta(s.Matrix().Snapshot(), before); !reflect.DeepEqual(d, want) {
		t.Fatalf("matrix delta %v, want %v", d, want)
	}
}

// A shipped write heats its bucket like every other owner-applied write:
// once a controller ranks the map, one remote Upsert and one Get through
// a shipping handle raise the bucket's heat by two.
func TestShippedWriteBumpsHeat(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int](c0, 8, em).Shipped(true)
	k := uint64(0)
	for m.HomeOf(k) != 1 {
		k++
	}
	e := m.BucketOf(k)
	tok := em.Register(c0)
	before := m.EntryHeat(e)
	m.Upsert(c0, tok, k, 7)
	if v, ok := m.Get(c0, tok, k); !ok || v != 7 {
		t.Fatalf("get after shipped upsert = (%d, %v), want (7, true)", v, ok)
	}
	if d := m.EntryHeat(e) - before; d != 2 {
		t.Fatalf("heat rose by %d, want 2 (one upsert, one get)", d)
	}
}

// A shipped write whose owner sample goes stale in flight ships again
// instead of landing where the bucket used to live. The write samples
// owner 1 and spends its on-statement's 20 ms round trip in flight;
// meanwhile the bucket migrates to locale 2. Under locale 1's combiner
// the body finds the generation moved on, and the caller ships again,
// to locale 2: one on-statement to each, and no remote atomic — a body
// that skipped the re-check would walk locale 2's list from locale 1.
func TestShippedWriteFollowsRacingMigration(t *testing.T) {
	const from, to = 1, 2
	s := pgas.NewSystem(pgas.Config{Locales: 3, Backend: comm.BackendNone,
		Latency: comm.LatencyProfile{AMRoundTripNS: 20_000_000}})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int](c0, 8, em).Shipped(true)
	k := uint64(0)
	for m.HomeOf(k) != from {
		k++
	}
	tok := em.Register(c0)
	before, beforeM := s.Counters().Snapshot(), s.Matrix().Snapshot()
	replaced := make(chan bool)
	go func() { replaced <- m.Upsert(c0, tok, k, 7) }()
	// The write books its on-statement before it pays the round trip.
	for s.Counters().Snapshot().OnStmts == before.OnStmts {
		runtime.Gosched()
	}
	if _, ok := m.Migrate(s.Ctx(from), m.BucketOf(k), to); !ok {
		t.Fatal("migration declined")
	}
	if <-replaced {
		t.Fatal("upsert of a fresh key replaced something")
	}
	d, dm := s.Counters().Snapshot().Sub(before), matrixDelta(s.Matrix().Snapshot(), beforeM)
	if dm[0][from] != 1 || dm[0][to] != 1 || d.AMAMOs != 0 || d.Gets != 0 {
		t.Fatalf("stale write: matrix row %v, books %+v; want one on-statement to each owner and no remote atomic", dm[0], d)
	}
	if v, ok := m.Get(c0, tok, k); !ok || v != 7 {
		t.Fatalf("get after the re-shipped write = (%d, %v), want (7, true)", v, ok)
	}
}

// rawLinked counts the nodes linked into bucket e's list, marked or
// not: a Get of a key larger than any stored in the bucket, run on the
// bucket's owner through a walking handle, reads the head word and then
// the successor word of every linked node — 1 + linked local atomics
// (the list event table's get-miss-off-tail row).
func rawLinked(t *testing.T, s *pgas.System, m Map[int64], em epoch.EpochManager, e int) int64 {
	t.Helper()
	probe := uint64(1) << 40
	for m.BucketOf(probe) != e {
		probe++
	}
	oc := s.Ctx(m.EntryOwner(e))
	tok := em.Register(oc)
	defer tok.Unregister(oc)
	before := s.Counters().Snapshot()
	if _, ok := m.Shipped(false).Get(oc, tok, probe); ok {
		t.Fatalf("probe key %d is present", probe)
	}
	d := s.Counters().Snapshot().Sub(before)
	if d.Remote() != 0 {
		t.Fatalf("owner-local walk of bucket %d went remote: %v", e, d)
	}
	return d.LocalAMOs - 1
}

// The shipped path under -race: 4 locales × 2 tasks run mixed sync
// Insert/Upsert/Remove/Get through a shipping handle, each task on keys
// of its own, reclaiming every 64 ops, while a driver migrates buckets
// round-robin the whole time. Every op's result must match the task's
// own per-key model — a shipped write is never lost to a migration — and
// at quiescence: every marker unlinked its node (and a raw walk of every
// bucket finds exactly the live keys linked), zero use-after-free, every
// deferred node reclaimed, and the contents equal the union of the
// models.
func TestShippedStorm(t *testing.T) {
	const locales, tasks, keys, ops, buckets = 4, 2, 12, 600, 16
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Seed: 7})
	defer s.Shutdown()
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := New[int64](c0, buckets, em).Shipped(true)

	stop := make(chan struct{})
	var migWG sync.WaitGroup
	var migrations int
	migWG.Add(1)
	go func() {
		defer migWG.Done()
		mc := s.Ctx(0)
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			e := r % buckets
			if _, ok := m.Migrate(mc, e, (m.EntryOwner(e)+1+r%(locales-1))%locales); ok {
				migrations++
			}
			runtime.Gosched()
		}
	}()

	models := make([]map[uint64]int64, locales*tasks)
	var wg sync.WaitGroup
	for id := range models {
		models[id] = map[uint64]int64{}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := s.Ctx(id % locales)
			tok := em.Register(c)
			defer tok.Unregister(c)
			model := models[id]
			for i := 0; i < ops; i++ {
				k := uint64(id*1000 + c.RandIntn(keys))
				v := int64(id)<<32 | int64(i)
				cur, had := model[k]
				switch i % 4 {
				case 0:
					if got, ok := m.Get(c, tok, k); ok != had || ok && got != cur {
						t.Errorf("task %d op %d: get(%d) = (%d, %v), model (%d, %v)", id, i, k, got, ok, cur, had)
					}
				case 1:
					if m.Insert(c, tok, k, v) == had {
						t.Errorf("task %d op %d: insert(%d) disagrees with model (present=%v)", id, i, k, had)
					}
					if !had {
						model[k] = v
					}
				case 2:
					if m.Upsert(c, tok, k, v) != had {
						t.Errorf("task %d op %d: upsert(%d) disagrees with model (present=%v)", id, i, k, had)
					}
					model[k] = v
				case 3:
					if m.Remove(c, tok, k) != had {
						t.Errorf("task %d op %d: remove(%d) disagrees with model (present=%v)", id, i, k, had)
					}
					delete(model, k)
				}
				if i%64 == 63 {
					tok.TryReclaim(c)
				}
			}
		}(id)
	}
	wg.Wait()
	close(stop)
	migWG.Wait()
	if migrations == 0 {
		t.Fatal("driver performed no migrations; the storm is vacuous")
	}

	want := map[uint64]int64{}
	perBucket := make([]int64, buckets)
	for _, model := range models {
		for k, v := range model {
			want[k] = v
			perBucket[m.BucketOf(k)]++
		}
	}
	if st := m.Stats(c0); st.Unlinks != st.Removes {
		t.Fatalf("at quiescence unlinks=%d removes=%d, want equal", st.Unlinks, st.Removes)
	}
	for e := 0; e < buckets; e++ {
		if linked := rawLinked(t, s, m, em, e); linked != perBucket[e] {
			t.Fatalf("bucket %d links %d nodes, %d of them live: a marked node is still linked", e, linked, perBucket[e])
		}
	}
	got := map[uint64]int64{}
	em.Protect(c0, func(tok *epoch.Token) {
		m.forEach(c0, tok, func(k uint64, v int64) bool {
			got[k] = v
			return true
		})
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final contents diverged from the per-task models:\ngot:  %v\nwant: %v", got, want)
	}
	em.Clear(c0)
	if st := em.Stats(c0); st.Deferred != st.Reclaimed {
		t.Fatalf("epoch books: deferred %d reclaimed %d", st.Deferred, st.Reclaimed)
	}
	if heap := s.HeapStats(); heap.UAFLoads != 0 || heap.UAFStores != 0 || heap.UAFFrees != 0 {
		t.Fatalf("use-after-free under the shipped storm: %+v", heap)
	}
	m.Destroy(c0)
}
