package shared

import (
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// testShard is a minimal per-locale shard: the locale it was built on
// plus an op counter.
type testShard struct {
	builtOn int
	ops     atomic.Int64
}

func newTestSystem(t testing.TB, locales int) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone})
	t.Cleanup(s.Shutdown)
	return s
}

// Each shard is constructed on its own locale and Local resolves the
// calling locale's shard with zero communication.
func TestObjectLocalIsZeroComm(t *testing.T) {
	s := newTestSystem(t, 4)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		o := New(c, em, func(lc *pgas.Ctx, shard int) *testShard {
			if lc.Here() != shard {
				t.Errorf("create hook: ctx on %d building shard %d", lc.Here(), shard)
			}
			return &testShard{builtOn: lc.Here()}
		})
		if !o.Valid() {
			t.Fatal("handle invalid after New")
		}
		before := s.Counters().Snapshot()
		c.CoforallLocales(func(lc *pgas.Ctx) {
			for i := 0; i < 100; i++ {
				sh := o.Local(lc)
				if sh.builtOn != lc.Here() {
					t.Errorf("locale %d resolved shard built on %d", lc.Here(), sh.builtOn)
				}
				sh.ops.Add(1)
			}
		})
		delta := s.Counters().Snapshot().Sub(before)
		// The only remote events are the coforall's launch on-statements.
		if got := delta.Remote() - delta.OnStmts; got != 0 {
			t.Fatalf("Local lookups performed %d remote events: %v", got, delta)
		}
		if delta.OnStmts != 3 {
			t.Fatalf("launch on-statements = %d, want 3", delta.OnStmts)
		}
	})
}

func TestObjectRoutingAndGather(t *testing.T) {
	s := newTestSystem(t, 4)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		o := New(c, em, func(lc *pgas.Ctx, _ int) *testShard {
			return &testShard{builtOn: lc.Here()}
		})
		// Synchronous owner routing lands on the owner's shard.
		for l := 0; l < 4; l++ {
			o.OnOwner(c, l, func(lc *pgas.Ctx, sh *testShard) {
				if lc.Here() != l || sh.builtOn != l {
					t.Errorf("OnOwner(%d) ran on %d against shard %d", l, lc.Here(), sh.builtOn)
				}
				sh.ops.Add(2)
			})
		}
		// Aggregated routing executes at flush, on the owner.
		for l := 0; l < 4; l++ {
			o.AggOnOwner(c, l, func(lc *pgas.Ctx, sh *testShard) {
				if lc.Here() != l {
					t.Errorf("AggOnOwner(%d) ran on %d", l, lc.Here())
				}
				sh.ops.Add(3)
			})
		}
		c.Flush()

		counts := Gather(c, o, func(_ *pgas.Ctx, sh *testShard) int64 { return sh.ops.Load() })
		for l, n := range counts {
			if n != 5 {
				t.Fatalf("shard %d saw %d ops, want 5", l, n)
			}
		}
	})
}

func TestObjectDestroyRunsFinalizers(t *testing.T) {
	s := newTestSystem(t, 3)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		o := New(c, em, func(lc *pgas.Ctx, _ int) *testShard {
			return &testShard{builtOn: lc.Here()}
		})
		var finalized atomic.Int64
		o.Destroy(c, func(lc *pgas.Ctx, sh *testShard) {
			if sh.builtOn != lc.Here() {
				t.Errorf("finalizer on %d got shard %d", lc.Here(), sh.builtOn)
			}
			finalized.Add(1)
		})
		if finalized.Load() != 3 {
			t.Fatalf("finalized %d shards, want 3", finalized.Load())
		}
		// The registry recycles the destroyed id.
		o2 := New(c, em, func(lc *pgas.Ctx, _ int) *testShard {
			return &testShard{builtOn: lc.Here()}
		})
		if o2.Local(c).builtOn != 0 {
			t.Fatal("recycled object resolves wrong shard")
		}
	})
}

// A bulk batch's merge key names its (object, owner) pair without
// boxing anything: equal for two batches of one object toward one
// owner — so they concatenate in flight — distinct across owners and
// across objects, and free to build on every enqueue.
func TestBulkOpCombineKey(t *testing.T) {
	s := newTestSystem(t, 2)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		mk := func() Object[testShard] {
			return New(c, em, func(lc *pgas.Ctx, _ int) *testShard { return &testShard{builtOn: lc.Here()} })
		}
		a, b := mk(), mk()
		key := func(o Object[testShard], owner int) comm.CombineKey {
			return (&bulkOp[testShard, int]{obj: o, owner: owner}).CombineKey()
		}
		if key(a, 1) != key(a, 1) {
			t.Fatal("one (object, owner) pair, two keys")
		}
		if key(a, 1) == key(a, 0) || key(a, 1) == key(b, 1) {
			t.Fatalf("keys collide: %+v %+v %+v", key(a, 1), key(a, 0), key(b, 1))
		}
		op := &bulkOp[testShard, int]{obj: a, owner: 1}
		if avg := testing.AllocsPerRun(200, func() { op.CombineKey() }); avg != 0 {
			t.Fatalf("bulkOp.CombineKey allocates %.2f/op", avg)
		}
	})
}
