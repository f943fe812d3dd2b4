package pgas

import (
	"reflect"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

func newAggTestSystem(t *testing.T, locales int) *System {
	t.Helper()
	s := NewSystem(Config{Locales: locales, Backend: comm.BackendNone})
	t.Cleanup(s.Shutdown)
	return s
}

// The acceptance-criteria test: 1000 remote calls to one destination
// through the aggregator cost O(flushes) bulk transfers — four at the
// default capacity of 256 — where the direct path costs 1000 round
// trips. No on-statements, no per-op AMs.
func TestThousandOpsFewFlushes(t *testing.T) {
	s := newAggTestSystem(t, 2)
	s.Run(func(c *Ctx) {
		var ran atomic.Int64
		before := s.Counters().Snapshot()
		buf := c.Aggregator(1)
		for i := 0; i < 1000; i++ {
			buf.Call(func(tc *Ctx) {
				if tc.Here() == 1 {
					ran.Add(1)
				}
			})
		}
		c.Flush()
		d := s.Counters().Snapshot().Sub(before)

		if d.AggOps != 1000 {
			t.Fatalf("AggOps = %d, want 1000", d.AggOps)
		}
		if d.AggFlushes != 4 || d.BulkXfers != 4 {
			t.Fatalf("1000 ops shipped in %d flushes / %d bulk transfers, want 4 (%v)",
				d.AggFlushes, d.BulkXfers, d)
		}
		if d.OnStmts != 0 || d.AMAMOs != 0 || d.Puts != 0 || d.Gets != 0 {
			t.Fatalf("aggregated path leaked per-op round trips: %v", d)
		}
		if got := ran.Load(); got != 1000 {
			t.Fatalf("%d calls ran on locale 1, want 1000", got)
		}
	})
}

// The same workload routed directly pays one round trip per op —
// the contrast the ablation sweep measures.
func TestDirectPathPaysPerOp(t *testing.T) {
	s := newAggTestSystem(t, 2)
	s.Run(func(c *Ctx) {
		addrs := make([]gas.Addr, 100)
		for i := range addrs {
			addrs[i] = c.AllocOn(1, &struct{ v int }{i})
		}
		before := s.Counters().Snapshot()
		for _, a := range addrs {
			c.Free(a)
		}
		d := s.Counters().Snapshot().Sub(before)
		if d.OnStmts != 100 {
			t.Fatalf("direct frees cost %d on-statements, want 100", d.OnStmts)
		}
	})
}

// Drain-then-assert: buffered operations are never lost. Many tasks
// buffer atomic adds to words on every locale, flush in their
// epilogues, and the main task verifies every single increment landed.
// Run under -race this also proves the flush/quiesce path is sound.
func TestFlushLosesNothing(t *testing.T) {
	const locales, tasks, opsPerTask = 4, 8, 500
	s := newAggTestSystem(t, locales)
	s.Run(func(c *Ctx) {
		words := make([]*Word64, locales)
		for l := range words {
			words[l] = NewWord64(c, l, 0)
		}
		c.CoforallLocales(func(lc *Ctx) {
			lc.Coforall(tasks, func(tc *Ctx, tid int) {
				for i := 0; i < opsPerTask; i++ {
					dst := (tc.Here() + i) % locales
					tc.Aggregator(dst).Add(words[dst], 1)
				}
				tc.Flush() // the coforall epilogue drain
			})
		})
		var total uint64
		for _, w := range words {
			total += w.Read(c)
		}
		if want := uint64(locales * tasks * opsPerTask); total != want {
			t.Fatalf("drained total = %d, want %d (ops lost)", total, want)
		}
	})
}

// Aggregated operations destined for the task's own locale execute
// inline with zero communication, like an elided `on here` — all of
// them while the Combine policy is off (the system here), the
// unmergeable ones always (TestOwnLocaleCombinableOpsBuffer).
func TestLocalOpsExecuteInline(t *testing.T) {
	s := newAggTestSystem(t, 2)
	s.Run(func(c *Ctx) {
		w := NewWord64(c, 0, 0)
		before := s.Counters().Snapshot()
		buf := c.Aggregator(0)
		buf.Add(w, 5)
		ran := false
		buf.Call(func(*Ctx) { ran = true })
		d := s.Counters().Snapshot().Sub(before)
		if w.v.Load() != 5 {
			t.Fatal("local aggregated Add did not execute inline")
		}
		if !ran {
			t.Fatal("local aggregated Call did not execute inline")
		}
		if buf.Pending() != 0 || c.PendingOps() != 0 {
			t.Fatalf("local ops buffered: pending=%d", buf.Pending())
		}
		if d.Remote() != 0 || d.AggFlushes != 0 {
			t.Fatalf("local aggregation communicated: %v", d)
		}
	})
}

// Under the Combine policy a mergeable op toward the task's own locale
// buffers and merges like one toward any other: it lands at flush, on
// the task's own Ctx, and the flush is booked as a flush and as nothing
// else — no transfer, no matrix cell. Call still runs inline.
func TestOwnLocaleCombinableOpsBuffer(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, Agg: comm.AggConfig{Combine: true}})
	defer s.Shutdown()
	s.Run(func(c *Ctx) {
		w, x := NewWord64(c, 0, 0), NewWord64(c, 0, 1)
		before, beforeM := s.Counters().Snapshot(), s.Matrix().Snapshot()
		buf := c.Aggregator(0)
		for i := 1; i <= 5; i++ {
			buf.Add(w, uint64(i))
		}
		for i := 2; i <= 4; i++ {
			buf.Add(x, uint64(i))
		}
		ran := false
		buf.Call(func(tc *Ctx) { ran = tc == c })
		if !ran {
			t.Fatal("own-locale Call did not run inline on the task's Ctx")
		}
		if w.v.Load() != 0 || x.v.Load() != 1 {
			t.Fatalf("before flush: words %d and %d; want 0 and 1, both writes still buffered", w.v.Load(), x.v.Load())
		}
		if buf.Pending() != 2 || c.PendingOps() != 2 {
			t.Fatalf("before flush: %d ops buffered (%d on the task), want the 2 the writes merged into", buf.Pending(), c.PendingOps())
		}
		want := comm.Snapshot{AggOpsEnq: 8, AggCombined: 6}
		if d := s.Counters().Snapshot().Sub(before); d != want {
			t.Fatalf("before flush: counters %+v, want %+v", d, want)
		}
		c.Flush()
		if w.v.Load() != 15 || x.v.Load() != 10 {
			t.Fatalf("after flush: words %d and %d; want the sums 15 and 10", w.v.Load(), x.v.Load())
		}
		// One flush of two ops; each merged add is one local atomic.
		want = comm.Snapshot{AggOpsEnq: 8, AggCombined: 6, AggOps: 2, AggFlushes: 1, AggBytes: 2 * aggAddBytes, LocalAMOs: 2}
		d := s.Counters().Snapshot().Sub(before)
		if d != want || d.Remote() != 0 || c.PendingOps() != 0 {
			t.Fatalf("after flush: counters %+v (remote %d, pending %d), want %+v", d, d.Remote(), c.PendingOps(), want)
		}
		if m := s.Matrix().Snapshot(); !reflect.DeepEqual(m, beforeM) {
			t.Fatalf("own-locale flush moved the matrix: %v -> %v", beforeM, m)
		}
	})
}

// Buffered ops execute on their destination in enqueue order.
func TestAggregatedCallOrderAndLocale(t *testing.T) {
	s := newAggTestSystem(t, 3)
	s.Run(func(c *Ctx) {
		var order []int
		buf := c.Aggregator(2)
		for i := 0; i < 10; i++ {
			i := i
			buf.Call(func(tc *Ctx) {
				if tc.Here() != 2 {
					t.Errorf("op ran on locale %d, want 2", tc.Here())
				}
				order = append(order, i)
			})
		}
		c.Flush()
		for i, got := range order {
			if got != i {
				t.Fatalf("order = %v", order)
			}
		}
		if len(order) != 10 {
			t.Fatalf("executed %d ops, want 10", len(order))
		}
	})
}

// AsyncOn is fire-and-forget; Flush provides the join. The async task
// runs with a Ctx pinned to its target.
func TestAsyncOnQuiescence(t *testing.T) {
	const n = 200
	s := newAggTestSystem(t, 4)
	s.Run(func(c *Ctx) {
		var ran atomic.Int64
		var wrongLocale atomic.Int64
		before := s.Counters().Snapshot()
		for i := 0; i < n; i++ {
			target := 1 + i%3
			c.AsyncOn(target, func(tc *Ctx) {
				if tc.Here() != target {
					wrongLocale.Add(1)
				}
				ran.Add(1)
			})
		}
		c.Flush()
		if got := ran.Load(); got != n {
			t.Fatalf("after Flush %d/%d async ops ran", got, n)
		}
		if wrongLocale.Load() != 0 {
			t.Fatal("async op observed the wrong locale")
		}
		if s.AsyncPending() != 0 {
			t.Fatalf("AsyncPending = %d after Flush", s.AsyncPending())
		}
		d := s.Counters().Snapshot().Sub(before)
		if d.OnStmts != n {
			t.Fatalf("async on-statements counted %d, want %d", d.OnStmts, n)
		}
	})
}

// Quiesce covers transitively spawned async work: an async task that
// itself calls AsyncOn is fully drained before Flush returns.
func TestAsyncOnNested(t *testing.T) {
	s := newAggTestSystem(t, 2)
	s.Run(func(c *Ctx) {
		var leaf atomic.Int64
		for i := 0; i < 50; i++ {
			c.AsyncOn(1, func(tc *Ctx) {
				tc.AsyncOn(0, func(*Ctx) { leaf.Add(1) })
			})
		}
		c.Flush()
		if got := leaf.Load(); got != 50 {
			t.Fatalf("nested async ops ran %d/50", got)
		}
	})
}

// Flush called from inside an AsyncOn task must not self-deadlock:
// it drains the task's buffers synchronously (skipping the global
// quiescence wait, which includes the caller itself) so async tasks
// can use the buffered APIs — including Map.InsertBulk-style helpers
// that flush internally.
func TestFlushInsideAsyncTask(t *testing.T) {
	s := newAggTestSystem(t, 3)
	s.Run(func(c *Ctx) {
		w := NewWord64(c, 2, 0)
		const tasks, ops = 4, 100
		for i := 0; i < tasks; i++ {
			c.AsyncOn(1, func(tc *Ctx) {
				buf := tc.Aggregator(2)
				for j := 0; j < ops; j++ {
					buf.Add(w, 1)
				}
				tc.Flush() // would spin forever if it waited on itself
			})
		}
		c.Flush() // the launcher's join
		if got := w.Read(c); got != tasks*ops {
			t.Fatalf("w = %d, want %d", got, tasks*ops)
		}
	})
}

// A body running on a runtime-owned Ctx cannot flush after its last
// enqueue — the Ctx is the runtime's, recycled or dropped the moment
// the body returns — so the runtime drains it: an op the body buffered
// toward a third locale lands before the enclosing call (or, for an
// async task, the launcher's Quiesce) returns.
func TestRuntimeCtxDrainsBuffers(t *testing.T) {
	enqueue := func(landed *atomic.Int64) func(*Ctx) {
		return func(tc *Ctx) {
			tc.Aggregator(2).Call(func(lc *Ctx) {
				if lc.Here() == 2 {
					landed.Add(1)
				}
			})
		}
	}
	cases := []struct {
		name string
		run  func(s *System, c *Ctx, body func(*Ctx))
	}{
		{"sync on-statement body", func(_ *System, c *Ctx, body func(*Ctx)) {
			c.On(1, body)
		}},
		{"aggregated delivery", func(_ *System, c *Ctx, body func(*Ctx)) {
			buf := c.Aggregator(1)
			buf.Call(body)
			buf.Flush()
		}},
		{"AsyncOn task", func(s *System, c *Ctx, body func(*Ctx)) {
			c.AsyncOn(1, body)
			s.Quiesce()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newAggTestSystem(t, 3)
			s.Run(func(c *Ctx) {
				var landed atomic.Int64
				tc.run(s, c, enqueue(&landed))
				if got := landed.Load(); got != 1 {
					t.Fatalf("op buffered on the runtime's Ctx landed %d times, want 1", got)
				}
			})
		})
	}
}

// Aggregated adds stay coherent with direct Word64 operations under
// the ugni backend: the flushed add executes as a NIC atomic on the
// owner, not an incoherent CPU atomic.
func TestAggregatedAddCoherentUnderUGNI(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendUGNI})
	defer s.Shutdown()
	s.Run(func(c *Ctx) {
		w := NewWord64(c, 1, 0)
		buf := c.Aggregator(1)
		for i := 0; i < 10; i++ {
			buf.Add(w, 1)
		}
		before := s.Counters().Snapshot()
		c.Flush()
		d := s.Counters().Snapshot().Sub(before)
		if d.NICAMOs != 10 {
			t.Fatalf("flushed adds executed %d NIC atomics, want 10 (%v)", d.NICAMOs, d)
		}
		w.Add(c, 1) // direct op on the same word stays coherent
		if got := w.Read(c); got != 11 {
			t.Fatalf("w = %d, want 11", got)
		}
	})
}

// A capacity-1 configuration degenerates to per-op flushing — the
// knob the ablation uses to interpolate between regimes.
func TestAggCapacityConfig(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone,
		Agg: comm.AggConfig{Capacity: 1}})
	defer s.Shutdown()
	s.Run(func(c *Ctx) {
		w := NewWord64(c, 1, 0)
		before := s.Counters().Snapshot()
		buf := c.Aggregator(1)
		for i := 0; i < 10; i++ {
			buf.Add(w, 1)
		}
		d := s.Counters().Snapshot().Sub(before)
		if d.AggFlushes != 10 {
			t.Fatalf("capacity-1 flushed %d times, want 10", d.AggFlushes)
		}
	})
}
