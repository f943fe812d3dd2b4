package queue

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// EnqueueBulk preserves FIFO order and batch contiguity.
func TestEnqueueBulkOrder(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 1, em)
		tok := em.Register(c)
		defer tok.Unregister(c)

		q.Enqueue(c, tok, -1)
		vals := make([]int, 100)
		for i := range vals {
			vals[i] = i
		}
		q.EnqueueBulk(c, tok, vals)
		q.Enqueue(c, tok, -2)

		want := append(append([]int{-1}, vals...), -2)
		for i, w := range want {
			got, ok := q.Dequeue(c, tok)
			if !ok || got != w {
				t.Fatalf("dequeue %d = %d (ok=%v), want %d", i, got, ok, w)
			}
		}
		if _, ok := q.Dequeue(c, tok); ok {
			t.Fatal("queue not empty after draining")
		}
		if st := q.Stats(); st.Enqueues != 102 || st.Dequeues != 102 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// The bulk path's communication is O(1) in the batch size: one bulk
// transfer for the nodes plus a constant number of CASes, against one
// on-statement per node for the per-op path.
func TestEnqueueBulkCommVolume(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 1, em)
		tok := em.Register(c)
		defer tok.Unregister(c)

		const n = 200
		vals := make([]int, n)

		before := s.Counters().Snapshot()
		q.EnqueueBulk(c, tok, vals)
		d := s.Counters().Snapshot().Sub(before)
		if d.OnStmts != 0 {
			t.Fatalf("bulk enqueue paid %d on-statements, want 0", d.OnStmts)
		}
		if d.BulkXfers != 1 {
			t.Fatalf("bulk enqueue used %d bulk transfers, want 1", d.BulkXfers)
		}
		// Publication: read tail (+validate), read tail.next, link CAS,
		// tail swing — constant, not O(n).
		if d.AMAMOs > 8 {
			t.Fatalf("bulk enqueue paid %d AM atomics, want O(1)", d.AMAMOs)
		}

		before = s.Counters().Snapshot()
		for _, v := range vals {
			q.Enqueue(c, tok, v)
		}
		d = s.Counters().Snapshot().Sub(before)
		if d.OnStmts != n {
			t.Fatalf("per-op enqueue paid %d on-statements, want %d", d.OnStmts, n)
		}
	})
}

// Bulk batches interleave safely with concurrent per-op enqueuers and
// dequeuers; every value comes out exactly once.
func TestEnqueueBulkConcurrent(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 0, em)
		const tasks, batches, batchLen = 4, 10, 25
		c.Coforall(tasks, func(tc *pgas.Ctx, tid int) {
			em.Protect(tc, func(tok *epoch.Token) {
				for b := 0; b < batches; b++ {
					vals := make([]int, batchLen)
					for i := range vals {
						vals[i] = tid*batches*batchLen + b*batchLen + i
					}
					q.EnqueueBulk(tc, tok, vals)
				}
			})
		})
		tok := em.Register(c)
		defer tok.Unregister(c)
		seen := map[int]bool{}
		for {
			v, ok := q.Dequeue(c, tok)
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
		}
		if len(seen) != tasks*batches*batchLen {
			t.Fatalf("drained %d values, want %d", len(seen), tasks*batches*batchLen)
		}
	})
}

// An empty batch is a no-op.
func TestEnqueueBulkEmpty(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 1, Backend: comm.BackendNone})
	defer s.Shutdown()
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 0, em)
		tok := em.Register(c)
		defer tok.Unregister(c)
		q.EnqueueBulk(c, tok, nil)
		if !q.isEmpty(c, tok) {
			t.Fatal("empty bulk enqueue changed the queue")
		}
	})
}
