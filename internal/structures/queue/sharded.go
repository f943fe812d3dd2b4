package queue

import (
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/shared"
)

// Sharded is the owner-sharded, privatized evolution of Queue: one
// independent MS segment per locale, resolved through the shared
// distributed-object framework. A single-home Queue funnels every
// operation from every locale through one head/tail pair — its home's
// column in the comm matrix grows linearly with locale count — whereas
// a Sharded queue's local operations (Enqueue, Dequeue) touch only the
// calling locale's segment and perform zero remote communication.
// FIFO order holds per segment, not globally, which is the usual
// contract of distributed multi-queues (Chapel's DistributedBag makes
// the same trade).
//
// Global views route through the dispatch/aggregation layers:
// TryDequeueAny steals from peers with on-statements, EnqueueBulkOn
// ships a batch to a chosen owner through the aggregation buffers, and
// Drain/Len/Stats are owner-computed reductions.
type Sharded[T any] struct {
	obj shared.Object[segment[T]]
}

// segment is one locale's shard: a single-home queue homed there.
type segment[T any] struct {
	q *Queue[T]
}

// NewSharded creates a queue with one segment per locale, all
// reclaiming through em.
func NewSharded[T any](c *pgas.Ctx, em epoch.EpochManager) Sharded[T] {
	return Sharded[T]{obj: shared.New(c, em, func(lc *pgas.Ctx, shard int) *segment[T] {
		return &segment[T]{q: New[T](lc, shard, em)}
	})}
}

// Manager returns the epoch manager the queue reclaims through.
func (q Sharded[T]) Manager() epoch.EpochManager { return q.obj.Manager() }

// Enqueue appends v to the calling locale's segment. The node, the
// head/tail cells and the epoch pin are all locale-local: zero remote
// communication, at any locale count.
func (q Sharded[T]) Enqueue(c *pgas.Ctx, tok *epoch.Token, v T) {
	q.obj.Local(c).q.Enqueue(c, tok, v)
}

// EnqueueBulk appends vals, in order and contiguously, to the calling
// locale's segment.
func (q Sharded[T]) EnqueueBulk(c *pgas.Ctx, tok *epoch.Token, vals []T) {
	q.obj.Local(c).q.EnqueueBulk(c, tok, vals)
}

// EnqueueBulkOn routes a batch to the segment owned by `owner` through
// the calling task's aggregation buffer: the batch executes on the
// owner (as a locale-local EnqueueBulk under a destination-local
// token) when the buffer flushes — at capacity, or at Ctx.Flush. Use
// it to feed a consumer's locale from a producer elsewhere; no caller
// token is needed. A remote batch is not visible until the flush; a
// batch for the caller's own locale executes inline immediately unless
// the system's AggConfig.Combine is on, when it buffers and merges like
// a remote one.
func (q Sharded[T]) EnqueueBulkOn(c *pgas.Ctx, owner int, vals []T) {
	if len(vals) == 0 {
		return
	}
	batch := append([]T(nil), vals...) // detach from the caller's buffer
	shared.CombineBulkOn(c, q.obj, owner, batch,
		func(lc *pgas.Ctx, s *segment[T], vals []T) {
			q.obj.Protect(lc, func(tok *epoch.Token) {
				s.q.EnqueueBulk(lc, tok, vals)
			})
		})
}

// Dequeue removes the oldest value of the calling locale's segment;
// ok is false when the local segment is empty (other segments may
// still hold work — see TryDequeueAny).
func (q Sharded[T]) Dequeue(c *pgas.Ctx, tok *epoch.Token) (v T, ok bool) {
	return q.obj.Local(c).q.Dequeue(c, tok)
}

// dequeueSeg is the segment pop hook the shared collection helpers
// drive.
func dequeueSeg[T any](lc *pgas.Ctx, tok *epoch.Token, s *segment[T]) (T, bool) {
	return s.q.Dequeue(lc, tok)
}

// TryDequeueAny dequeues from the local segment if it has work, and
// otherwise steals (shared.TryTakeAny): it visits the other segments
// (next locale first, wrapping) with one synchronous on-statement
// each, dequeueing on the victim's locale under a victim-local token.
// It returns the segment the value came from; ok is false only when
// every segment appeared empty.
func (q Sharded[T]) TryDequeueAny(c *pgas.Ctx, tok *epoch.Token) (v T, from int, ok bool) {
	return shared.TryTakeAny(c, q.obj, tok, dequeueSeg[T])
}

// Failover adopts the dead locale's segment after a crash: from a
// salvage context (pgas.Ctx.Salvage — required, the same contract as
// hashmap.Map.Failover) the dead segment drains on its own
// locale and its values re-home onto the surviving locales through the
// bulk framing, in contiguous chunks that preserve the segment's FIFO
// order within each adopter. Steal paths (TryDequeueAny) already skip
// unreachable victims, so adoption is the only road the stranded
// values ride back. Returns the chunks adopted (each booking one
// balanced MigAdopt/MigRetire pair and one KindAdopt span) and payload
// bytes moved; the caller still force-retires the dead locale's epoch
// tokens.
func (q Sharded[T]) Failover(c *pgas.Ctx, dead int) (shards, bytes int64) {
	return shared.FailoverDrain(c, q.obj, dead, dequeueSeg[T],
		func(lc *pgas.Ctx, s *segment[T], vals []T) {
			q.obj.Protect(lc, func(tok *epoch.Token) {
				s.q.EnqueueBulk(lc, tok, vals)
			})
		})
}

// Drain empties every segment and returns the remaining values grouped
// by owning segment (index = locale id; per-segment FIFO order is
// preserved): shared.Drain's cost model — each segment drains on its
// own locale, each non-empty remote batch ships home as one bulk
// transfer.
func (q Sharded[T]) Drain(c *pgas.Ctx) [][]T {
	return shared.Drain(c, q.obj, dequeueSeg[T])
}

// Len approximates the total element count from the segments'
// enqueue/dequeue counters (shared.ApproxSum: one small remote read
// per remote segment, no traversal). Exact when the queue is
// quiescent.
func (q Sharded[T]) Len(c *pgas.Ctx) int {
	return int(shared.ApproxSum(c, q.obj, func(s *segment[T]) int64 {
		st := s.q.Stats()
		return st.Enqueues - st.Dequeues
	}))
}

// Destroy tears the queue down: each segment frees its remaining
// nodes (dummy included) on its own locale, then the privatized
// registry slots are released (recycled by the next structure
// created). The queue must be quiescent; nodes already dequeued were
// retired through the epoch manager — let it clear to reclaim them.
// No task may use any copy of the handle afterwards. Churn scenarios
// rely on this leaving zero gas-heap or registry residue.
func (q Sharded[T]) Destroy(c *pgas.Ctx) {
	q.obj.Destroy(c, func(lc *pgas.Ctx, s *segment[T]) {
		s.q.destroy(lc)
	})
}

// Stats sums the per-segment operation counters (owner-computed: one
// on-statement per remote segment).
func (q Sharded[T]) Stats(c *pgas.Ctx) Stats {
	var total Stats
	for _, st := range shared.Gather(c, q.obj, func(_ *pgas.Ctx, s *segment[T]) Stats {
		return s.q.Stats()
	}) {
		total.Enqueues += st.Enqueues
		total.Dequeues += st.Dequeues
	}
	return total
}
