package stack

import (
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/shared"
)

// Sharded is the owner-sharded, privatized evolution of Stack: one
// independent Treiber segment per locale, resolved through the shared
// distributed-object framework. A single-home Stack serializes every
// locale's pushes and pops on one head cell — the home's column in the
// comm matrix grows linearly with locale count — whereas a Sharded
// stack's local operations touch only the calling locale's segment and
// perform zero remote communication. LIFO order holds per segment, not
// globally (the DistributedBag trade).
//
// Global views route through the dispatch/aggregation layers:
// TryPopAny steals from peers with on-statements, PushBulkOn ships a
// batch to a chosen owner through the aggregation buffers, and
// Drain/Len/Stats are owner-computed reductions.
type Sharded[T any] struct {
	obj shared.Object[segment[T]]
}

// segment is one locale's shard: a single-home stack homed there.
type segment[T any] struct {
	s *Stack[T]
}

// NewSharded creates a stack with one segment per locale, all
// reclaiming through em.
func NewSharded[T any](c *pgas.Ctx, em epoch.EpochManager) Sharded[T] {
	return Sharded[T]{obj: shared.New(c, em, func(lc *pgas.Ctx, shard int) *segment[T] {
		return &segment[T]{s: New[T](lc, shard, em)}
	})}
}

// Manager returns the epoch manager the stack reclaims through.
func (s Sharded[T]) Manager() epoch.EpochManager { return s.obj.Manager() }

// Push adds v to the calling locale's segment. Node, head cell and
// epoch pin are all locale-local: zero remote communication.
func (s Sharded[T]) Push(c *pgas.Ctx, tok *epoch.Token, v T) {
	s.obj.Local(c).s.Push(c, tok, v)
}

// PushBulk pushes vals as one contiguous batch onto the calling
// locale's segment (vals[len-1] on top).
func (s Sharded[T]) PushBulk(c *pgas.Ctx, tok *epoch.Token, vals []T) {
	s.obj.Local(c).s.PushBulk(c, tok, vals)
}

// PushBulkOn routes a batch to the segment owned by `owner` through
// the calling task's aggregation buffer: the batch executes on the
// owner (a locale-local PushBulk under a destination-local token) when
// the buffer flushes — at capacity, or at Ctx.Flush. No caller token
// is needed. A remote batch is not visible until the flush; a batch
// for the caller's own locale executes inline immediately unless the
// system's AggConfig.Combine is on, when it buffers and merges like a
// remote one.
func (s Sharded[T]) PushBulkOn(c *pgas.Ctx, owner int, vals []T) {
	if len(vals) == 0 {
		return
	}
	batch := append([]T(nil), vals...) // detach from the caller's buffer
	shared.CombineBulkOn(c, s.obj, owner, batch,
		func(lc *pgas.Ctx, seg *segment[T], vals []T) {
			s.obj.Protect(lc, func(tok *epoch.Token) {
				seg.s.PushBulk(lc, tok, vals)
			})
		})
}

// Pop removes the most recent value of the calling locale's segment;
// ok is false when the local segment is empty (other segments may
// still hold work — see TryPopAny).
func (s Sharded[T]) Pop(c *pgas.Ctx, tok *epoch.Token) (v T, ok bool) {
	return s.obj.Local(c).s.Pop(c, tok)
}

// popSeg is the segment pop hook the shared collection helpers drive.
func popSeg[T any](lc *pgas.Ctx, tok *epoch.Token, s *segment[T]) (T, bool) {
	return s.s.Pop(lc, tok)
}

// TryPopAny pops from the local segment if it has work, and otherwise
// steals (shared.TryTakeAny): it visits the other segments (next
// locale first, wrapping) with one synchronous on-statement each,
// popping on the victim's locale under a victim-local token. It
// returns the segment the value came from; ok is false only when
// every segment appeared empty.
func (s Sharded[T]) TryPopAny(c *pgas.Ctx, tok *epoch.Token) (v T, from int, ok bool) {
	return shared.TryTakeAny(c, s.obj, tok, popSeg[T])
}

// Failover adopts the dead locale's segment after a crash: from a
// salvage context (pgas.Ctx.Salvage — required, the same contract as
// hashmap.Map.Failover) the dead segment drains on its own
// locale and its values re-home onto the surviving locales through the
// bulk framing, in contiguous chunks. Steal paths (TryPopAny) already
// skip unreachable victims, so adoption is the only road the stranded
// values ride back. Returns the chunks adopted (each booking one
// balanced MigAdopt/MigRetire pair and one KindAdopt span) and payload
// bytes moved; the caller still force-retires the dead locale's epoch
// tokens.
func (s Sharded[T]) Failover(c *pgas.Ctx, dead int) (shards, bytes int64) {
	return shared.FailoverDrain(c, s.obj, dead, popSeg[T],
		func(lc *pgas.Ctx, seg *segment[T], vals []T) {
			s.obj.Protect(lc, func(tok *epoch.Token) {
				seg.s.PushBulk(lc, tok, vals)
			})
		})
}

// Drain empties every segment and returns the remaining values grouped
// by owning segment (index = locale id; per-segment LIFO order):
// shared.Drain's cost model — each segment drains on its own locale,
// each non-empty remote batch ships home as one bulk transfer.
func (s Sharded[T]) Drain(c *pgas.Ctx) [][]T {
	return shared.Drain(c, s.obj, popSeg[T])
}

// Len approximates the total element count from the segments' push/pop
// counters (shared.ApproxSum: one small remote read per remote
// segment, no traversal). Exact when the stack is quiescent.
func (s Sharded[T]) Len(c *pgas.Ctx) int {
	return int(shared.ApproxSum(c, s.obj, func(seg *segment[T]) int64 {
		st := seg.s.Stats()
		return st.Pushes - st.Pops
	}))
}

// Destroy tears the stack down: each segment frees its remaining
// nodes on their owning locales, then the privatized registry slots
// are released (recycled by the next structure created). The stack
// must be quiescent; nodes already popped were retired through the
// epoch manager — let it clear to reclaim them. No task may use any
// copy of the handle afterwards. Churn scenarios rely on this leaving
// zero gas-heap or registry residue.
func (s Sharded[T]) Destroy(c *pgas.Ctx) {
	s.obj.Destroy(c, func(lc *pgas.Ctx, seg *segment[T]) {
		seg.s.destroy(lc)
	})
}

// Stats sums the per-segment operation counters (owner-computed: one
// on-statement per remote segment).
func (s Sharded[T]) Stats(c *pgas.Ctx) Stats {
	var total Stats
	for _, st := range shared.Gather(c, s.obj, func(_ *pgas.Ctx, seg *segment[T]) Stats {
		return seg.s.Stats()
	}) {
		total.Pushes += st.Pushes
		total.Pops += st.Pops
		total.Empty += st.Empty
	}
	return total
}
