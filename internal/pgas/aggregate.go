package pgas

import (
	"fmt"

	"gopgas/internal/comm"
)

// Per-task aggregation buffers: the pgas face of comm.Aggregator.
// A task obtains a destination view with Ctx.Aggregator(dst), buffers
// small remote operations into it (Call, CallSized, Add), and drains
// everything with Ctx.Flush. Buffered operations execute on their
// destination in enqueue order when the buffer flushes — either
// explicitly, or automatically when it reaches the configured
// capacity. One flush costs one bulk transfer instead of one round
// trip per operation, and at the destination one loop (deliver) hands
// each run of one structure's combinable calls over in one call.
//
// Callers aggregate uniformly without special-casing locality. Toward
// the task's own locale, Call and CallSized execute inline immediately
// (as `on here` is elided): nothing about them can merge, so buffering
// would only defer. Mergeable operations (CallCombinable, and Add,
// which rides it) do the same while the system's
// AggConfig.Combine is off; with it on they buffer toward the own locale
// like toward any other, because what absorption saves is the owner-side
// work of the writes that never apply, and that costs the same whichever
// locale issued them. The own-locale buffer flushes on the same triggers
// and executes on the task's own Ctx; only the transfer is elided.

// Modelled payload sizes, in bytes, of the buffered operation kinds.
// They keep BulkBytes meaningful: each ships an address/handle plus one
// word of argument.
const (
	aggCallBytes = 16
	aggAddBytes  = 16
)

// newAggregator builds c's per-destination remote-op buffers. Like the
// Ctx itself, they must not be shared between goroutines.
func newAggregator(c *Ctx) *comm.Aggregator {
	s := c.sys
	a := comm.NewAggregator(c.here.id, len(s.locales), s.cfg.Agg,
		s.counters, s.matrix, s.cfg.Latency,
		func(dst int, batch []comm.Op) {
			// The task's own locale: no wire, so nothing to admit and
			// no context to borrow — the batch runs where an inline
			// local call would have.
			if dst == c.here.id {
				deliver(c, nil, batch)
				return
			}
			// The batch executes on the destination, as if the flush
			// were one on-statement carrying the whole batch.
			// The destination context is scoped to the batch, so it
			// comes from the same pool the sync dispatch path uses.
			// It counts as running there from before deliver admits
			// its first op (enter's ordering) until its last one ran.
			l := s.locales[dst]
			l.running.Add(1)
			tc := s.borrowCtx(l, c)
			deliver(tc, c, batch)
			s.releaseCtx(tc)
			l.running.Add(-1)
		})
	a.SetDelay(func(dst int, ns int64) { s.delay(c, c.here.id, dst, ns) })
	a.SetTracer(s.tracer, c.taskID)
	return a
}

// AggBuffer is a destination-locale view of a task's aggregation
// buffers — the handle Ctx.Aggregator returns. It is a small value;
// copy freely within the owning task.
type AggBuffer struct {
	c   *Ctx
	dst int
}

// Aggregator returns this task's aggregation buffer for the given
// destination locale, creating the task's buffers on first use.
// Buffered operations are shipped by Flush (on the buffer or the Ctx)
// or automatically at capacity per the system's comm.AggConfig.
func (c *Ctx) Aggregator(dst int) AggBuffer {
	if dst < 0 || dst >= len(c.sys.locales) {
		panic(fmt.Sprintf("pgas: Aggregator locale %d out of range [0, %d)", dst, len(c.sys.locales)))
	}
	if c.agg == nil {
		c.agg = newAggregator(c)
	}
	return AggBuffer{c: c, dst: dst}
}

// Pending returns the number of operations currently buffered for this
// destination.
func (b AggBuffer) Pending() int { return b.c.agg.PendingTo(b.dst) }

// Flush ships this destination's buffer now (one bulk transfer) and
// returns once the batch has executed. Other destinations' buffers are
// untouched; use Ctx.Flush to drain everything.
func (b AggBuffer) Flush() { b.c.agg.FlushDst(b.dst) }

// enqueue buffers fn, or runs it inline for a local destination.
func (b AggBuffer) enqueue(bytes int64, fn func(*Ctx)) {
	if b.dst == b.c.here.id {
		fn(b.c)
		return
	}
	b.c.agg.Enqueue(b.dst, comm.Op{Bytes: bytes, Exec: fn})
}

// CombinableCall is the mergeable form of an aggregated operation: a
// comm.CombinableOp that also knows how to execute on its destination.
// When the system's AggConfig.Combine policy is on, buffered calls
// with equal merge keys are folded together before the wire (see
// comm.CombinableOp for the ordering contract); with the policy off
// they ship one-for-one, exactly like Call.
//
// Exec runs one call; a delivered batch hands each maximal run of
// consecutive admitted calls of one structure (equal CombineKey Kind
// and Ref) to its first call's ExecRun, run holding them all in order.
type CombinableCall interface {
	comm.CombinableOp
	Exec(c *Ctx)
	ExecRun(c *Ctx, run []comm.Op)
}

// deliver runs a batch on tc, its destination's context, in enqueue
// order: the one loop of the own-locale flush, the remote delivery and
// the parked redelivery. From a source task src (remote delivery only)
// each op is admitted on its own against the live fault plan; a refused
// one is already parked or booked lost, and ends the run before it.
func deliver(tc, src *Ctx, batch []comm.Op) {
	var head CombinableCall // first call of the pending run batch[from:i]
	from := 0
	for i, op := range batch {
		admitted := src == nil || tc.sys.admit(src, tc.here.id, op)
		cc, _ := op.Exec.(CombinableCall)
		if head != nil && admitted && cc != nil {
			if k, hk := cc.CombineKey(), head.CombineKey(); k.Kind == hk.Kind && k.Ref == hk.Ref {
				continue
			}
		}
		if head != nil {
			head.ExecRun(tc, batch[from:i])
			head = nil
		}
		switch {
		case !admitted:
		case cc != nil:
			head, from = cc, i
		default:
			op.Exec.(func(*Ctx))(tc)
		}
	}
	if head != nil {
		head.ExecRun(tc, batch[from:])
	}
}

// CallCombinable buffers op for deferred execution on the destination
// locale, exposing its merge surface to the aggregator. bytes is the
// modelled wire size (clamped up to the plain Call size). With the
// Combine policy off a local destination executes inline immediately,
// mirroring Call: nothing can merge. With it on the op is buffered
// whatever the destination, so a hot key's writes absorb on the locale
// that owns it too; the task's own later reads see the write once the
// buffer has flushed, as they do for every other destination.
func (b AggBuffer) CallCombinable(bytes int64, op CombinableCall) {
	if bytes < aggCallBytes {
		bytes = aggCallBytes
	}
	if b.dst == b.c.here.id && !b.c.sys.cfg.Agg.Combine {
		op.Exec(b.c)
		return
	}
	b.c.agg.Enqueue(b.dst, comm.Op{Bytes: bytes, Exec: op})
}

// Buffered returns the combinable call this task already holds in its
// buffer for the destination under key, so the caller can merge a later
// write into it before building anything (see comm.Aggregator.Buffered
// for what a hit books). It returns nil on a miss and with the Combine
// policy off; the task's own locale is a destination like any other.
func (b AggBuffer) Buffered(key comm.CombineKey) comm.CombinableOp {
	return b.c.agg.Buffered(b.dst, key)
}

// addOp is the mergeable payload behind AggBuffer.Add: deltas against
// one word sum in-buffer (addition commutes, so folding N adds into
// one preserves the final value and every concurrent interleaving).
type addOp struct {
	w     *Word64
	delta uint64
}

func (o *addOp) CombineKey() comm.CombineKey {
	return comm.CombineKey{Kind: combineKindAdd, Ref: o.w}
}

func (o *addOp) Absorb(later comm.CombinableOp) (int64, bool) {
	o.delta += later.(*addOp).delta
	return 0, true
}

func (o *addOp) Exec(tc *Ctx) {
	o.w.Add(tc, o.delta)
}

func (o *addOp) ExecRun(tc *Ctx, run []comm.Op) {
	for _, op := range run {
		op.Exec.(*addOp).Exec(tc)
	}
}

// Merge-key kind namespace for the pgas layer's own combinable ops.
// Structure layers define their own kinds; keys never collide across
// kinds regardless of the Ref/K values.
const combineKindAdd uint8 = 1

// Call buffers fn for deferred execution on the destination locale —
// a batched on-statement. fn receives a Ctx pinned to the destination
// and runs there in enqueue order when the buffer flushes; it must be
// self-contained (results are communicated through memory the caller
// inspects after Flush).
func (b AggBuffer) Call(fn func(ctx *Ctx)) {
	b.enqueue(aggCallBytes, fn)
}

// CallSized is Call for operations that carry a payload: bytes is the
// modelled wire size of everything fn ships (clamped up to the plain
// Call size), so a buffered batch of n values charges its real volume
// in AggBytes/BulkBytes instead of one op's worth. Callers moving
// value slices (e.g. the sharded structures' bulk routing) must use
// this, or the counter evidence undercounts by the batch length.
func (b AggBuffer) CallSized(bytes int64, fn func(ctx *Ctx)) {
	if bytes < aggCallBytes {
		bytes = aggCallBytes
	}
	b.enqueue(bytes, fn)
}

// Add buffers a fire-and-forget atomic add on w, which must be homed
// on the destination. At flush the add executes as a *locale-local*
// operation on the owner — the batch already paid the network cost —
// so N remote increments cost one bulk transfer instead of N AMO
// round trips. The local execution still routes through the backend
// (a processor atomic under none; a NIC atomic under ugni, where NIC
// and CPU atomics are incoherent and mixing them would be unsound),
// so aggregated and direct operations on one word stay coherent.
// Use the synchronous Word64.Add when the returned value matters.
func (b AggBuffer) Add(w *Word64, delta uint64) {
	if w.Home() != b.dst {
		panic(fmt.Sprintf("pgas: aggregated Add on word homed on %d into buffer for locale %d", w.Home(), b.dst))
	}
	b.CallCombinable(aggAddBytes, &addOp{w: w, delta: delta})
}

// Flush drains every aggregation buffer this task has filled (one bulk
// transfer per non-empty destination) and then waits for system-wide
// quiescence of asynchronous operations. After Flush returns, every
// operation this task buffered or launched asynchronously has taken
// effect — the guarantee coforall epilogues rely on to drain before
// joining.
//
// Buffer draining is synchronous and complete regardless of caller.
// The quiescence wait, however, is skipped when the calling task was
// itself launched by AsyncOn: such a task is counted in the in-flight
// set Quiesce waits on, so a self-inclusive wait could never return
// (and two async tasks flushing would deadlock on each other).
// Quiescence over async work is the launcher's join, not the async
// task's.
func (c *Ctx) Flush() {
	c.drainBuffers()
	if !c.isAsync {
		c.sys.Quiesce()
	}
}

// drainBuffers ships everything in c's aggregation buffers and waits
// for nothing else: the buffer half of Flush, and all the runtime runs
// on a Ctx it owns — borrowed for an on-statement body, an aggregated
// delivery or a parked redelivery, or created for an AsyncOn task —
// when the body returns. Without that an owner-side enqueue (a cache
// invalidation issued from inside a delivered write) would vanish with
// the Ctx. No quiesce there: the enclosing flush or Quiesce is the
// join, and a delivery that waited for system quiescence from inside a
// flush could wait on itself.
func (c *Ctx) drainBuffers() {
	if c.agg != nil {
		c.agg.Flush()
	}
}

// PendingOps returns the total number of operations buffered by this
// task across all destinations (diagnostic).
func (c *Ctx) PendingOps() int {
	if c.agg == nil {
		return 0
	}
	return c.agg.Pending()
}
