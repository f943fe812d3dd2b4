package workload

import (
	"fmt"
	"time"

	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/hashmap"
	"gopgas/internal/structures/queue"
	"gopgas/internal/structures/rebalance"
	"gopgas/internal/structures/skiplist"
	"gopgas/internal/structures/stack"
)

// Driver binds the abstract scenario vocabulary to one structure. A
// driver is created once per run; Setup/Destroy bracket each churn
// round. Apply and ApplyBulk are called concurrently from many tasks
// and must only touch the structure through its own concurrent API.
type Driver interface {
	// Supports reports whether the structure implements the kind;
	// Spec.Validate rejects mixes that weight unsupported kinds.
	Supports(k OpKind) bool
	// Setup creates the structure on the system (called on locale 0).
	Setup(c *pgas.Ctx, em epoch.EpochManager, spec Spec)
	// Apply executes one keyed op under the task's token.
	Apply(c *pgas.Ctx, tok *epoch.Token, kind OpKind, key uint64)
	// ApplyBulk routes a batch of keys toward `owner` (structures with
	// their own routing, like the hashmap, may ignore it).
	ApplyBulk(c *pgas.Ctx, owner int, keys []uint64)
	// Destroy tears the structure down (quiescent; locale 0).
	Destroy(c *pgas.Ctx)
}

// Ticker is an optional Driver extension: a periodic control loop the
// engine's round clock steps beside each round's workers. TickInterval
// returning 0 disables the loop for this run. Tick is called from
// exactly one goroutine, never during Setup or Destroy; it may
// communicate (the context is the clock's for the round).
type Ticker interface {
	TickInterval() time.Duration
	Tick(c *pgas.Ctx)
}

// FailoverHandler is an optional Driver extension: adopt every shard
// the dead locale owns onto the survivors. The engine calls it from a
// salvage context right after marking the locale down (and before
// force-retiring its epoch tokens); it returns the shards adopted and
// the payload bytes moved. A driver that cannot fail over returns
// (0, 0), which the availability verdict records as not recovered.
type FailoverHandler interface {
	Failover(c *pgas.Ctx, dead int) (shards, bytes int64)
}

// NewDriver returns the driver for a structure.
func NewDriver(s Structure) (Driver, error) {
	switch s {
	case StructureHashmap:
		return &hashmapDriver{}, nil
	case StructureQueue:
		return &queueDriver{}, nil
	case StructureStack:
		return &stackDriver{}, nil
	case StructureSkiplist:
		return &skiplistDriver{}, nil
	default:
		return nil, fmt.Errorf("workload: unknown structure %q (want one of %v)", s, Structures())
	}
}

// hashmapDriver drives hashmap.Map: keyed inserts/gets/removes plus
// InsertBulk, which routes pairs to their bucket owners through the
// aggregation buffers. There is one map handle whatever the spec turns
// on. The cache attaches per-locale read replicas to it, invalidated
// by every write on whichever locale applies it. Combining, rebalancing
// and a scheduled crash failover each switch Insert/Remove from the
// synchronous path to the fire-and-forget UpsertAgg/RemoveAgg — the
// writes that absorb in flight per the combine policy, apply under the
// owner's flat combiner, and carry the owner-table generation that
// lets them survive ownership changing under live traffic. With
// rebalancing the driver additionally exposes a Ticker control loop
// stepping a rebalance.Controller that migrates hot buckets off
// overloaded locales mid-phase.
type hashmapDriver struct {
	m        hashmap.Map[int64]
	ctrl     *rebalance.Controller // nil unless the spec rebalances
	agg      bool                  // fire-and-forget writes
	interval time.Duration
}

func (d *hashmapDriver) Supports(k OpKind) bool {
	switch k {
	case OpInsert, OpGet, OpRemove, OpBulk:
		return true
	}
	return false
}

func (d *hashmapDriver) Setup(c *pgas.Ctx, em epoch.EpochManager, spec Spec) {
	d.m = hashmap.New[int64](c, spec.Buckets, em)
	if spec.Cache != nil && spec.Cache.Enabled {
		d.m = d.m.Cached(c, spec.Cache.Slots)
	}
	rb := spec.Rebalance
	rebalanced := rb != nil && rb.Enabled
	d.agg = rebalanced || spec.hasFailover() || (spec.Combine != nil && spec.Combine.Enabled)
	if rebalanced {
		d.ctrl = rebalance.NewController(c, d.m, rebalance.Config{
			Ratio:    rb.Ratio,
			MaxMoves: rb.MaxMoves,
			Cooldown: rb.Cooldown,
		})
		d.interval = time.Duration(rb.IntervalMS) * time.Millisecond
	}
}

// TickInterval exposes the rebalance controller's window length; 0
// (no control loop) unless the spec enabled rebalancing.
func (d *hashmapDriver) TickInterval() time.Duration { return d.interval }

// Tick judges one rebalancing window.
func (d *hashmapDriver) Tick(c *pgas.Ctx) { d.ctrl.Step(c) }

// Failover adopts every bucket the dead locale owns onto the alive
// locales through the epoch-coherent migration path.
func (d *hashmapDriver) Failover(c *pgas.Ctx, dead int) (shards, bytes int64) {
	return d.m.Failover(c, dead)
}

func (d *hashmapDriver) Apply(c *pgas.Ctx, tok *epoch.Token, kind OpKind, key uint64) {
	switch kind {
	case OpGet:
		d.m.Get(c, tok, key)
	case OpInsert:
		if d.agg {
			d.m.UpsertAgg(c, key, int64(key))
		} else {
			d.m.Upsert(c, tok, key, int64(key))
		}
	case OpRemove:
		if d.agg {
			d.m.RemoveAgg(c, key)
		} else {
			d.m.Remove(c, tok, key)
		}
	}
}

func (d *hashmapDriver) ApplyBulk(c *pgas.Ctx, _ int, keys []uint64) {
	pairs := make([]hashmap.KV[int64], len(keys))
	for i, k := range keys {
		pairs[i] = hashmap.KV[int64]{K: k, V: int64(k)}
	}
	d.m.InsertBulk(c, pairs)
}

func (d *hashmapDriver) Destroy(c *pgas.Ctx) { d.m.Destroy(c) }

// queueDriver drives queue.Sharded: enqueue/dequeue on the calling
// locale's segment, work-stealing dequeues, and bulk enqueues routed
// toward a drawn owner.
type queueDriver struct {
	q queue.Sharded[int64]
}

func (d *queueDriver) Supports(k OpKind) bool {
	switch k {
	case OpEnqueue, OpRemove, OpSteal, OpBulk:
		return true
	}
	return false
}

func (d *queueDriver) Setup(c *pgas.Ctx, em epoch.EpochManager, spec Spec) {
	d.q = queue.NewSharded[int64](c, em)
}

func (d *queueDriver) Apply(c *pgas.Ctx, tok *epoch.Token, kind OpKind, key uint64) {
	switch kind {
	case OpEnqueue:
		d.q.Enqueue(c, tok, int64(key))
	case OpRemove:
		d.q.Dequeue(c, tok)
	case OpSteal:
		d.q.TryDequeueAny(c, tok)
	}
}

func (d *queueDriver) ApplyBulk(c *pgas.Ctx, owner int, keys []uint64) {
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = int64(k)
	}
	d.q.EnqueueBulkOn(c, owner, vals)
}

// Failover adopts the dead locale's segment onto the survivors through
// the shared bulk-drain path (salvage context; the engine follows with
// token force-retirement).
func (d *queueDriver) Failover(c *pgas.Ctx, dead int) (shards, bytes int64) {
	return d.q.Failover(c, dead)
}

func (d *queueDriver) Destroy(c *pgas.Ctx) { d.q.Destroy(c) }

// stackDriver drives stack.Sharded, mirroring queueDriver (Enqueue is
// push, Remove is pop).
type stackDriver struct {
	s stack.Sharded[int64]
}

func (d *stackDriver) Supports(k OpKind) bool {
	switch k {
	case OpEnqueue, OpRemove, OpSteal, OpBulk:
		return true
	}
	return false
}

func (d *stackDriver) Setup(c *pgas.Ctx, em epoch.EpochManager, spec Spec) {
	d.s = stack.NewSharded[int64](c, em)
}

func (d *stackDriver) Apply(c *pgas.Ctx, tok *epoch.Token, kind OpKind, key uint64) {
	switch kind {
	case OpEnqueue:
		d.s.Push(c, tok, int64(key))
	case OpRemove:
		d.s.Pop(c, tok)
	case OpSteal:
		d.s.TryPopAny(c, tok)
	}
}

func (d *stackDriver) ApplyBulk(c *pgas.Ctx, owner int, keys []uint64) {
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = int64(k)
	}
	d.s.PushBulkOn(c, owner, vals)
}

// Failover adopts the dead locale's segment onto the survivors,
// mirroring the queue driver.
func (d *stackDriver) Failover(c *pgas.Ctx, dead int) (shards, bytes int64) {
	return d.s.Failover(c, dead)
}

func (d *stackDriver) Destroy(c *pgas.Ctx) { d.s.Destroy(c) }

// skiplistDriver drives skiplist.List, a single-home structure: every
// op communicates with the home locale, the deliberate hotspot
// counterpart to the sharded targets.
type skiplistDriver struct {
	l *skiplist.List[int64]
}

func (d *skiplistDriver) Supports(k OpKind) bool {
	switch k {
	case OpInsert, OpGet, OpRemove:
		return true
	}
	return false
}

func (d *skiplistDriver) Setup(c *pgas.Ctx, em epoch.EpochManager, spec Spec) {
	d.l = skiplist.New[int64](c, spec.Home, em)
}

func (d *skiplistDriver) Apply(c *pgas.Ctx, tok *epoch.Token, kind OpKind, key uint64) {
	switch kind {
	case OpInsert:
		d.l.Insert(c, tok, key, int64(key))
	case OpGet:
		d.l.Get(c, tok, key)
	case OpRemove:
		d.l.Remove(c, tok, key)
	}
}

func (d *skiplistDriver) ApplyBulk(c *pgas.Ctx, owner int, keys []uint64) {}

func (d *skiplistDriver) Destroy(c *pgas.Ctx) { d.l.Destroy(c) }
