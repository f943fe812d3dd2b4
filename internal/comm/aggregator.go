package comm

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"gopgas/internal/trace"
)

// Aggregation: the generalisation of the EpochManager's scatter lists
// into a first-class communication layer. Instead of paying one round
// trip per small remote operation, an Aggregator buffers operations by
// destination locale and ships each destination's buffer as a single
// bulk transfer, charging one BulkStartupNS + bytes·BulkPerByteNS per
// flush rather than n round trips. This is the same move Chapel's
// ecosystem made after the paper (CopyAggregation in Arkouda / the
// Aggregators module): per-op latency becomes per-batch latency.
//
// The Aggregator here is mechanism-free policy, like the rest of this
// package: it owns the buffers, the flush policy and the accounting,
// while the delivery callback supplied by the pgas layer owns the
// actual execution of a batch on its destination.

// FlushPolicy selects when a destination's buffer is shipped.
type FlushPolicy int

const (
	// FlushOnCapacity ships a destination's buffer as soon as it holds
	// Capacity operations; Flush ships whatever remains. This is the
	// default policy.
	FlushOnCapacity FlushPolicy = iota

	// FlushManual never ships automatically: buffers grow without bound
	// until an explicit Flush or FlushDst. Useful when the caller knows
	// the batch boundary (e.g. the end of a bulk-insert phase).
	FlushManual
)

// DefaultAggCapacity is the per-destination buffer capacity used when
// AggConfig.Capacity is unset.
const DefaultAggCapacity = 256

// AggConfig configures an Aggregator.
type AggConfig struct {
	// Capacity is the per-destination operation count that triggers an
	// automatic flush under FlushOnCapacity. <= 0 selects
	// DefaultAggCapacity.
	Capacity int

	// Policy selects the flush policy.
	Policy FlushPolicy

	// Combine enables in-flight write absorption: an enqueued op whose
	// payload implements CombinableOp is merged into an already-buffered
	// op with the same CombineKey instead of occupying its own slot.
	// Off by default — combining is an opt-in policy because it changes
	// the shipped-op stream (though never the observable final state;
	// see CombinableOp).
	Combine bool
}

// CombineKey identifies the merge target of a combinable operation:
// two buffered ops with equal keys address the same logical cell and
// may be merged. Kind namespaces the key space per operation type
// (an Add and a Put to the same word must not merge), Ref anchors the
// key to a structure or word identity (a comparable value that boxes
// without allocating — a pointer; the key is built on every enqueue),
// and K carries the cell index or hashmap key within that structure.
type CombineKey struct {
	Kind uint8
	Ref  any
	K    uint64
}

// CombinableOp is the opt-in merge surface of an aggregated
// operation. When AggConfig.Combine is set and an enqueued op's Exec
// payload implements CombinableOp, the aggregator asks the buffered
// op with the same CombineKey to Absorb the later one.
//
// Absorb folds later into the receiver in enqueue order — summing a
// delta (commutative Add), replacing a value (last-writer Put), or
// concatenating a batch — and reports how many payload bytes the
// merged op grew by (zero for value merges, positive for
// concatenation) plus whether the merge happened at all. Returning
// ok=false keeps both ops; the aggregator never retries the pair.
// Absorption must preserve the observable outcome of executing both
// ops in order: per-key last-writer order is maintained because ops
// merge only within one task's buffer, where enqueue order IS program
// order.
type CombinableOp interface {
	CombineKey() CombineKey
	Absorb(later CombinableOp) (grow int64, ok bool)
}

// Op is one buffered remote operation: an opaque payload interpreted
// by the delivery callback, plus the number of payload bytes the
// operation contributes to its flush's bulk transfer.
type Op struct {
	Bytes int64
	Exec  any
}

// Aggregator buffers remote operations by destination locale and ships
// each buffer as one bulk transfer. It is NOT safe for concurrent use:
// each task owns its own aggregator (the pgas layer hangs one off every
// Ctx), mirroring how real aggregators keep per-task buffers to stay
// off the hot path's locks.
type Aggregator struct {
	src      int
	cfg      AggConfig
	counters *Counters
	matrix   *Matrix
	prices   Prices
	delay    func(dst int, ns int64)
	deliver  func(dst int, batch []Op)
	bufs     [][]Op
	bytes    []int64

	tracer    *trace.Recorder // nil unless SetTracer installed one
	traceTask uint64

	// idx maps CombineKey → position in bufs[dst], one index per
	// destination. It fills only under Combine and is cleared at flush:
	// the positions it holds are positions in the flushed buffer.
	idx []combineIndex
	// miss is the last Buffered miss: its key and the empty slot its
	// probe ended on, so the Enqueue that follows files the op there
	// without probing again. The next Enqueue of a combinable op and
	// every flush forget it.
	miss combineMiss
}

type combineMiss struct {
	dst, slot int
	key       CombineKey
	ok        bool
}

// combineIndex is one destination's merge index: an open-addressing
// table with linear probing from CombineKey to the position of the op
// filed under it. A slot is live while it carries the index's current
// generation, so reset — every flush — is one increment instead of a
// sweep or a new table. The table doubles at load ½ (a FlushManual
// buffer is unbounded) and is kept across flushes.
type combineIndex struct {
	slots []combineSlot // len is zero or a power of two
	shift uint          // 64 - log2(len(slots))
	n     int           // live slots
	gen   uint32        // nonzero once there are slots: a zeroed slot is dead
}

type combineSlot struct {
	key CombineKey
	pos int
	gen uint32
}

const combineIndexMinSlots = 64

var combineSeed = maphash.MakeSeed()

// home returns the slot key's probe sequence starts at. The hash covers
// every field: addOp keys differ only in Ref, hashmap keys only in K.
// The multiplier is 2^64/φ; the slot is the product's top bits.
func (ix *combineIndex) home(key CombineKey) int {
	h := key.K + uint64(key.Kind)<<56
	if key.Ref != nil {
		h += maphash.Comparable(combineSeed, key.Ref)
	}
	return int(h * 0x9E3779B97F4A7C15 >> ix.shift)
}

// find is the index's one probe: it returns the slot filed under key,
// or on a miss the empty slot the probe ended on, where fill files key.
// An index with no live slot answers -1 without hashing: every slot is
// empty, so fill files key at its home.
func (ix *combineIndex) find(key CombineKey) (slot int, hit bool) {
	if ix.n == 0 {
		return -1, false
	}
	mask := len(ix.slots) - 1
	for i := ix.home(key); ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.gen != ix.gen {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// fill files pos under key in slot, the empty slot find returned for
// it. A table at load ½ doubles first, and key is then probed again.
func (ix *combineIndex) fill(slot int, key CombineKey, pos int) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.grow()
		slot, _ = ix.find(key)
	}
	if slot < 0 {
		slot = ix.home(key)
	}
	ix.slots[slot] = combineSlot{key: key, pos: pos, gen: ix.gen}
	ix.n++
}

// get returns the position filed under key.
func (ix *combineIndex) get(key CombineKey) (pos int, hit bool) {
	if slot, hit := ix.find(key); hit {
		return ix.slots[slot].pos, true
	}
	return 0, false
}

// put files pos under key, replacing what was filed there.
func (ix *combineIndex) put(key CombineKey, pos int) {
	if slot, hit := ix.find(key); hit {
		ix.slots[slot].pos = pos
	} else {
		ix.fill(slot, key, pos)
	}
}

// grow doubles the table and refiles the live slots.
func (ix *combineIndex) grow() {
	old, live := ix.slots, ix.gen
	size := max(2*len(old), combineIndexMinSlots)
	ix.slots = make([]combineSlot, size)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	ix.n = 0
	ix.gen = max(live, 1)
	for i := range old {
		if old[i].gen == live {
			ix.put(old[i].key, old[i].pos)
		}
	}
}

// reset empties the index in O(1); only when the generation wraps are
// the slots swept, so that none left from 2^32 resets ago reads live.
func (ix *combineIndex) reset() {
	if ix.n == 0 {
		return
	}
	ix.n = 0
	if ix.gen++; ix.gen == 0 {
		clear(ix.slots)
		ix.gen = 1
	}
}

// NewAggregator creates an aggregator for operations issued from
// locale src toward nDest destinations. Every flush increments the
// aggregation counters and hands the batch to deliver; a flush toward
// another locale is also one bulk transfer — one KindBulk add on
// matrix's (src, dst) cell, its bytes on counters, and its price on
// lat's price list (Prices.Bulk) — while a flush of src's own buffer
// crosses no wire and books none of those. Pass the matrix counters
// are bound to (NewCounters) for counters to read the transfer.
// A delivered batch is the callee's to keep: the aggregator starts a
// new buffer after every flush and never touches a shipped one again.
func NewAggregator(src, nDest int, cfg AggConfig, counters *Counters, matrix *Matrix, lat LatencyProfile, deliver func(dst int, batch []Op)) *Aggregator {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultAggCapacity
	}
	return &Aggregator{
		src:      src,
		cfg:      cfg,
		counters: counters,
		matrix:   matrix,
		prices:   lat.Prices(),
		delay:    func(_ int, ns int64) { Delay(ns) },
		deliver:  deliver,
		bufs:     make([][]Op, nDest),
		bytes:    make([]int64, nDest),
		idx:      make([]combineIndex, nDest),
	}
}

// Capacity returns the effective per-destination capacity.
func (a *Aggregator) Capacity() int { return a.cfg.Capacity }

// SetDelay replaces what pays a flush's bulk cost toward dst (by
// default Delay, unscaled): the pgas layer routes it to the owning
// task's delay account under the live perturbation plan.
func (a *Aggregator) SetDelay(fn func(dst int, ns int64)) { a.delay = fn }

// SetTracer installs a span recorder: every flush records a KindFlush
// span on the source locale carrying the batch's byte and op counts.
// task identifies the owning task in exported traces. A nil tracer
// (the default) keeps the flush path trace-free.
func (a *Aggregator) SetTracer(tr *trace.Recorder, task uint64) {
	a.tracer = tr
	a.traceTask = task
}

// Enqueue buffers op for dst, flushing the destination's buffer first
// if the policy is FlushOnCapacity and the buffer is full. Under
// AggConfig.Combine a combinable op may instead be absorbed into an
// already-buffered op with the same merge key, in which case nothing
// is appended and no flush can trigger.
func (a *Aggregator) Enqueue(dst int, op Op) {
	if dst < 0 || dst >= len(a.bufs) {
		panic(fmt.Sprintf("comm: aggregator destination %d out of range [0, %d)", dst, len(a.bufs)))
	}
	a.counters.IncAggEnqueue(a.src)
	if a.cfg.Combine {
		if co, isCombinable := op.Exec.(CombinableOp); isCombinable {
			key := co.CombineKey()
			ix := &a.idx[dst]
			if slot, hit := a.probe(dst, key); !hit {
				ix.fill(slot, key, len(a.bufs[dst]))
			} else {
				prev := &a.bufs[dst][ix.slots[slot].pos]
				if grow, ok := prev.Exec.(CombinableOp).Absorb(co); ok {
					prev.Bytes += grow
					a.bytes[dst] += grow
					a.counters.IncAggCombined(a.src)
					return
				}
				ix.slots[slot].pos = len(a.bufs[dst])
			}
		}
	}
	a.bufs[dst] = append(a.bufs[dst], op)
	a.bytes[dst] += op.Bytes
	if a.cfg.Policy == FlushOnCapacity && len(a.bufs[dst]) >= a.cfg.Capacity {
		a.FlushDst(dst)
	}
}

// probe finds key in dst's combine index for Enqueue. When the last
// Buffered missed on the same key and destination, nothing has changed
// the index since, so the slot that probe ended on is reused.
func (a *Aggregator) probe(dst int, key CombineKey) (slot int, hit bool) {
	m := a.miss
	a.miss.ok = false
	if m.ok && m.dst == dst && m.key == key {
		return m.slot, false
	}
	return a.idx[dst].find(key)
}

// Buffered returns the op already buffered for dst under key, for a
// caller that can merge into it without building the op an Enqueue
// would only absorb and drop (a value merge; the buffered op's Bytes
// stay as they are). A hit books exactly what that Enqueue would have:
// one AggEnqueue and one AggCombined. A miss returns nil and books
// nothing — the caller builds its op and Enqueues it, and that Enqueue
// files the op in the slot this probe found. The index only fills
// under AggConfig.Combine, so with the policy off every lookup misses.
func (a *Aggregator) Buffered(dst int, key CombineKey) CombinableOp {
	slot, hit := a.idx[dst].find(key)
	if !hit {
		a.miss = combineMiss{dst: dst, slot: slot, key: key, ok: true}
		return nil
	}
	a.counters.IncAggEnqueue(a.src)
	a.counters.IncAggCombined(a.src)
	return a.bufs[dst][a.idx[dst].slots[slot].pos].Exec.(CombinableOp)
}

// PendingTo returns the number of operations buffered for dst.
func (a *Aggregator) PendingTo(dst int) int { return len(a.bufs[dst]) }

// Pending returns the total number of buffered operations.
func (a *Aggregator) Pending() int {
	n := 0
	for _, b := range a.bufs {
		n += len(b)
	}
	return n
}

// FlushDst ships dst's buffer as one bulk transfer: the aggregation
// counters record the flush, the transfer it rides on is one KindBulk
// event booked on the matrix's (src, dst) cell — which counters bound to
// that matrix read as BulkXfers; an aggregated flush IS a bulk shipment,
// so scatter-list style assertions keep holding — plus its bytes, and
// the initiating task pays one bulk transfer's price (Prices.Bulk) for
// the whole batch. The source's own buffer is delivered without
// a transfer: the flush is counted (shipped + combined == enqueued holds
// over every destination) but no bulk counter, matrix cell or delay is.
// An empty buffer is a no-op.
func (a *Aggregator) FlushDst(dst int) {
	batch := a.bufs[dst]
	if len(batch) == 0 {
		return
	}
	bytes := a.bytes[dst]
	a.bufs[dst] = nil
	a.bytes[dst] = 0
	a.idx[dst].reset()
	a.miss.ok = false
	var sp trace.Span
	if a.tracer != nil {
		sp = a.tracer.Begin(a.src, trace.KindFlush, a.traceTask, a.src, dst, bytes, int64(len(batch)))
	}
	a.counters.IncAggFlush(a.src, int64(len(batch)), bytes)
	if dst != a.src {
		a.matrix.Book(a.src, dst, KindBulk)
		a.counters.IncBulkBytes(a.src, bytes)
		a.delay(dst, a.prices.Bulk(bytes))
	}
	a.deliver(dst, batch)
	sp.End()
}

// Flush ships every non-empty buffer and returns with nothing pending.
// The source's own buffer goes first: its batch runs on the flushing
// task, and what that enqueues (a cache invalidation behind a delivered
// write) rides the remote flushes of the same pass. Whatever a delivery
// still leaves behind takes another pass.
func (a *Aggregator) Flush() {
	n := len(a.bufs)
	for {
		for i := 0; i < n; i++ {
			a.FlushDst((a.src + i) % n)
		}
		if a.Pending() == 0 {
			return
		}
	}
}
