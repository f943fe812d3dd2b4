// Package trace is the event-tracing plane: a per-locale,
// cache-line-padded, lock-free ring-buffer span recorder for the
// simulator's load-bearing lifecycles — on-statement dispatch,
// aggregated flushes, combiner drain passes, epoch transitions and
// bucket migrations. Where the comm counters answer "how much", a
// trace answers "when and for how long": each instrumented lifecycle
// records a begin/end event pair carrying (src, dst, kind, bytes,
// seq), timestamped against one recorder-wide monotonic epoch.
//
// The recorder preserves the measurement plane's contention-free
// guarantee (PR 5): every locale writes its own padded ring through an
// atomic write cursor (a bounded MPMC queue in the per-slot-sequence
// style), recording never blocks — a full ring drops the event and
// counts the drop — and the hot path performs zero allocations. A
// disabled recorder costs the caller exactly one nil check; an enabled
// one charges sampled kinds one shared-counter increment per event
// considered. Control-plane kinds (epoch advance/reclaim, migrations,
// reroutes) always record regardless of the sampling rate, so span
// books like "migration spans == MigAdopted" stay exact under any
// rate; only the high-frequency kinds (dispatch, flush, combine,
// deferral) are sampled.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies the lifecycle a trace event belongs to.
type Kind uint8

const (
	// KindDispatch is a synchronous remote on-statement: begin at
	// injection on the source, end when the callee returns.
	KindDispatch Kind = iota
	// KindAsync is a fire-and-forget on-statement: begin at launch on
	// the source, end when the detached task completes.
	KindAsync
	// KindFlush is one aggregated-buffer flush toward one destination:
	// bytes is the batch payload, arg the operation count.
	KindFlush
	// KindCombine is one flat-combiner drain pass on the owner: arg is
	// the number of published operations the pass applied.
	KindCombine
	// KindEpochAdvance spans one won reclamation election: token scan
	// through generation reclaim; arg is the epoch advanced to (0 when
	// a pinned token blocked the advance).
	KindEpochAdvance
	// KindEpochReclaim spans one limbo generation's reclamation on one
	// locale; arg is the number of objects scattered to their owners.
	KindEpochReclaim
	// KindMigrate spans one epoch-coherent bucket handoff on the source
	// owner: snapshot, ship, republish, retire; bytes is the shipped
	// payload, arg the bucket index. Recorded only for migrations whose
	// fill landed (a handoff abandoned after that ends with zero bytes),
	// so begin-counts equal the MigAdopted/MigRetired books.
	KindMigrate
	// KindReroute is an instant: a routed write found a stale owner
	// generation and re-dispatched; dst is the current owner, arg the
	// bucket index.
	KindReroute
	// KindDefer is an instant: one deferred deletion (sampled); dst is
	// the owning locale of the dead object.
	KindDefer
	// KindPinned is an instant gauge emitted per locale by the advance
	// scan: arg is the number of pinned tokens the scan observed.
	KindPinned
	// KindCrash is an instant: dst was declared dead (fail-stop). Always
	// recorded — a run records exactly as many crash instants as crashes
	// applied.
	KindCrash
	// KindAdopt spans one shard adoption during failover: src is the
	// dead locale, dst the surviving adopter, bytes the shipped payload,
	// arg the bucket index. Recorded only for completed adoptions, so
	// begin-counts equal the shards-adopted ledger.
	KindAdopt
	// KindForceRetire spans one epoch token force-retired on a dead
	// locale: one span per token, so begin-counts equal the
	// tokens-force-retired ledger; arg is the epoch the token was
	// stranded pinned in.
	KindForceRetire
	// KindPartition marks one partition sever instant: src and dst are
	// the severed pair. Always recorded — a trace must never miss a
	// fault-plan edge.
	KindPartition
	// KindHeal marks one partition heal instant: src and dst are the
	// repaired pair. Always recorded, so sever/heal instants pair up
	// exactly with the availability report's partition counts.
	KindHeal

	numKinds
)

var kindNames = [numKinds]string{
	KindDispatch:     "dispatch",
	KindAsync:        "async",
	KindFlush:        "flush",
	KindCombine:      "combine",
	KindEpochAdvance: "epoch_advance",
	KindEpochReclaim: "epoch_reclaim",
	KindMigrate:      "migrate",
	KindReroute:      "reroute",
	KindDefer:        "defer",
	KindPinned:       "pinned",
	KindCrash:        "crash",
	KindAdopt:        "adopt",
	KindForceRetire:  "force_retire",
	KindPartition:    "partition",
	KindHeal:         "heal",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// sampled reports whether k is a high-frequency kind subject to the
// recorder's sampling rate. Control-plane kinds always record: they
// are rare, and their span books are asserted exactly against the
// comm counters.
func sampled(k Kind) bool {
	switch k {
	case KindDispatch, KindAsync, KindFlush, KindCombine, KindDefer:
		return true
	}
	return false
}

// Phase distinguishes the two halves of a span from a standalone mark.
type Phase uint8

const (
	PhaseBegin Phase = iota
	PhaseEnd
	PhaseInstant
)

// Event is one fixed-size trace record. Begin/end halves of a span
// share a Seq; instants get their own. TS is nanoseconds since the
// recorder's creation (one monotonic epoch for every locale, so
// cross-locale ordering in an exported trace is meaningful).
type Event struct {
	TS    int64
	Seq   uint64
	Task  uint64
	Bytes int64
	Arg   int64
	Src   int32
	Dst   int32
	Kind  Kind
	Phase Phase
}

// Config configures a Recorder.
type Config struct {
	// BufferSize is the per-locale ring capacity in events, rounded up
	// to a power of two; <= 0 selects DefaultBufferSize.
	BufferSize int
	// SampleRate records 1 in N sampled-kind events (dispatch, flush,
	// combine, deferral); <= 1 records every event. Control-plane kinds
	// ignore the rate.
	SampleRate int
}

// DefaultBufferSize is the per-locale ring capacity used when
// Config.BufferSize is unset: 16Ki events ≈ 1 MiB per locale.
const DefaultBufferSize = 1 << 14

// slot is one ring cell: the per-slot sequence number that carries the
// producer/consumer handshake (and the happens-before edge making the
// event payload race-free), plus the event itself.
type slot struct {
	seq atomic.Uint64
	ev  Event
}

// kindBook is one kind's begin/end/instant call accounting. Books
// count recording *decisions* (post-sampling), not ring occupancy: a
// Begin that passes sampling increments begins and hands back a live
// Span whose End increments ends even if either event was dropped by a
// full ring — so after quiescence the books balance exactly, and any
// event-stream shortfall is explained by the dropped counter alone.
type kindBook struct {
	begins   atomic.Int64
	ends     atomic.Int64
	instants atomic.Int64
}

// ring is one locale's recorder shard. Cursors, the sampling clock and
// the drop counter each get their own cache line so concurrent tasks
// on one locale never falsely share, and neighbouring locales' rings
// are separated by the trailing pad.
type ring struct {
	slots []slot
	_     [64 - 24]byte
	enq   atomic.Uint64
	_     [56]byte
	deq   atomic.Uint64
	_     [56]byte
	tick  atomic.Uint64 // sampling clock for sampled kinds
	_     [56]byte
	seq   atomic.Uint64 // span/instant id source
	_     [56]byte
	drop  atomic.Int64 // events lost to a full ring (TraceDropped)
	_     [56]byte
	books [numKinds]kindBook
	_     [64]byte
}

// Recorder is the per-locale span recorder. All methods are safe for
// concurrent use; recording methods never block and never allocate.
type Recorder struct {
	start   time.Time
	mask    uint64
	rate    uint64
	rings   []ring
	enabled atomic.Bool
	drainMu sync.Mutex // serializes consumers (producers are lock-free)
}

// NewRecorder creates a recorder with one ring per locale. It starts
// enabled.
func NewRecorder(locales int, cfg Config) *Recorder {
	if locales < 1 {
		panic(fmt.Sprintf("trace: locales must be >= 1, got %d", locales))
	}
	size := cfg.BufferSize
	if size <= 0 {
		size = DefaultBufferSize
	}
	// Round up to a power of two so the cursor wrap is a mask.
	cap := 1
	for cap < size {
		cap <<= 1
	}
	rate := cfg.SampleRate
	if rate < 1 {
		rate = 1
	}
	r := &Recorder{
		start: time.Now(),
		mask:  uint64(cap - 1),
		rate:  uint64(rate),
		rings: make([]ring, locales),
	}
	for l := range r.rings {
		rg := &r.rings[l]
		rg.slots = make([]slot, cap)
		for i := range rg.slots {
			rg.slots[i].seq.Store(uint64(i))
		}
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips recording on or off. Spans begun while enabled
// still record their end after a disable, keeping the books balanced.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the recorder is currently recording.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SampleRate returns the effective 1-in-N rate for sampled kinds.
func (r *Recorder) SampleRate() int { return int(r.rate) }

// now returns nanoseconds since the recorder's epoch (monotonic).
func (r *Recorder) now() int64 { return int64(time.Since(r.start)) }

// Span is the in-flight half of a begin/end pair, returned by Begin
// and closed by End. The zero Span (sampling or a disabled recorder
// declined the event) is inert: End on it is a nil check. Spans are
// values — they live on the caller's stack and cost no allocation.
type Span struct {
	r     *Recorder
	ring  *ring
	t0    int64
	seq   uint64
	task  uint64
	bytes int64
	arg   int64
	src   int32
	dst   int32
	kind  Kind
}

// active reports whether the span was actually recorded.
func (s Span) active() bool { return s.r != nil }

// Begin opens a span of kind k recorded on locale's ring (conventionally
// where the lifecycle executes). Sampled kinds record 1 in SampleRate
// calls; control-plane kinds always record. The returned Span must be
// closed with End (or EndWith) exactly once; the zero Span returned
// when the event is declined makes that unconditional at call sites.
func (r *Recorder) Begin(locale int, k Kind, task uint64, src, dst int, bytes, arg int64) Span {
	if !r.enabled.Load() {
		return Span{}
	}
	rg := &r.rings[locale]
	if r.rate > 1 && sampled(k) && rg.tick.Add(1)%r.rate != 0 {
		return Span{}
	}
	sp := Span{
		r: r, ring: rg, t0: r.now(),
		seq:  rg.seq.Add(1)<<16 | uint64(locale&0xFFFF),
		task: task, bytes: bytes, arg: arg,
		src: int32(src), dst: int32(dst), kind: k,
	}
	rg.books[k].begins.Add(1)
	r.push(rg, Event{
		TS: sp.t0, Seq: sp.seq, Task: task, Bytes: bytes, Arg: arg,
		Src: sp.src, Dst: sp.dst, Kind: k, Phase: PhaseBegin,
	})
	return sp
}

// End closes the span, recording the end event with the fields carried
// from Begin. A zero Span is a no-op.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.ring.books[s.kind].ends.Add(1)
	s.r.push(s.ring, Event{
		TS: s.r.now(), Seq: s.seq, Task: s.task, Bytes: s.bytes, Arg: s.arg,
		Src: s.src, Dst: s.dst, Kind: s.kind, Phase: PhaseEnd,
	})
}

// EndWith closes the span with updated payload fields — for lifecycles
// whose volume is only known at completion (a migration's shipped
// bytes, a combiner pass's applied count). The begin event keeps its
// original fields; consumers read the pair's end half for totals.
func (s Span) EndWith(bytes, arg int64) {
	if s.r == nil {
		return
	}
	s.bytes = bytes
	s.arg = arg
	s.End()
}

// Instant records a standalone mark (reroutes, deferrals, gauges).
// Sampled kinds honour the sampling rate, exactly like Begin.
func (r *Recorder) Instant(locale int, k Kind, task uint64, src, dst int, bytes, arg int64) {
	if !r.enabled.Load() {
		return
	}
	rg := &r.rings[locale]
	if r.rate > 1 && sampled(k) && rg.tick.Add(1)%r.rate != 0 {
		return
	}
	rg.books[k].instants.Add(1)
	r.push(rg, Event{
		TS: r.now(), Seq: rg.seq.Add(1)<<16 | uint64(locale&0xFFFF),
		Task: task, Bytes: bytes, Arg: arg,
		Src: int32(src), Dst: int32(dst), Kind: k, Phase: PhaseInstant,
	})
}

// push enqueues ev on rg's bounded MPMC ring: claim the write cursor
// when the target slot's sequence says it is free, publish the payload
// by storing the slot sequence (the release edge a concurrent drain
// acquires). A full ring drops the event — recording never blocks the
// simulated system — and counts the loss.
func (r *Recorder) push(rg *ring, ev Event) bool {
	for {
		pos := rg.enq.Load()
		s := &rg.slots[pos&r.mask]
		diff := int64(s.seq.Load()) - int64(pos)
		switch {
		case diff == 0:
			if rg.enq.CompareAndSwap(pos, pos+1) {
				s.ev = ev
				s.seq.Store(pos + 1)
				return true
			}
		case diff < 0:
			// The slot one lap back is still unconsumed: full.
			rg.drop.Add(1)
			return false
		default:
			// Another producer claimed pos; reload the cursor.
		}
	}
}

// pop dequeues one event from rg. Callers hold drainMu (one consumer
// at a time); producers stay lock-free throughout.
func (r *Recorder) pop(rg *ring) (Event, bool) {
	pos := rg.deq.Load()
	s := &rg.slots[pos&r.mask]
	if int64(s.seq.Load())-int64(pos+1) < 0 {
		return Event{}, false
	}
	ev := s.ev
	s.seq.Store(pos + r.mask + 1) // recycle the slot for the next lap
	rg.deq.Store(pos + 1)
	return ev, true
}

// Drain removes up to max buffered events across every locale's ring
// (max <= 0 drains everything currently buffered) and returns them
// sorted by timestamp. Concurrent recording continues undisturbed;
// concurrent Drains serialize.
func (r *Recorder) Drain(max int) []Event {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	var out []Event
	for l := range r.rings {
		rg := &r.rings[l]
		for max <= 0 || len(out) < max {
			ev, ok := r.pop(rg)
			if !ok {
				break
			}
			out = append(out, ev)
		}
		if max > 0 && len(out) >= max {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Dropped returns the total number of events lost to full rings — the
// TraceDropped counter. A drained trace plus Dropped accounts for
// every recording decision the books counted.
func (r *Recorder) Dropped() int64 {
	var n int64
	for l := range r.rings {
		n += r.rings[l].drop.Load()
	}
	return n
}

// Book is one kind's recording-decision accounting, summed across
// locales.
type Book struct {
	Kind     string `json:"kind"`
	Begins   int64  `json:"begins"`
	Ends     int64  `json:"ends"`
	Instants int64  `json:"instants"`
}

// Books returns the per-kind begin/end/instant books, indexed by Kind.
// After the system quiesces, Begins == Ends for every kind — each
// sampled-in Begin hands back exactly one live Span — regardless of
// how many events a full ring dropped.
func (r *Recorder) Books() []Book {
	books := make([]Book, numKinds)
	for k := 0; k < int(numKinds); k++ {
		books[k].Kind = Kind(k).String()
	}
	for l := range r.rings {
		rg := &r.rings[l]
		for k := 0; k < int(numKinds); k++ {
			books[k].Begins += rg.books[k].begins.Load()
			books[k].Ends += rg.books[k].ends.Load()
			books[k].Instants += rg.books[k].instants.Load()
		}
	}
	return books
}

// BooksBalanced reports whether every kind's begins equal its ends.
func BooksBalanced(books []Book) bool {
	for _, b := range books {
		if b.Begins != b.Ends {
			return false
		}
	}
	return true
}
