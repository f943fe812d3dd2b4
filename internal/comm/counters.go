package comm

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Counters records communication-diagnostic totals, in the spirit of
// Chapel's commDiagnostics module. Every simulated communication event
// is counted exactly once, so tests can make deterministic assertions
// about communication volume — for example that privatized instance
// lookup performs zero communication, or that scatter lists reduce N
// remote frees to one bulk transfer per locale.
//
// The seven remote totals (Puts, Gets, NICAMOs, AMAMOs, OnStmts,
// BulkXfers, DCASRemote) of Counters made by NewCounters are the sums
// of the bound Matrix's per-kind cells: a remote event is one
// Matrix.Book, and it is both a counter and a matrix entry. Everything
// else — and, on Counters not bound to a matrix, the src-only IncGet
// too — lives in padded shards merged at
// Snapshot time: every Inc* takes a shard hint (the source locale,
// which each call site already has in hand), so tasks on different
// locales increment disjoint cache lines. Addition is commutative, so
// Snapshot/Sub/Reset observe exactly the values one flat counter
// struct would.
//
// Layout: the shards sit on a 128-byte grid (the adjacent-line
// prefetcher fetches lines in pairs), the same grid as the Matrix
// rows. The header keeps a 128-byte block of its own, because every
// Inc* from every locale reads it — the nil check of c loads byte 0 —
// while shard 0 is written by locale 0 on every counted event.
//
// All methods are safe for concurrent use.
type Counters struct {
	pairs *Matrix // nil unless made by NewCounters

	// Go's allocator puts a Counters 8 bytes past a 128-byte boundary:
	// its size class's slots are 128-byte multiples, and a slot opens
	// with the 8-byte type header of an object this large that holds a
	// pointer. The pad puts shard 0 on the next boundary
	// (TestCountersShardLayout checks real addresses).
	_      [shardAlign - 16]byte
	shards [counterShards]counterShard
}

// NewCounters returns counters bound to pairs: their remote totals are
// the sums of its cells, so Snapshot().Remote() == pairs.Total() as long
// as nothing books a kindless pair (Matrix.Inc) or a src-only IncGet.
func NewCounters(pairs *Matrix) *Counters {
	return &Counters{pairs: pairs}
}

// counterShards is the number of padded cells each counter is split
// across. A power of two so the shard pick is a mask, and comfortably
// larger than the locale counts the workload sweeps use, so per-locale
// hints map to distinct shards.
const counterShards = 64

// shardAlign is the shard grid: a 128-byte pair of cache lines.
const shardAlign = 128

// counterShard is one padded cell: the 28 counters' 224 bytes padded
// to a whole number of 128-byte line pairs (256), so on the grid no
// two shards share a line or a pair.
type counterShard struct {
	v counterSet[atomic.Int64]
	_ [(shardAlign - unsafe.Sizeof(counterSet[int64]{})%shardAlign) % shardAlign]byte
}

// shard maps a source-locale hint to its padded cell. Hints are locale
// ids (always >= 0); the uint conversion keeps an out-of-convention
// negative hint from panicking the hot path.
func (c *Counters) shard(src int) *counterShard {
	return &c.shards[uint(src)%counterShards]
}

// Snapshot is an immutable copy of the counter values at one instant.
type Snapshot counterSet[int64]

// counterSet declares the counters, once: a Snapshot holds them as plain
// values, a shard as atomic cells. A counter is a field here plus the
// Inc* method that feeds it — Snapshot, Sub and Reset walk the fields as
// an array (every field is a T, and an atomic.Int64 is one int64 wide).
type counterSet[T int64 | atomic.Int64] struct {
	Puts       T
	Gets       T
	NICAMOs    T
	AMAMOs     T
	LocalAMOs  T
	OnStmts    T
	BulkXfers  T
	BulkBytes  T
	DCASLocal  T
	DCASRemote T
	AggFlushes T
	AggOps     T
	AggBytes   T
	CacheHits  T
	CacheMiss  T
	CacheInval T

	// Write-absorption counters. AggOpsEnq counts operations handed to
	// an aggregator's Enqueue; AggOps (above) counts operations that
	// actually shipped at flush time. Their gap is AggCombined: ops
	// absorbed into an already-buffered mergeable op before the wire.
	AggOpsEnq   T
	AggCombined T

	// CAS accounting, threaded through the pgas word primitives the
	// same way shard hints were: CASAttempts counts every
	// compare-and-swap tried on a simulated word (local or remote,
	// including DCAS), CASRetries the failed subset. Neither enters
	// Remote() — a CAS's communication is already counted by its
	// transport (NIC AMO, AM, or on-stmt).
	CASAttempts T
	CASRetries  T

	// Ownership-migration accounting. MigAdopted counts shards (bucket
	// contents) adopted by a destination locale, MigRetired shards
	// retired by the source after the handoff — a balanced run has
	// MigAdopted == MigRetired, each equal to the controller's migration
	// count. MigBytes is the payload volume shipped through the bulk
	// framing by migrations (key + value words per entry, the same
	// convention as aggregated map writes). MigReroutes counts
	// delivered ops that found a stale owner generation and re-routed to
	// the current owner. None of these enters Remote() — the on-stmts
	// and bulk transfers a migration rides are counted by their
	// transports as usual.
	MigAdopted  T
	MigRetired  T
	MigBytes    T
	MigReroutes T

	// OpsLost is the lost-ops ledger: operations refused by the
	// dispatch layer because their destination was crashed (fail-stop —
	// a dead locale never comes back, so neither can its traffic), plus
	// op budget a crashed locale's tasks never issued. A lost op
	// increments OpsLost and nothing else (no on-stmt, no matrix entry,
	// no delay), so the ledger is the exact availability cost of a
	// crash. Never enters Remote() — a lost op crossed no locale
	// boundary. Partition refusals do NOT land here: partitions are
	// transient, so their ops park in the retry plane below.
	OpsLost T

	// Retry-plane books. Operations refused because the
	// source/destination pair is partitioned (both locales alive) park
	// in the per-locale retry ledger instead of draining to OpsLost:
	// OpsParked counts every op that entered the ledger, OpsRedelivered
	// the subset that made it to its destination after a heal,
	// OpsExpired the subset dropped at the retry deadline, on ledger
	// overflow or at the final drain. Once the ledger drains
	// (System.DrainParking or Shutdown),
	// OpsParked == OpsRedelivered + OpsExpired exactly — the retry
	// plane's settlement invariant. None enters Remote(): a parked op's
	// redelivery flight is charged to the bulk counters by the
	// transport when it actually flies.
	OpsParked      T
	OpsRedelivered T
	OpsExpired     T
}

const numCounters = unsafe.Sizeof(Snapshot{}) / unsafe.Sizeof(int64(0))

// words and cells view a Snapshot's and a shard's counters as arrays in
// field order.
func (s *Snapshot) words() *[numCounters]int64 {
	return (*[numCounters]int64)(unsafe.Pointer(s))
}

func (sh *counterShard) cells() *[numCounters]atomic.Int64 {
	return (*[numCounters]atomic.Int64)(unsafe.Pointer(&sh.v))
}

// IncGet records a small remote read issued by locale src, on src's
// shard with no destination. Neither the pgas dispatch layer nor the
// Aggregator calls it: both book each remote event once on its matrix
// cell (Matrix.Book).
func (c *Counters) IncGet(src int) { c.shard(src).v.Gets.Add(1) }

// IncLocalAMO records a locale-local CPU atomic on a network word.
func (c *Counters) IncLocalAMO(src int) { c.shard(src).v.LocalAMOs.Add(1) }

// IncBulkBytes records n payload bytes of a bulk transfer issued by
// locale src whose event was booked on the bound matrix (KindBulk):
// bytes are not events, so they are the one second add of a transfer.
func (c *Counters) IncBulkBytes(src int, n int64) { c.shard(src).v.BulkBytes.Add(n) }

// IncDCASLocal records a locale-local emulated DCAS.
func (c *Counters) IncDCASLocal(src int) { c.shard(src).v.DCASLocal.Add(1) }

// IncAggFlush records one aggregated flush from locale src carrying
// ops operations and bytes payload bytes. The bulk transfer the flush
// rides on is booked separately (a KindBulk Matrix.Book plus
// IncBulkBytes) by the flusher.
func (c *Counters) IncAggFlush(src int, ops, bytes int64) {
	s := c.shard(src)
	s.v.AggFlushes.Add(1)
	s.v.AggOps.Add(ops)
	s.v.AggBytes.Add(bytes)
}

// IncCacheHit records one read-replication cache hit on locale src: a
// Get served from the calling locale's replica without touching the
// owner. Hits are locale-local by definition, so they never enter
// Remote() or the matrix — the counter exists to make the avoided
// communication visible next to the communication that did happen.
func (c *Counters) IncCacheHit(src int) { c.shard(src).v.CacheHits.Add(1) }

// IncCacheMiss records one read-replication cache miss on locale src
// (the lookup fell through to the owner-computed path, whose remote
// events are counted separately by the dispatch layer as usual).
func (c *Counters) IncCacheMiss(src int) { c.shard(src).v.CacheMiss.Add(1) }

// IncAggEnqueue records one operation handed to an aggregator by
// locale src, before any combining. Together with AggOps (ops shipped
// at flush) it bounds the absorption rate: shipped + combined == enq.
func (c *Counters) IncAggEnqueue(src int) { c.shard(src).v.AggOpsEnq.Add(1) }

// IncAggCombined records one enqueued operation absorbed into an
// already-buffered mergeable op on locale src instead of occupying its
// own buffer slot.
func (c *Counters) IncAggCombined(src int) { c.shard(src).v.AggCombined.Add(1) }

// IncCAS records one compare-and-swap attempt on a simulated word by
// locale src; ok reports whether it succeeded. Failed attempts also
// count as retries, so a CAS loop that spins k times records k
// attempts and k-1 retries.
func (c *Counters) IncCAS(src int, ok bool) {
	s := c.shard(src)
	s.v.CASAttempts.Add(1)
	if !ok {
		s.v.CASRetries.Add(1)
	}
}

// IncMigAdopt records one migrated shard's contents adopted by locale
// src (the destination executing the migration's fill op).
func (c *Counters) IncMigAdopt(src int) { c.shard(src).v.MigAdopted.Add(1) }

// IncMigRetire records one shard retired by locale src after its
// contents were handed off to a new owner.
func (c *Counters) IncMigRetire(src int) { c.shard(src).v.MigRetired.Add(1) }

// IncMigBytes records n payload bytes shipped by a migration's bulk
// fill from locale src. The bulk framing the bytes ride is charged to
// the aggregated-volume counters by the transport, as usual.
func (c *Counters) IncMigBytes(src int, n int64) { c.shard(src).v.MigBytes.Add(n) }

// IncMigReroute records one delivered operation that observed a stale
// owner generation on locale src and re-dispatched itself to the
// current owner.
func (c *Counters) IncMigReroute(src int) { c.shard(src).v.MigReroutes.Add(1) }

// IncOpsLost records n operations lost to a liveness fault, attributed
// to the locale that tried (or would have tried) to issue them.
func (c *Counters) IncOpsLost(src int, n int64) { c.shard(src).v.OpsLost.Add(n) }

// IncOpsParked records n partition-refused operations entering locale
// src's retry ledger.
func (c *Counters) IncOpsParked(src int, n int64) { c.shard(src).v.OpsParked.Add(n) }

// IncOpsRedelivered records n parked operations redelivered to their
// destination by locale src after a heal.
func (c *Counters) IncOpsRedelivered(src int, n int64) { c.shard(src).v.OpsRedelivered.Add(n) }

// IncOpsExpired records n parked operations dropped by locale src at
// the retry deadline or on ledger overflow.
func (c *Counters) IncOpsExpired(src int, n int64) { c.shard(src).v.OpsExpired.Add(n) }

// IncCacheInval records one invalidation operation executed on locale
// src. A write-through mutation broadcasts one such op per locale, so
// this counter exposes the write-amplification cost of replication;
// the transport the ops ride (aggregated flushes) is counted
// separately.
func (c *Counters) IncCacheInval(src int) { c.shard(src).v.CacheInval.Add(1) }

// Snapshot returns a point-in-time copy of all counters, merging the
// shards and, when the counters are bound to a matrix, summing its
// cells by kind. Concurrent increments land in either the before or
// after side of a Sub window exactly as they would with one flat
// counter struct.
func (c *Counters) Snapshot() Snapshot {
	s, _ := c.snapshot(false)
	return s
}

// SnapshotMatrix returns Snapshot() and the bound matrix's Snapshot()
// from the same loads of its cells, so the remote totals and the pairs
// of one read always agree: Remote() equals the pairs' sum, less any
// kindless pairs. The matrix is nil for counters not bound to one.
func (c *Counters) SnapshotMatrix() (Snapshot, [][]int64) {
	return c.snapshot(true)
}

func (c *Counters) snapshot(withPairs bool) (Snapshot, [][]int64) {
	var s Snapshot
	sums := s.words()
	for i := range c.shards {
		cells := c.shards[i].cells()
		for ctr := range sums {
			sums[ctr] += cells[ctr].Load()
		}
	}
	m := c.pairs
	if m == nil {
		return s, nil
	}
	var kinds [NumKinds]int64
	var pairs [][]int64
	if withPairs {
		pairs = m.newPairs()
	}
	m.read(pairs, &kinds)
	for k, v := range kinds {
		sums[kindWord[k]] += v
	}
	return s, pairs
}

// Reset zeroes every counter in every shard, and the bound matrix.
func (c *Counters) Reset() {
	for i := range c.shards {
		cells := c.shards[i].cells()
		for ctr := range cells {
			cells[ctr].Store(0)
		}
	}
	if c.pairs != nil {
		c.pairs.Reset()
	}
}

// Sub returns the element-wise difference s - old, for measuring the
// communication performed by one region of code.
func (s Snapshot) Sub(old Snapshot) Snapshot {
	d, o := s.words(), old.words()
	for ctr := range d {
		d[ctr] -= o[ctr]
	}
	return s
}

// Remote reports the total number of operations that crossed a locale
// boundary (everything except local AMOs and local DCAS).
func (s Snapshot) Remote() int64 {
	return s.Puts + s.Gets + s.NICAMOs + s.AMAMOs + s.OnStmts + s.BulkXfers + s.DCASRemote
}

// String formats the snapshot as a compact single-line summary. The
// cache counters are appended only when the run used the read
// replication layer, keeping the common case short.
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"puts=%d gets=%d nicAMO=%d amAMO=%d localAMO=%d on=%d bulk=%d/%dB dcas=%d/%d agg=%d/%d/%dB",
		s.Puts, s.Gets, s.NICAMOs, s.AMAMOs, s.LocalAMOs, s.OnStmts,
		s.BulkXfers, s.BulkBytes, s.DCASLocal, s.DCASRemote,
		s.AggFlushes, s.AggOps, s.AggBytes)
	if s.CacheHits != 0 || s.CacheMiss != 0 || s.CacheInval != 0 {
		out += fmt.Sprintf(" cache=%d/%d/%d", s.CacheHits, s.CacheMiss, s.CacheInval)
	}
	if s.AggCombined != 0 {
		out += fmt.Sprintf(" absorbed=%d/%denq", s.AggCombined, s.AggOpsEnq)
	}
	if s.CASAttempts != 0 {
		out += fmt.Sprintf(" cas=%d/%dretry", s.CASAttempts, s.CASRetries)
	}
	if s.MigAdopted != 0 || s.MigRetired != 0 || s.MigReroutes != 0 {
		out += fmt.Sprintf(" mig=%d/%d/%dB/%dre", s.MigAdopted, s.MigRetired, s.MigBytes, s.MigReroutes)
	}
	if s.OpsLost != 0 {
		out += fmt.Sprintf(" lost=%d", s.OpsLost)
	}
	if s.OpsParked != 0 || s.OpsRedelivered != 0 || s.OpsExpired != 0 {
		out += fmt.Sprintf(" parked=%d/%dre/%dexp", s.OpsParked, s.OpsRedelivered, s.OpsExpired)
	}
	return out
}
