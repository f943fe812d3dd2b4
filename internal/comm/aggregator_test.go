package comm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boundCounters returns counters bound to a fresh n×n matrix, as a
// system's are: an aggregator books each flush's transfer on the matrix
// and the counters read it there.
func boundCounters(n int) (*Counters, *Matrix) {
	m := NewMatrix(n)
	return NewCounters(m), m
}

// A capacity-policy aggregator auto-flushes full buffers: 1000 ops to
// one destination at capacity 256 ship in exactly 4 flushes, each also
// counted as one bulk transfer.
func TestAggregatorCapacityFlush(t *testing.T) {
	c, m := boundCounters(4)
	var delivered [][]Op
	a := NewAggregator(0, 4, AggConfig{Capacity: 256}, c, m, Zero(),
		func(dst int, batch []Op) {
			if dst != 1 {
				t.Fatalf("delivered to %d, want 1", dst)
			}
			delivered = append(delivered, batch)
		})
	for i := 0; i < 1000; i++ {
		a.Enqueue(1, Op{Bytes: 8})
	}
	if len(delivered) != 3 {
		t.Fatalf("auto-flushed %d batches before Flush, want 3", len(delivered))
	}
	a.Flush()
	s := c.Snapshot()
	if len(delivered) != 4 {
		t.Fatalf("flushed %d batches, want 4", len(delivered))
	}
	total := 0
	for _, b := range delivered {
		total += len(b)
	}
	if total != 1000 {
		t.Fatalf("delivered %d ops, want 1000", total)
	}
	want := Snapshot{AggFlushes: 4, AggOps: 1000, AggOpsEnq: 1000, AggBytes: 8000, BulkXfers: 4, BulkBytes: 8000}
	if s != want {
		t.Fatalf("counters = %+v, want %+v", s, want)
	}
}

// sumOp is a test CombinableOp: a commutative delta against cell K of
// a shared ref. Absorb folds the later delta in without growing the
// payload.
type sumOp struct {
	ref   *int
	k     uint64
	delta int64
}

func (o *sumOp) CombineKey() CombineKey { return CombineKey{Kind: 1, Ref: o.ref, K: o.k} }
func (o *sumOp) Absorb(later CombinableOp) (int64, bool) {
	o.delta += later.(*sumOp).delta
	return 0, true
}

// lastOp is a test CombinableOp with last-writer-wins semantics.
type lastOp struct {
	ref *int
	k   uint64
	v   int64
}

func (o *lastOp) CombineKey() CombineKey { return CombineKey{Kind: 2, Ref: o.ref, K: o.k} }
func (o *lastOp) Absorb(later CombinableOp) (int64, bool) {
	o.v = later.(*lastOp).v
	return 0, true
}

// catOp is a test CombinableOp whose merge concatenates payloads, so
// the merged op's byte tally must grow.
type catOp struct {
	ref  *int
	vals []int64
}

func (o *catOp) CombineKey() CombineKey { return CombineKey{Kind: 3, Ref: o.ref} }
func (o *catOp) Absorb(later CombinableOp) (int64, bool) {
	l := later.(*catOp)
	o.vals = append(o.vals, l.vals...)
	return int64(len(l.vals)) * 8, true
}

// With Combine on, N deltas to one key collapse to one summed op, N
// stores to one key keep only the last value, and distinct keys stay
// distinct. The enqueue/combined/shipped counters account exactly.
func TestAggregatorCombine(t *testing.T) {
	c, m := boundCounters(4)
	var delivered []Op
	ref := new(int)
	a := NewAggregator(0, 4, AggConfig{Capacity: 256, Combine: true}, c, m, Zero(),
		func(dst int, batch []Op) { delivered = append(delivered, batch...) })
	for i := 0; i < 10; i++ {
		a.Enqueue(1, Op{Bytes: 16, Exec: &sumOp{ref: ref, k: 7, delta: 1}})
		a.Enqueue(1, Op{Bytes: 16, Exec: &lastOp{ref: ref, k: 7, v: int64(i)}})
	}
	a.Enqueue(1, Op{Bytes: 16, Exec: &sumOp{ref: ref, k: 8, delta: 100}})
	a.Flush()

	if len(delivered) != 3 {
		t.Fatalf("shipped %d ops, want 3", len(delivered))
	}
	if got := delivered[0].Exec.(*sumOp); got.delta != 10 {
		t.Fatalf("summed delta = %d, want 10", got.delta)
	}
	if got := delivered[1].Exec.(*lastOp); got.v != 9 {
		t.Fatalf("last-writer value = %d, want 9", got.v)
	}
	if got := delivered[2].Exec.(*sumOp); got.delta != 100 {
		t.Fatalf("distinct key merged: delta = %d, want 100", got.delta)
	}
	s := c.Snapshot()
	want := Snapshot{
		AggFlushes: 1, AggOps: 3, AggOpsEnq: 21, AggCombined: 18,
		AggBytes: 48, BulkXfers: 1, BulkBytes: 48,
	}
	if s != want {
		t.Fatalf("counters = %+v, want %+v", s, want)
	}
	if s.AggOps+s.AggCombined != s.AggOpsEnq {
		t.Fatalf("shipped+combined != enqueued: %+v", s)
	}
}

// Concatenating merges grow the buffered op's byte tally, so the bulk
// transfer still charges for every payload byte that ships.
func TestAggregatorCombineGrowsBytes(t *testing.T) {
	c, m := boundCounters(4)
	ref := new(int)
	a := NewAggregator(0, 2, AggConfig{Combine: true}, c, m, Zero(), func(int, []Op) {})
	a.Enqueue(1, Op{Bytes: 16, Exec: &catOp{ref: ref, vals: []int64{1, 2}}})
	a.Enqueue(1, Op{Bytes: 24, Exec: &catOp{ref: ref, vals: []int64{3, 4, 5}}})
	a.Flush()
	s := c.Snapshot()
	if s.AggOps != 1 || s.AggCombined != 1 {
		t.Fatalf("counters = %+v, want 1 shipped / 1 combined", s)
	}
	// 16 initial + 3 appended values * 8 bytes.
	if s.AggBytes != 40 || s.BulkBytes != 40 {
		t.Fatalf("bytes = %d/%d, want 40/40", s.AggBytes, s.BulkBytes)
	}
}

// With Combine off, combinable ops ship one-for-one; opaque ops never
// merge even with Combine on.
func TestAggregatorCombineOptIn(t *testing.T) {
	c, m := boundCounters(4)
	ref := new(int)
	off := NewAggregator(0, 2, AggConfig{}, c, m, Zero(), func(int, []Op) {})
	for i := 0; i < 5; i++ {
		off.Enqueue(1, Op{Bytes: 16, Exec: &sumOp{ref: ref, k: 1, delta: 1}})
	}
	off.Flush()
	if s := c.Snapshot(); s.AggOps != 5 || s.AggCombined != 0 {
		t.Fatalf("Combine=false merged: %+v", s)
	}
	c.Reset()
	on := NewAggregator(0, 2, AggConfig{Combine: true}, c, m, Zero(), func(int, []Op) {})
	for i := 0; i < 5; i++ {
		on.Enqueue(1, Op{Bytes: 8, Exec: func() {}}) // opaque payload
	}
	on.Flush()
	if s := c.Snapshot(); s.AggOps != 5 || s.AggCombined != 0 {
		t.Fatalf("opaque ops merged: %+v", s)
	}
}

// The merge index is dropped at flush: ops enqueued after a flush must
// not absorb into positions of the already-shipped buffer.
func TestAggregatorCombineIndexResetOnFlush(t *testing.T) {
	c, m := boundCounters(4)
	ref := new(int)
	var batches [][]Op
	a := NewAggregator(0, 2, AggConfig{Combine: true}, c, m, Zero(),
		func(dst int, batch []Op) { batches = append(batches, batch) })
	a.Enqueue(1, Op{Bytes: 16, Exec: &sumOp{ref: ref, k: 1, delta: 1}})
	a.FlushDst(1)
	a.Enqueue(1, Op{Bytes: 16, Exec: &sumOp{ref: ref, k: 1, delta: 2}})
	a.FlushDst(1)
	if len(batches) != 2 || len(batches[0]) != 1 || len(batches[1]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
	if d := batches[0][0].Exec.(*sumOp).delta; d != 1 {
		t.Fatalf("pre-flush op mutated after shipping: delta = %d", d)
	}
	if d := batches[1][0].Exec.(*sumOp).delta; d != 2 {
		t.Fatalf("post-flush delta = %d, want 2", d)
	}
}

// Buffered is the merge-before-build lookup: a hit hands back the op
// already in dst's buffer and books the enqueue it stands in for as one
// AggEnqueue plus one AggCombined, so shipped+combined==enqueued holds
// across the flush; a miss, another destination's buffer, a flushed
// buffer and an aggregator with Combine off return nil and book
// nothing.
func TestAggregatorBuffered(t *testing.T) {
	c, m := boundCounters(4)
	var delivered []Op
	ref := new(int)
	a := NewAggregator(0, 4, AggConfig{Combine: true}, c, m, Zero(),
		func(dst int, batch []Op) { delivered = append(delivered, batch...) })
	key := (&lastOp{ref: ref, k: 7}).CombineKey()
	if got := a.Buffered(1, key); got != nil {
		t.Fatalf("Buffered on an empty buffer = %v", got)
	}
	first := &lastOp{ref: ref, k: 7, v: 1}
	a.Enqueue(1, Op{Bytes: 16, Exec: first})
	if got := a.Buffered(2, key); got != nil {
		t.Fatalf("Buffered looked into another destination: %v", got)
	}
	if got := a.Buffered(1, (&lastOp{ref: ref, k: 8}).CombineKey()); got != nil {
		t.Fatalf("Buffered hit a different key: %v", got)
	}
	if s := c.Snapshot(); s.AggOpsEnq != 1 || s.AggCombined != 0 {
		t.Fatalf("misses booked something: %+v", s)
	}
	for i := int64(2); i <= 4; i++ {
		got := a.Buffered(1, key)
		if got != CombinableOp(first) {
			t.Fatalf("Buffered = %v, want the buffered op", got)
		}
		got.(*lastOp).v = i // the caller's merge
		if s := c.Snapshot(); s.AggOpsEnq != i || s.AggCombined != i-1 {
			t.Fatalf("hit %d booked %+v", i-1, s)
		}
	}
	// Enqueue's own absorb branch reads the same index.
	a.Enqueue(1, Op{Bytes: 16, Exec: &lastOp{ref: ref, k: 7, v: 5}})
	a.Flush()
	if len(delivered) != 1 || delivered[0].Exec.(*lastOp).v != 5 {
		t.Fatalf("delivered %v", delivered)
	}
	s := c.Snapshot()
	if s.AggOps != 1 || s.AggOpsEnq != 5 || s.AggCombined != 4 || s.AggBytes != 16 {
		t.Fatalf("counters = %+v", s)
	}
	if s.AggOps+s.AggCombined != s.AggOpsEnq {
		t.Fatalf("shipped+combined != enqueued: %+v", s)
	}
	if got := a.Buffered(1, key); got != nil {
		t.Fatalf("Buffered survived the flush: %v", got)
	}

	c.Reset()
	off := NewAggregator(0, 2, AggConfig{}, c, m, Zero(), func(int, []Op) {})
	off.Enqueue(1, Op{Bytes: 16, Exec: first})
	if got := off.Buffered(1, key); got != nil {
		t.Fatalf("Buffered with Combine off = %v", got)
	}
	if s := c.Snapshot(); s.AggOpsEnq != 1 || s.AggCombined != 0 {
		t.Fatalf("Combine-off lookup booked something: %+v", s)
	}
}

// A manual-policy aggregator never ships on its own.
func TestAggregatorManualPolicy(t *testing.T) {
	c, m := boundCounters(4)
	n := 0
	a := NewAggregator(0, 2, AggConfig{Capacity: 4, Policy: FlushManual}, c, m, Zero(),
		func(int, []Op) { n++ })
	for i := 0; i < 100; i++ {
		a.Enqueue(1, Op{Bytes: 1})
	}
	if n != 0 || a.Pending() != 100 || a.PendingTo(1) != 100 {
		t.Fatalf("manual policy auto-flushed: n=%d pending=%d", n, a.Pending())
	}
	a.FlushDst(0) // empty buffer: no-op
	if n != 0 || c.Snapshot().AggFlushes != 0 {
		t.Fatal("empty flush counted")
	}
	a.Flush()
	if n != 1 || a.Pending() != 0 {
		t.Fatalf("Flush shipped %d batches, pending %d", n, a.Pending())
	}
}

// Flushes are attributed to the (src, dst) matrix cell, which is where
// the counters read each flush's bulk transfer.
func TestAggregatorMatrixAttribution(t *testing.T) {
	c, m := boundCounters(3)
	a := NewAggregator(1, 3, AggConfig{}, c, m, Zero(), func(int, []Op) {})
	a.Enqueue(0, Op{Bytes: 8})
	a.Enqueue(2, Op{Bytes: 8})
	a.Enqueue(2, Op{Bytes: 8})
	a.Flush()
	if m.Get(1, 0) != 1 || m.Get(1, 2) != 1 {
		t.Fatalf("matrix rows: %v", m.Snapshot())
	}
	if s := c.Snapshot(); s.AggFlushes != 2 || s.BulkXfers != 2 || s.Remote() != m.Total() {
		t.Fatalf("AggFlushes = %d, BulkXfers = %d, Remote() = %d, matrix total %d; want 2, 2, equal",
			s.AggFlushes, s.BulkXfers, s.Remote(), m.Total())
	}
}

// Capacity defaulting and the effective-capacity accessor.
func TestAggregatorDefaultCapacity(t *testing.T) {
	c, m := boundCounters(4)
	a := NewAggregator(0, 1, AggConfig{}, c, m, Zero(), func(int, []Op) {})
	if a.Capacity() != DefaultAggCapacity {
		t.Fatalf("capacity = %d, want %d", a.Capacity(), DefaultAggCapacity)
	}
}

// The source's own buffer is a destination like any other — it merges,
// fills, flushes at capacity — except that flushing it crosses no wire:
// the aggregation counters book the flush so shipped + combined ==
// enqueued holds over every destination, and nothing else moves.
func TestAggregatorOwnLocaleFlush(t *testing.T) {
	const n = 10
	c, m := boundCounters(3)
	ref := new(int)
	var delivered []Op
	a := NewAggregator(1, 3, AggConfig{Capacity: 4, Combine: true}, c, m, DefaultProfile(),
		func(dst int, batch []Op) {
			if dst != 1 {
				t.Fatalf("delivered to %d, want 1", dst)
			}
			delivered = append(delivered, batch...)
		})
	var delayed int64
	a.SetDelay(func(_ int, ns int64) { delayed += ns })
	for i := 0; i < n; i++ {
		a.Enqueue(1, Op{Bytes: 16, Exec: &lastOp{ref: ref, k: 7, v: int64(i)}})
	}
	if a.PendingTo(1) != 1 || a.Pending() != 1 || len(delivered) != 0 {
		t.Fatalf("before flush: pending %d, delivered %d, want 1 buffered", a.Pending(), len(delivered))
	}
	if got := a.Buffered(1, (&lastOp{ref: ref, k: 7}).CombineKey()); got == nil {
		t.Fatal("Buffered missed the own-locale buffer")
	}
	a.Flush()
	if len(delivered) != 1 || delivered[0].Exec.(*lastOp).v != n-1 {
		t.Fatalf("delivered %v, want the last write alone", delivered)
	}
	// The Buffered hit above stood in for one more enqueue.
	want := Snapshot{AggFlushes: 1, AggOps: 1, AggOpsEnq: n + 1, AggCombined: n, AggBytes: 16}
	if s := c.Snapshot(); s != want || s.Remote() != 0 {
		t.Fatalf("counters = %+v (remote %d), want %+v", s, s.Remote(), want)
	}
	for src, row := range m.Snapshot() {
		for dst, v := range row {
			if v != 0 {
				t.Fatalf("matrix[%d][%d] = %d after an own-locale flush", src, dst, v)
			}
		}
	}
	if delayed != 0 {
		t.Fatalf("own-locale flush charged %d ns", delayed)
	}

	// Distinct keys fill the buffer and flush it at capacity, still free.
	c.Reset()
	for k := uint64(0); k < 9; k++ {
		a.Enqueue(1, Op{Bytes: 16, Exec: &lastOp{ref: ref, k: k}})
	}
	want = Snapshot{AggFlushes: 2, AggOps: 8, AggOpsEnq: 9, AggBytes: 128}
	if s := c.Snapshot(); s != want || a.PendingTo(1) != 1 || delayed != 0 {
		t.Fatalf("capacity flushes: counters %+v, pending %d, delayed %d; want %+v, 1, 0", s, a.PendingTo(1), delayed, want)
	}
}

// Flush returns with nothing pending even when deliveries enqueue: the
// own-locale batch runs first, so what it enqueues toward other locales
// rides the same pass, and what a later delivery leaves behind takes
// another.
func TestAggregatorFlushLeavesNothingPending(t *testing.T) {
	c, m := boundCounters(4)
	var a *Aggregator
	var order []int
	second := false
	a = NewAggregator(2, 4, AggConfig{}, c, m, Zero(), func(dst int, batch []Op) {
		order = append(order, dst)
		switch {
		case dst == 2 && !second:
			// An owner-side effect of the local batch: one op toward
			// every other locale, the shape of a cache invalidation.
			for l := 0; l < 4; l++ {
				if l != 2 {
					a.Enqueue(l, Op{Bytes: 8})
				}
			}
		case dst == 1 && !second:
			second = true
			a.Enqueue(2, Op{Bytes: 8}) // lands behind the pass's cursor
		}
	})
	a.Enqueue(2, Op{Bytes: 16})
	a.Enqueue(3, Op{Bytes: 16})
	a.Flush()
	if a.Pending() != 0 {
		t.Fatalf("Flush left %d ops pending", a.Pending())
	}
	if want := []int{2, 3, 0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("deliveries went %v, want %v", order, want)
	}
	// Locale 3's two ops shared one transfer; the own-locale ones took none.
	want := Snapshot{AggFlushes: 5, AggOps: 6, AggOpsEnq: 6, AggBytes: 16 + 24 + 8 + 8 + 8, BulkXfers: 3, BulkBytes: 24 + 8 + 8}
	if s := c.Snapshot(); s != want {
		t.Fatalf("counters = %+v, want %+v", s, want)
	}
}

// ixModel drives a combineIndex and the map it replaced through the same
// calls; check compares the two whole, not the key last touched.
type ixModel struct {
	t   testing.TB
	ix  combineIndex
	ref map[CombineKey]int
}

func newIxModel(t testing.TB, gen uint32) *ixModel {
	return &ixModel{t: t, ix: combineIndex{gen: gen}, ref: make(map[CombineKey]int)}
}

func (m *ixModel) put(key CombineKey, pos int) {
	m.ix.put(key, pos)
	m.ref[key] = pos
}

func (m *ixModel) get(key CombineKey) {
	m.t.Helper()
	pos, hit := m.ix.get(key)
	want, wantHit := m.ref[key]
	if hit != wantHit || hit && pos != want {
		m.t.Fatalf("get(%+v) = (%d, %v), want (%d, %v)", key, pos, hit, want, wantHit)
	}
}

func (m *ixModel) reset() {
	m.ix.reset()
	clear(m.ref)
}

func (m *ixModel) check() {
	m.t.Helper()
	if m.ix.n != len(m.ref) {
		m.t.Fatalf("index holds %d keys, want %d", m.ix.n, len(m.ref))
	}
	if 2*m.ix.n > len(m.ix.slots) {
		m.t.Fatalf("load above 1/2: %d keys in %d slots", m.ix.n, len(m.ix.slots))
	}
	live := 0
	for _, s := range m.ix.slots {
		if s.gen == m.ix.gen {
			live++
		}
	}
	if live != m.ix.n {
		m.t.Fatalf("%d slots carry the live generation, want %d", live, m.ix.n)
	}
	for key := range m.ref {
		m.get(key)
	}
}

// longestProbe is the most slots any filed key's lookup visits.
func (m *ixModel) longestProbe() int {
	longest, mask := 0, len(m.ix.slots)-1
	for key := range m.ref {
		n := 1
		for i := m.ix.home(key); m.ix.slots[i].key != key; i = (i + 1) & mask {
			n++
		}
		longest = max(longest, n)
	}
	return longest
}

var ixRefs = [4]*int{nil, new(int), new(int), new(int)}

// ixScript decodes script three bytes at a time into put/get/reset calls
// over keys that collide in every pair of fields, checking the whole
// index against the reference after every reset and at the end.
func ixScript(t testing.TB, gen uint32, script []byte) {
	m := newIxModel(t, gen)
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		key := CombineKey{Kind: a >> 2 & 3, K: uint64(a>>4)<<8 | uint64(b)}
		if r := ixRefs[a&3]; r != nil { // a nil *int in Ref is not a nil Ref
			key.Ref = r
		}
		switch {
		case op < 160:
			m.put(key, i)
		case op < 250:
			m.get(key)
		default:
			m.check()
			m.reset()
		}
	}
	m.check()
}

func ixSeedScripts() [][]byte {
	rng := rand.New(rand.NewSource(22))
	long := make([]byte, 3*20000)
	rng.Read(long)
	return [][]byte{
		nil,
		{0, 0, 0, 200, 0, 0, 255, 0, 0, 200, 0, 0},                 // put, hit, reset, miss
		{0, 1, 5, 0, 2, 5, 0, 4, 5, 0, 5, 5, 200, 1, 5, 200, 6, 5}, // keys apart only in Ref, only in Kind
		long,
	}
}

// combineIndex against the map[CombineKey]int it replaced.
func TestCombineIndexMatchesMap(t *testing.T) {
	for _, gen := range []uint32{0, 1, math.MaxUint32 - 2} {
		for _, script := range ixSeedScripts() {
			ixScript(t, gen, script)
		}
	}

	t.Run("keys apart only in Ref", func(t *testing.T) {
		// addOp's keys: K and Kind equal, a thousand words. A hash that
		// skipped Ref would chain them into one thousand-slot probe.
		m := newIxModel(t, 0)
		for i := 0; i < 1000; i++ {
			m.put(CombineKey{Kind: 1, Ref: new(int)}, i)
		}
		m.check()
		if got := m.longestProbe(); got > 64 {
			t.Fatalf("longest probe over 1000 refs at K == 0 is %d slots", got)
		}
	})
	t.Run("keys apart only in K", func(t *testing.T) {
		m := newIxModel(t, 0)
		for k := 0; k < 1000; k++ {
			m.put(CombineKey{Kind: 3, Ref: ixRefs[1], K: uint64(k)}, k)
		}
		m.check()
		if got := m.longestProbe(); got > 8 {
			t.Fatalf("longest probe over 1000 consecutive K is %d slots", got)
		}
	})
	t.Run("keys apart only in Kind", func(t *testing.T) {
		m := newIxModel(t, 0)
		for kind := 0; kind < 256; kind++ {
			m.put(CombineKey{Kind: uint8(kind), Ref: ixRefs[1], K: 7}, kind)
		}
		m.check()
	})
	t.Run("growth without a reset", func(t *testing.T) {
		m := newIxModel(t, 0)
		for k := 0; k < 12000; k++ {
			m.put(CombineKey{Ref: ixRefs[k&3], K: uint64(k)}, k)
			if k&1023 == 0 {
				m.check()
			}
		}
		for k := 0; k < 12000; k += 7 {
			m.put(CombineKey{Ref: ixRefs[k&3], K: uint64(k)}, -k) // refile, no growth
		}
		m.check()
		if m.ix.n != 12000 {
			t.Fatalf("index holds %d keys, want 12000", m.ix.n)
		}
	})
	t.Run("reset cycles across the generation wrap", func(t *testing.T) {
		m := newIxModel(t, math.MaxUint32-500)
		slots := 0
		for cycle := 0; cycle < 1000; cycle++ {
			for k := 0; k < 20; k++ {
				m.put(CombineKey{Ref: ixRefs[1], K: uint64(cycle*7 + k)}, k)
			}
			m.get(CombineKey{Ref: ixRefs[1], K: uint64(cycle*7 - 1)}) // last cycle's, gone
			m.check()
			m.reset()
			m.check()
			if cycle == 0 {
				slots = len(m.ix.slots)
			}
		}
		if m.ix.gen == 0 || m.ix.gen > 500 {
			t.Fatalf("generation %d after 1000 resets from MaxUint32-500: no wrap past zero", m.ix.gen)
		}
		if len(m.ix.slots) != slots {
			t.Fatalf("table went from %d to %d slots over reset cycles", slots, len(m.ix.slots))
		}
	})
}

func FuzzCombineIndex(f *testing.F) {
	for _, script := range ixSeedScripts() {
		f.Add(uint32(0), script)
		f.Add(uint32(math.MaxUint32-1), script)
	}
	f.Fuzz(func(t *testing.T, gen uint32, script []byte) { ixScript(t, gen, script) })
}

// A Buffered miss hands its probe's empty slot to the Enqueue that
// follows it. Against a model of which keys each buffer holds, a
// seeded mix of the merge-before-build write (Buffered, then merge or
// Enqueue), a bare Enqueue, a miss followed by a flush or by another
// key's Enqueue before its own, and capacity flushes over keys that
// grow the index: every Buffered hits exactly when the model holds the
// key, and the delivered ops leave each key at its last written value.
func TestBufferedMissFilesInPlace(t *testing.T) {
	for _, capacity := range []int{8, 1 << 20} {
		c, m := boundCounters(2)
		ref := new(int)
		got := [2]map[uint64]int64{{}, {}}
		a := NewAggregator(0, 2, AggConfig{Capacity: capacity, Combine: true}, c, m, Zero(),
			func(dst int, batch []Op) {
				for _, op := range batch {
					o := op.Exec.(*lastOp)
					got[dst][o.k] = o.v
				}
			})
		held := [2]map[uint64]bool{{}, {}}
		want := [2]map[uint64]int64{{}, {}}
		enqueue := func(dst int, k uint64, v int64) {
			a.Enqueue(dst, Op{Bytes: 16, Exec: &lastOp{ref: ref, k: k, v: v}})
			held[dst][k] = true
			want[dst][k] = v
			if a.PendingTo(dst) == 0 {
				clear(held[dst])
			}
		}
		buffered := func(dst int, k uint64) CombinableOp {
			t.Helper()
			prev := a.Buffered(dst, (&lastOp{ref: ref, k: k}).CombineKey())
			if (prev != nil) != held[dst][k] {
				t.Fatalf("capacity %d: Buffered(%d, %d) hit=%v, model holds it: %v", capacity, dst, k, prev != nil, held[dst][k])
			}
			return prev
		}
		rng := rand.New(rand.NewSource(1))
		for i := int64(1); i <= 20000; i++ {
			dst, k := rng.Intn(2), uint64(rng.Intn(300))
			switch rng.Intn(8) {
			case 0: // a bare Enqueue probes on its own
				enqueue(dst, k, i)
			case 1: // a miss, then a flush of its destination
				buffered(dst, k)
				a.FlushDst(dst)
				clear(held[dst])
				enqueue(dst, k, i)
			case 2: // a miss, then another key's write before its own
				buffered(dst, k)
				enqueue(dst, k+1, i)
				enqueue(dst, k, i)
			default: // the merge-before-build write
				if prev := buffered(dst, k); prev != nil {
					prev.(*lastOp).v = i
					want[dst][k] = i
				} else {
					enqueue(dst, k, i)
				}
			}
		}
		a.Flush()
		for dst := range got {
			if len(got[dst]) != len(want[dst]) {
				t.Fatalf("capacity %d: destination %d received %d keys, want %d", capacity, dst, len(got[dst]), len(want[dst]))
			}
			for k, v := range want[dst] {
				if got[dst][k] != v {
					t.Fatalf("capacity %d: destination %d key %d = %d, want %d", capacity, dst, k, got[dst][k], v)
				}
			}
		}
		if s := c.Snapshot(); s.AggOps+s.AggCombined != s.AggOpsEnq {
			t.Fatalf("capacity %d: shipped+combined != enqueued: %+v", capacity, s)
		}
	}
}
