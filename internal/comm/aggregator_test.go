package comm

import "testing"

// A capacity-policy aggregator auto-flushes full buffers: 1000 ops to
// one destination at capacity 256 ship in exactly 4 flushes, each also
// counted as one bulk transfer.
func TestAggregatorCapacityFlush(t *testing.T) {
	var c Counters
	var delivered [][]Op
	a := NewAggregator(0, 4, AggConfig{Capacity: 256}, &c, nil, Zero(),
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
	var c Counters
	var delivered []Op
	ref := new(int)
	a := NewAggregator(0, 4, AggConfig{Capacity: 256, Combine: true}, &c, nil, Zero(),
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
	var c Counters
	ref := new(int)
	a := NewAggregator(0, 2, AggConfig{Combine: true}, &c, nil, Zero(), func(int, []Op) {})
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
	var c Counters
	ref := new(int)
	off := NewAggregator(0, 2, AggConfig{}, &c, nil, Zero(), func(int, []Op) {})
	for i := 0; i < 5; i++ {
		off.Enqueue(1, Op{Bytes: 16, Exec: &sumOp{ref: ref, k: 1, delta: 1}})
	}
	off.Flush()
	if s := c.Snapshot(); s.AggOps != 5 || s.AggCombined != 0 {
		t.Fatalf("Combine=false merged: %+v", s)
	}
	c.Reset()
	on := NewAggregator(0, 2, AggConfig{Combine: true}, &c, nil, Zero(), func(int, []Op) {})
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
	var c Counters
	ref := new(int)
	var batches [][]Op
	a := NewAggregator(0, 2, AggConfig{Combine: true}, &c, nil, Zero(),
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
	var c Counters
	var delivered []Op
	ref := new(int)
	a := NewAggregator(0, 4, AggConfig{Combine: true}, &c, nil, Zero(),
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
	off := NewAggregator(0, 2, AggConfig{}, &c, nil, Zero(), func(int, []Op) {})
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
	var c Counters
	n := 0
	a := NewAggregator(0, 2, AggConfig{Capacity: 4, Policy: FlushManual}, &c, nil, Zero(),
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

// Flushes are attributed to the (src, dst) matrix cell.
func TestAggregatorMatrixAttribution(t *testing.T) {
	var c Counters
	m := NewMatrix(3)
	a := NewAggregator(1, 3, AggConfig{}, &c, m, Zero(), func(int, []Op) {})
	a.Enqueue(0, Op{Bytes: 8})
	a.Enqueue(2, Op{Bytes: 8})
	a.Enqueue(2, Op{Bytes: 8})
	a.Flush()
	if m.Get(1, 0) != 1 || m.Get(1, 2) != 1 {
		t.Fatalf("matrix rows: %v", m.Snapshot())
	}
	if got := c.Snapshot().AggFlushes; got != 2 {
		t.Fatalf("AggFlushes = %d, want 2", got)
	}
}

// Capacity defaulting and the effective-capacity accessor.
func TestAggregatorDefaultCapacity(t *testing.T) {
	var c Counters
	a := NewAggregator(0, 1, AggConfig{}, &c, nil, Zero(), func(int, []Op) {})
	if a.Capacity() != DefaultAggCapacity {
		t.Fatalf("capacity = %d, want %d", a.Capacity(), DefaultAggCapacity)
	}
}
