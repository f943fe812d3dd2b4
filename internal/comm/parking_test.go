package comm

import "testing"

// collectRedeliver records redelivered batches so tests can check what
// went back out and in what shape.
type collectRedeliver struct {
	batches map[int][][]Op
	bytes   int64
}

func (cr *collectRedeliver) fn(dst int, batch []Op, bytes int64) {
	if cr.batches == nil {
		cr.batches = make(map[int][][]Op)
	}
	cr.batches[dst] = append(cr.batches[dst], batch)
	cr.bytes += bytes
}

func parkBooks(t *testing.T, c *Counters) (parked, redelivered, expired int64) {
	t.Helper()
	snap := c.Snapshot()
	return snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired
}

func TestParkingRedeliverOnReachable(t *testing.T) {
	var ctrs Counters
	var cr collectRedeliver
	p := NewParking(0, 4, ParkConfig{}, &ctrs, cr.fn)

	severed := true
	reach := func(dst int) bool { return !severed }
	for i := 0; i < 5; i++ {
		if !p.Park(2, Op{Bytes: 16, Exec: i}, 100, reach) {
			t.Fatal("ledger refused a park toward a severed pair")
		}
	}
	if p.Parked() != 5 {
		t.Fatalf("parked %d ops, want 5", p.Parked())
	}

	// A pass while still severed: nothing redelivers, nothing has
	// reached its deadline yet.
	p.Settle(200, false, reach)
	if len(cr.batches) != 0 {
		t.Fatalf("redelivered through a severed link: %v", cr.batches)
	}
	if pk, re, ex := parkBooks(t, &ctrs); pk != 5 || re != 0 || ex != 0 {
		t.Fatalf("books after severed pass: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}

	// Heal: the pass ships the whole buffer as one batch.
	severed = false
	p.Settle(300, false, reach)
	if got := len(cr.batches[2]); got != 1 {
		t.Fatalf("healed pass shipped %d batches to dst 2, want 1", got)
	}
	if got := len(cr.batches[2][0]); got != 5 {
		t.Fatalf("redelivered batch holds %d ops, want 5", got)
	}
	if cr.bytes != 5*16 {
		t.Fatalf("redelivered %d bytes, want %d", cr.bytes, 5*16)
	}
	if pk, re, ex := parkBooks(t, &ctrs); pk != 5 || re != 5 || ex != 0 {
		t.Fatalf("books after heal: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
	if p.Parked() != 0 {
		t.Fatalf("%d ops still parked after redelivery", p.Parked())
	}
}

// Park asks reachable under the ledger lock: a pair healed since admit
// saw it severed is delivered now — Park books nothing, buffers
// nothing and reports false.
func TestParkingReachableAgainDeliversNow(t *testing.T) {
	var ctrs Counters
	p := NewParking(0, 2, ParkConfig{}, &ctrs, func(int, []Op, int64) {
		t.Fatal("an op that was never parked redelivered")
	})
	if p.Park(1, Op{Bytes: 16}, 0, func(int) bool { return true }) {
		t.Fatal("Park toward a reachable pair parked the op")
	}
	if pk, re, ex := parkBooks(t, &ctrs); pk != 0 || re != 0 || ex != 0 {
		t.Fatalf("deliver-now touched the books: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
	if p.Parked() != 0 {
		t.Fatalf("deliver-now left %d ops in the ledger", p.Parked())
	}
	p.Settle(1, true, func(int) bool { return true })
}

func TestParkingDeadlineExpires(t *testing.T) {
	var ctrs Counters
	var cr collectRedeliver
	cfg := ParkConfig{DeadlineNS: 1000}
	p := NewParking(0, 2, cfg, &ctrs, cr.fn)
	reach := func(dst int) bool { return false }

	p.Park(1, Op{Bytes: 16}, 0, reach)
	p.Park(1, Op{Bytes: 16}, 500, reach)
	// At t=1100 only the first op is past its deadline.
	p.Settle(1100, false, reach)
	if pk, re, ex := parkBooks(t, &ctrs); pk != 2 || re != 0 || ex != 1 {
		t.Fatalf("books after partial expiry: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
	if p.Parked() != 1 {
		t.Fatalf("%d ops parked after partial expiry, want 1", p.Parked())
	}
	// Final drain expires the survivor wholesale, deadline or not.
	p.Settle(1200, true, reach)
	if pk, re, ex := parkBooks(t, &ctrs); pk != re+ex || ex != 2 {
		t.Fatalf("settlement broken: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
	if p.Parked() != 0 {
		t.Fatalf("ledger not empty after the final pass: %d", p.Parked())
	}
}

// A reachable destination's pass drops the ops past their deadline
// before it redelivers: the expired prefix never goes back out, and
// the batch carries only the survivors' bytes. An op filed with an
// earlier clock reading than the one ahead of it still expires no
// earlier than that one, so the expired ops stay a prefix.
func TestParkingSettleExpiresBeforeRedelivering(t *testing.T) {
	var ctrs Counters
	var cr collectRedeliver
	p := NewParking(0, 2, ParkConfig{DeadlineNS: 1000}, &ctrs, cr.fn)
	severed := func(int) bool { return false }
	p.Park(1, Op{Bytes: 8, Exec: "old"}, 0, severed)
	p.Park(1, Op{Bytes: 16, Exec: "young"}, 800, severed)
	p.Park(1, Op{Bytes: 32, Exec: "late stamp"}, 700, severed)

	p.Settle(1100, false, func(int) bool { return true })
	if pk, re, ex := parkBooks(t, &ctrs); pk != 3 || re != 2 || ex != 1 {
		t.Fatalf("books after the heal's pass: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
	if got := cr.batches[1]; len(got) != 1 || len(got[0]) != 2 || got[0][0].Exec != "young" || got[0][1].Exec != "late stamp" {
		t.Fatalf("redelivered %v, want one batch [young, late stamp]", got)
	}
	if cr.bytes != 16+32 {
		t.Fatalf("redelivered %d bytes, want %d", cr.bytes, 16+32)
	}
	if p.Parked() != 0 {
		t.Fatalf("%d ops still parked after the heal's pass", p.Parked())
	}
}

func TestParkingOverflowParksThenExpires(t *testing.T) {
	var ctrs Counters
	var cr collectRedeliver
	p := NewParking(0, 2, ParkConfig{Capacity: 2}, &ctrs, cr.fn)
	severed := func(int) bool { return false }
	for i := 0; i < 5; i++ {
		if !p.Park(1, Op{Bytes: 16}, 0, severed) {
			t.Fatal("ledger refused a park toward a severed pair")
		}
	}
	// 2 buffered + 3 overflowed: every op booked parked, the overflow
	// settled immediately as expired.
	if pk, re, ex := parkBooks(t, &ctrs); pk != 5 || re != 0 || ex != 3 {
		t.Fatalf("overflow books: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
	if p.Parked() != 2 {
		t.Fatalf("buffer holds %d ops, want capacity 2", p.Parked())
	}
	// The buffered two still redeliver on heal: settlement is exact.
	p.Settle(1, false, func(int) bool { return true })
	if pk, re, ex := parkBooks(t, &ctrs); pk != 5 || re != 2 || ex != 3 || pk != re+ex {
		t.Fatalf("settlement after heal: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
}

func TestPerturbationPartitionSet(t *testing.T) {
	var p Perturbation
	p = p.WithPartition(1, 2)
	p = p.WithPartition(2, 1) // idempotent across orientation
	if len(p.Partitions) != 1 {
		t.Fatalf("partitions = %v, want one pair", p.Partitions)
	}
	if !p.Partitioned(1, 2) || !p.Partitioned(2, 1) {
		t.Fatal("severed pair not reported partitioned in both orders")
	}
	if p.Partitioned(0, 1) {
		t.Fatal("unsevered pair reported partitioned")
	}
	q, was := p.WithoutPartition(2, 1)
	if !was || q.Partitioned(1, 2) {
		t.Fatalf("heal failed: was=%v partitions=%v", was, q.Partitions)
	}
	if _, was := q.WithoutPartition(1, 2); was {
		t.Fatal("healing an unsevered pair reported success")
	}
}

// A disabled config builds no ledger; the nil ledger a system keeps in
// its place settles nothing, holds nothing, redelivers nothing and
// never touches the books, even on the final pass.
func TestParkingDisabled(t *testing.T) {
	var ctrs Counters
	p := NewParking(0, 2, ParkConfig{Disable: true}, &ctrs, func(int, []Op, int64) {
		t.Fatal("disabled ledger redelivered")
	})
	if p != nil {
		t.Fatal("disabled config built a ledger")
	}
	p.Settle(0, false, func(int) bool { return true })
	p.Settle(1, true, func(int) bool { return false })
	if n := p.Parked(); n != 0 {
		t.Fatalf("disabled ledger holds %d ops", n)
	}
	if pk, re, ex := parkBooks(t, &ctrs); pk != 0 || re != 0 || ex != 0 {
		t.Fatalf("disabled ledger touched the books: parked=%d redelivered=%d expired=%d", pk, re, ex)
	}
}
