package pgas

import (
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/trace"
)

func TestSeverHealErrors(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	if err := s.Sever(0, 3); err == nil {
		t.Fatal("sever out of range succeeded")
	}
	if err := s.Sever(-1, 1); err == nil {
		t.Fatal("sever negative locale succeeded")
	}
	if err := s.Sever(1, 1); err == nil {
		t.Fatal("sever self-pair succeeded")
	}
	if err := s.Heal(0, 1); err == nil {
		t.Fatal("healing an unsevered pair succeeded")
	}
	if err := s.Sever(0, 1); err != nil {
		t.Fatalf("sever: %v", err)
	}
	if err := s.Sever(1, 0); err != nil {
		t.Fatalf("re-sever (idempotent) errored: %v", err)
	}
	if s.Reachable(0, 1) || s.Reachable(1, 0) {
		t.Fatal("severed pair still reachable")
	}
	if !s.Reachable(0, 2) || !s.Reachable(1, 2) {
		t.Fatal("sever leaked beyond its pair")
	}
	if !s.Alive(0) || !s.Alive(1) {
		t.Fatal("sever killed a locale")
	}
	if err := s.Heal(1, 0); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if !s.Reachable(0, 1) {
		t.Fatal("pair still severed after heal")
	}
	if err := s.Heal(0, 1); err == nil {
		t.Fatal("double heal succeeded")
	}
}

// Aggregated ops refused by a partition park and redeliver on heal:
// nothing lands while severed, everything lands after, and the books
// settle with zero lost ops.
// SetScales replaces only the latency half of the fault plan, under the
// same lock as Sever and Heal (faultMu): a sever/heal loop racing a
// latency-swap loop never sees its sever undone by a swap that read the
// plan before it, so every heal finds its pair severed and the pair ends
// reachable.
func TestLatencySwapKeepsFaultPlan(t *testing.T) {
	s := NewSystem(Config{Locales: 4, Backend: comm.BackendNone})
	defer s.Shutdown()

	const rounds = 20_000
	done := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		swaps := [][]float64{{1, 2, 1, 1}, {1, 1, 1, 4}, nil}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s.SetScales(swaps[i%len(swaps)])
		}
	}()
	failed := 0
	for i := 0; i < rounds; i++ {
		if err := s.Sever(1, 2); err != nil {
			t.Fatalf("sever %d: %v", i, err)
		}
		if err := s.Heal(1, 2); err != nil {
			failed++
		}
	}
	close(done)
	<-swapped
	if failed != 0 {
		t.Errorf("%d of %d heals found their pair already healed by a latency swap", failed, rounds)
	}
	if !s.Reachable(1, 2) {
		t.Error("pair (1, 2) still severed after the last heal")
	}
}

func TestPartitionParkAndRedeliver(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	const ops = 8
	var landed atomic.Int64
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		for i := 0; i < ops; i++ {
			c.Aggregator(1).Call(func(tc *Ctx) { landed.Add(1) })
		}
		c.Flush()
		if got := landed.Load(); got != 0 {
			t.Fatalf("%d ops landed through a severed link", got)
		}
		snap := s.Counters().Snapshot()
		if snap.OpsParked != ops || snap.OpsRedelivered != 0 {
			t.Fatalf("books while severed: parked=%d redelivered=%d", snap.OpsParked, snap.OpsRedelivered)
		}
		if s.ParkedOps() != ops {
			t.Fatalf("ledger holds %d ops, want %d", s.ParkedOps(), ops)
		}

		// Heal settles synchronously: the parked batch has executed by the
		// time Heal returns.
		if err := s.Heal(0, 1); err != nil {
			t.Fatalf("heal: %v", err)
		}
		if got := landed.Load(); got != ops {
			t.Fatalf("%d ops landed after heal, want %d", got, ops)
		}
	})
	snap := s.Counters().Snapshot()
	if snap.OpsParked != ops || snap.OpsRedelivered != ops || snap.OpsExpired != 0 {
		t.Fatalf("settlement: parked=%d redelivered=%d expired=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired)
	}
	if snap.OpsLost != 0 {
		t.Fatalf("partition charged the crash ledger: opsLost=%d", snap.OpsLost)
	}
}

// TryOn is the dispatch that books nothing when refused: against a
// partitioned pair, and then a crashed target, it returns false without
// running fn and leaves the whole counter snapshot, the retry ledgers
// and the delay account as they were. A salvage context is never
// refused, and a delivered TryOn books and charges exactly what On does.
func TestTryOnRefusesWithoutBooking(t *testing.T) {
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone, Latency: comm.DefaultProfile().Scale(0.01)})
	defer s.Shutdown()
	c := s.Ctx(0)
	ran := 0
	fn := func(*Ctx) { ran++ }
	refused := func(fault string) {
		t.Helper()
		before := s.Counters().Snapshot()
		modelled, _, _ := s.DelayTotals()
		if c.TryOn(1, fn) || ran != 0 {
			t.Fatalf("%s: TryOn delivered (ran %d)", fault, ran)
		}
		if d := s.Counters().Snapshot(); d != before {
			t.Fatalf("%s: refusal booked\n %+v\nwas\n %+v", fault, d, before)
		}
		if m, _, _ := s.DelayTotals(); m != modelled {
			t.Fatalf("%s: refusal charged %d ns", fault, m-modelled)
		}
		if n := s.ParkedOps(); n != 0 {
			t.Fatalf("%s: refusal parked %d ops", fault, n)
		}
	}
	if err := s.Sever(0, 1); err != nil {
		t.Fatal(err)
	}
	refused("partitioned")
	if err := s.Crash(1); err != nil {
		t.Fatal(err)
	}
	refused("crashed")

	if !c.Salvage().TryOn(1, fn) || ran != 1 {
		t.Fatalf("salvage TryOn refused (ran %d)", ran)
	}
	before := s.Counters().Snapshot()
	c.On(2, fn)
	viaOn := s.Counters().Snapshot().Sub(before)
	before = s.Counters().Snapshot()
	if !c.TryOn(2, fn) || ran != 3 {
		t.Fatalf("TryOn to a healthy locale refused (ran %d)", ran)
	}
	if viaTry := s.Counters().Snapshot().Sub(before); viaTry != viaOn || viaOn.OnStmts != 1 {
		t.Fatalf("TryOn booked %+v, On booked %+v", viaTry, viaOn)
	}
}

// AsyncOn against a severed pair parks without wedging quiescence; the
// task runs when the pair heals.
func TestPartitionAsyncOnParks(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	var ran atomic.Int64
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		c.AsyncOn(1, func(tc *Ctx) { ran.Add(1) })
		// Flush quiesces: the parked async must not be counted as
		// in-flight or this would deadlock.
		c.Flush()
		if ran.Load() != 0 {
			t.Fatal("async ran through a severed link")
		}
		if err := s.Heal(0, 1); err != nil {
			t.Fatalf("heal: %v", err)
		}
		c.Flush()
		if ran.Load() != 1 {
			t.Fatalf("async ran %d times after heal, want 1", ran.Load())
		}
	})
	snap := s.Counters().Snapshot()
	if snap.OpsParked != 1 || snap.OpsRedelivered != 1 || snap.OpsLost != 0 {
		t.Fatalf("async books: parked=%d redelivered=%d lost=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsLost)
	}
}

// A synchronous on-statement cannot park in the ledger — the caller is
// waiting — so it retries in place and completes once another goroutine
// heals the pair.
func TestPartitionSyncOnRetriesUntilHeal(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		go func() {
			time.Sleep(2 * time.Millisecond)
			if err := s.Heal(0, 1); err != nil {
				t.Errorf("heal: %v", err)
			}
		}()
		var visited int
		c.On(1, func(rc *Ctx) { visited = rc.Here() })
		if visited != 1 {
			t.Fatalf("on-statement ran on locale %d, want 1", visited)
		}
	})
	snap := s.Counters().Snapshot()
	if snap.OpsParked != 1 || snap.OpsRedelivered != 1 || snap.OpsExpired != 0 || snap.OpsLost != 0 {
		t.Fatalf("sync retry books: parked=%d redelivered=%d expired=%d lost=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired, snap.OpsLost)
	}
}

// A synchronous on-statement against a pair that never heals expires at
// the parking deadline and drops, booked expired — not lost.
func TestPartitionSyncOnExpires(t *testing.T) {
	s := NewSystem(Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Park:    comm.ParkConfig{DeadlineNS: int64(time.Millisecond)},
	})
	defer s.Shutdown()
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		ran := false
		c.On(1, func(rc *Ctx) { ran = true })
		if ran {
			t.Fatal("expired on-statement executed")
		}
		if err := s.Heal(0, 1); err != nil {
			t.Fatalf("heal: %v", err)
		}
	})
	snap := s.Counters().Snapshot()
	if snap.OpsParked != 1 || snap.OpsExpired != 1 || snap.OpsRedelivered != 0 || snap.OpsLost != 0 {
		t.Fatalf("expiry books: parked=%d redelivered=%d expired=%d lost=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired, snap.OpsLost)
	}
}

// Park.Disable reverts partitions to fail-stop accounting: refused ops
// drain to OpsLost like crash refusals, and the retry ledgers stay
// untouched — the ablation baseline.
func TestPartitionDisabledFailStop(t *testing.T) {
	s := NewSystem(Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Park:    comm.ParkConfig{Disable: true},
	})
	defer s.Shutdown()
	const ops = 4
	var landed atomic.Int64
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		for i := 0; i < ops; i++ {
			c.Aggregator(1).Call(func(tc *Ctx) { landed.Add(1) })
		}
		c.Flush()
		if n := s.ParkedOps(); n != 0 {
			t.Fatalf("disabled retry plane parked %d ops", n)
		}
		if err := s.Heal(0, 1); err != nil {
			t.Fatalf("heal: %v", err)
		}
		c.Flush()
	})
	if landed.Load() != 0 {
		t.Fatalf("%d fail-stopped ops landed after heal", landed.Load())
	}
	snap := s.Counters().Snapshot()
	if snap.OpsLost != ops || snap.OpsParked != 0 || snap.OpsRedelivered != 0 {
		t.Fatalf("disabled books: lost=%d parked=%d redelivered=%d",
			snap.OpsLost, snap.OpsParked, snap.OpsRedelivered)
	}
}

// Heal's settlement pass drops what has outlived the parking deadline
// before it redelivers: an op parked longer than that expires at the
// heal instead of landing late.
func TestHealExpiresOpsPastDeadline(t *testing.T) {
	const deadline = 100 * time.Microsecond
	s := NewSystem(Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Park:    comm.ParkConfig{DeadlineNS: int64(deadline)},
	})
	defer s.Shutdown()
	var landed atomic.Int64
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		c.Aggregator(1).Call(func(*Ctx) { landed.Add(1) })
		c.Flush()
		time.Sleep(2 * deadline)
		if err := s.Heal(0, 1); err != nil {
			t.Fatalf("heal: %v", err)
		}
	})
	if landed.Load() != 0 {
		t.Fatal("an op parked past its deadline was redelivered at the heal")
	}
	snap := s.Counters().Snapshot()
	if snap.OpsParked != 1 || snap.OpsExpired != 1 || snap.OpsRedelivered != 0 || snap.OpsLost != 0 {
		t.Fatalf("heal books: parked=%d redelivered=%d expired=%d lost=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired, snap.OpsLost)
	}
	if s.ParkedOps() != 0 {
		t.Fatalf("ledger not empty after the heal: %d", s.ParkedOps())
	}
}

// DrainParking (and hence Shutdown) settles a still-severed ledger by
// expiring it: every parked op books exactly one settlement.
func TestDrainParkingExpiresSevered(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	const ops = 3
	var landed atomic.Int64
	s.Run(func(c *Ctx) {
		if err := s.Sever(0, 1); err != nil {
			t.Fatalf("sever: %v", err)
		}
		for i := 0; i < ops; i++ {
			c.Aggregator(1).Call(func(tc *Ctx) { landed.Add(1) })
		}
		c.Flush()
	})
	s.DrainParking()
	if landed.Load() != 0 {
		t.Fatalf("%d ops landed through a never-healed link", landed.Load())
	}
	snap := s.Counters().Snapshot()
	if snap.OpsParked != ops || snap.OpsExpired != ops || snap.OpsRedelivered != 0 {
		t.Fatalf("drain books: parked=%d redelivered=%d expired=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired)
	}
	if snap.OpsLost != 0 {
		t.Fatalf("drain charged the crash ledger: opsLost=%d", snap.OpsLost)
	}
	if s.ParkedOps() != 0 {
		t.Fatalf("ledger not empty after drain: %d", s.ParkedOps())
	}
}

// Partition and heal emit always-on trace instants: control-plane
// kinds, recorded even at a sample rate that suppresses everything
// sampled.
func TestPartitionTraceInstants(t *testing.T) {
	rec := trace.NewRecorder(2, trace.Config{SampleRate: 1 << 20})
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, Tracer: rec})
	defer s.Shutdown()
	if err := s.Sever(0, 1); err != nil {
		t.Fatalf("sever: %v", err)
	}
	if err := s.Heal(0, 1); err != nil {
		t.Fatalf("heal: %v", err)
	}
	var partitions, heals int
	for _, ev := range rec.Drain(0) {
		switch ev.Kind {
		case trace.KindPartition:
			partitions++
		case trace.KindHeal:
			heals++
		}
	}
	if partitions != 1 || heals != 1 {
		t.Fatalf("trace instants: partition=%d heal=%d, want 1 each", partitions, heals)
	}
}
