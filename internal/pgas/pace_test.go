package pgas

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
)

// paceProfile has one distinct cost per charge class, all on the spin
// path, so a test can tell from a credit delta which charges it paid.
var paceProfile = comm.LatencyProfile{
	AMRoundTripNS: 2500,
	OnStmtNS:      1500,
	PutGetNS:      1200,
	BulkStartupNS: 3000,
	BulkPerByteNS: 1,
}

// stallCredit fills c's delay account to the clamp: on a single P a
// delay's yields hand the CPU to a goroutine that holds it for
// milliseconds. A stall the scheduler did not place inside the delay is
// waited out and tried again; the test is skipped only if none landed.
func stallCredit(t *testing.T, c *Ctx) int64 {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		var ran atomic.Bool
		done := make(chan struct{})
		go func() {
			for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
			}
			ran.Store(true)
			close(done)
		}()
		c.pace.Delay(20_000)
		if ran.Load() {
			return c.pace.Credit()
		}
		<-done
	}
	t.Skip("the stalling goroutine was never scheduled inside the delay")
	return 0
}

// A synchronous on-statement body and an aggregated delivery run on the
// goroutine of the task blocked on them, so what they charge lands on
// that task's account: with credit in hand the caller waits for none of
// it, and the pooled Ctx takes no credit back to the pool.
func TestBodyChargesLandOnCallersAccount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone, Latency: paceProfile})
	defer s.Shutdown()
	c := s.Ctx(0)
	credit := stallCredit(t, c)
	modelled, _, waited := s.DelayTotals()

	// spent asserts that the account paid exactly ns more, from credit.
	spent := func(what string, ns int64) {
		t.Helper()
		credit -= ns
		modelled += ns
		if got := c.pace.Credit(); got != credit {
			t.Fatalf("%s: caller's credit = %dns, want %dns", what, got, credit)
		}
		if m, _, w := s.DelayTotals(); m != modelled || w != waited {
			t.Fatalf("%s: totals = (%d, %d), want (%d, %d)", what, m, w, modelled, waited)
		}
	}
	body := func(tc *Ctx) {
		if tc.pace != c.pace {
			t.Error("body's Ctx does not charge the caller's account")
		}
		tc.ChargeGet(2)
	}
	price := paceProfile.Prices()
	c.On(1, body)
	spent("on-statement", price.Event[comm.KindOnStmt]+price.Event[comm.KindGet])

	c.Aggregator(1).Call(body)
	c.Aggregator(1).Flush()
	spent("aggregated delivery", price.Bulk(aggCallBytes)+price.Event[comm.KindGet])

	// The next borrower of the pooled Ctx starts from nothing.
	tc := s.borrowCtx(s.locales[1], nil)
	if tc.pace != &tc.pacer || tc.pace.Credit() != 0 {
		t.Fatalf("pooled Ctx came back with %dns of credit (own account: %v)", tc.pace.Credit(), tc.pace == &tc.pacer)
	}
	s.releaseCtx(tc)
}

// Spawned tasks are goroutines of their own: each pays from its own
// account, starting at zero, and leaves the spawner's alone.
func TestSpawnedTasksOwnTheirAccounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone, Latency: paceProfile})
	defer s.Shutdown()
	c := s.Ctx(0)
	credit := stallCredit(t, c)
	check := func(tc *Ctx) {
		if tc.pace != &tc.pacer {
			t.Error("spawned task charges an account that is not its own")
		}
		tc.ChargeGet((tc.Here() + 1) % 3)
	}
	c.AsyncOn(1, check)
	c.Flush()
	c.CoforallLocales(check)
	ForallCyclic(c, 6, 1, func(tc *Ctx) struct{} { check(tc); return struct{}{} }, func(*Ctx, struct{}, int) {}, nil)
	if got := c.pace.Credit(); got != credit {
		t.Fatalf("spawner's credit moved from %dns to %dns", credit, got)
	}
}

// The flush charge of an aggregation buffer follows the live fault
// plan like every other charge, even when the buffer was created before
// the plan was installed.
func TestAggFlushFollowsLivePerturbation(t *testing.T) {
	const startupNS = 100_000 // above the spin/sleep threshold
	const scale = 4
	s := NewSystem(Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Latency: comm.LatencyProfile{BulkStartupNS: startupNS},
	})
	defer s.Shutdown()
	c := s.Ctx(0)
	buf := c.Aggregator(1)
	buf.Call(func(*Ctx) {})
	s.SetScales([]float64{1, scale})
	start := time.Now()
	buf.Flush()
	if got, want := time.Since(start), time.Duration(scale*startupNS); got < want {
		t.Fatalf("flush toward the slowed locale took %v, want at least the scaled startup %v", got, want)
	}
	if m, perturb, _ := s.DelayTotals(); m != startupNS || perturb != (scale-1)*startupNS {
		t.Fatalf("flush booked %dns modelled + %dns perturbation, want %dns + %dns", m, perturb, startupNS, (scale-1)*startupNS)
	}
}
