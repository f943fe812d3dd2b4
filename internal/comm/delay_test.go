package comm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sideBySide has tasks goroutines make charges delays of ns each, side
// by side, and returns the slowest one's wall time. With paced set each
// task charges one Pacer and what the clamp dropped of its stalls is
// taken off its time (a descheduled vCPU is the host's doing, and not
// carrying it is the clamp's job); otherwise every charge is a free
// Delay on a fresh deadline.
func sideBySide(tasks, charges int, ns int64, paced bool) time.Duration {
	took := make([]time.Duration, tasks)
	var wg sync.WaitGroup
	for g := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p Pacer
			var dropped int64
			start := time.Now()
			for i := 0; i < charges; i++ {
				if !paced {
					Delay(ns)
					continue
				}
				before := p.credit
				if waited := p.Delay(ns); waited > 0 {
					dropped += max(0, waited-(ns-before)-maxCredit)
				}
			}
			took[g] = time.Since(start) - time.Duration(dropped)
		}()
	}
	wg.Wait()
	worst := took[0]
	for _, d := range took[1:] {
		worst = max(worst, d)
	}
	return worst
}

// The account's reason to exist: four tasks spinning side by side on two
// CPUs (the benchmark's closed loop) each finish a run of charges in the
// time the model charged them, where a fresh deadline per charge pays
// the spin-yield overshoot on top of every one.
func TestPacerChargesWallTimeOnce(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		tasks   = 4
		charges = 2000
		ns      = 2500
		charged = charges * ns * time.Nanosecond
	)
	pct := func(d time.Duration) float64 { return 100 * (float64(d)/float64(charged) - 1) }
	unpaced := sideBySide(tasks, charges, ns, false)
	t.Logf("fresh deadline per charge: slowest task %v for %v charged (%+.0f%%)", unpaced, charged, pct(unpaced))
	// A stall that lands between two charges is in no delay's books;
	// three attempts keep one from failing the test.
	var paced time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		paced = sideBySide(tasks, charges, ns, true)
		t.Logf("paced: slowest task %v for %v charged (%+.1f%%)", paced, charged, pct(paced))
		if pct(paced) <= 10 {
			return
		}
	}
	t.Errorf("slowest task took %v for %v charged, want within +10%%", paced, charged)
}

// stallInDelay makes one p.Delay(ns) overshoot by about stall: on a
// single P the delay's yields hand the CPU to a goroutine that holds it
// for that long. The scheduler may run something else in the delay's
// short window, so a missed stall is waited out and tried again with a
// fresh delay. It reports whether a stall happened inside a delay, and
// what its delays waited and were charged in all. The caller must have
// set GOMAXPROCS to 1.
func stallInDelay(p *Pacer, ns int64, stall time.Duration) (waited, charged int64, ok bool) {
	for attempt := 0; attempt < 50; attempt++ {
		var ran atomic.Bool
		done := make(chan struct{})
		go func() {
			for start := time.Now(); time.Since(start) < stall; {
			}
			ran.Store(true)
			close(done)
		}()
		waited += p.Delay(ns)
		charged += ns
		if ran.Load() {
			return waited, charged, true
		}
		<-done
	}
	return waited, charged, false
}

// A stall inside a delay is carried only up to the clamp: it buys
// maxCredit nanoseconds of skipped charges, after which the task waits
// again.
func TestPacerCreditIsClamped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p Pacer
	if _, _, ok := stallInDelay(&p, 20_000, 5*time.Millisecond); !ok {
		t.Skip("the stalling goroutine was not scheduled inside the delay")
	}
	if got := p.Credit(); got != maxCredit {
		t.Fatalf("credit after a 5ms stall = %dns, want the clamp %dns", got, maxCredit)
	}
	const ns = 2500
	for i := 0; i < maxCredit/ns; i++ {
		if waited := p.Delay(ns); waited != 0 {
			t.Fatalf("charge %d waited %dns with %dns of credit left", i, waited, p.Credit())
		}
	}
	if got := p.Credit(); got != 0 {
		t.Fatalf("credit after spending the clamp = %dns, want 0", got)
	}
	if waited := p.Delay(ns); waited < ns {
		t.Fatalf("first charge past the clamp waited %dns, want at least %dns", waited, ns)
	}
}

// Every nanosecond an account waits is charged, carried or dropped: the
// part of a stall past the clamp is Dropped, and the waits add up to
// the charges plus Dropped plus Credit exactly, stall or not.
func TestPacerWaitsBalance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p Pacer
	waited, charged, ok := stallInDelay(&p, 20_000, 5*time.Millisecond)
	if !ok {
		t.Skip("the stalling goroutine was not scheduled inside the delay")
	}
	if p.Dropped() < int64(4*time.Millisecond) {
		t.Fatalf("a 5ms stall dropped %dns past the %dns clamp", p.Dropped(), maxCredit)
	}
	for _, ns := range []int64{2500, 60_000, 2500, 0, 200_000, 2500} {
		waited += p.Delay(ns)
		charged += ns
		if waited != charged+p.Dropped()+p.Credit() {
			t.Fatalf("after a %dns charge: waited %dns, charged %dns, dropped %dns, credit %dns",
				ns, waited, charged, p.Dropped(), p.Credit())
		}
	}
}

// A tab waits for nothing and owes the sum of what it was charged;
// opening it again empties it.
func TestPacerTab(t *testing.T) {
	var p Pacer
	p.OpenTab()
	start := time.Now()
	for _, ns := range []int64{2500, 0, 1_000_000_000, -7, 1200} {
		if waited := p.Delay(ns); waited != 0 {
			t.Fatalf("a tab waited %dns for a %dns charge", waited, ns)
		}
	}
	if got := time.Since(start); got >= 500*time.Millisecond {
		t.Fatalf("a tab charged a second and took %v of wall time", got)
	}
	if got, want := p.Owed(), int64(2500+1_000_000_000+1200); got != want {
		t.Fatalf("tab owes %dns, want %dns", got, want)
	}
	if p.Credit() != 0 {
		t.Fatalf("a tab carried %dns of credit", p.Credit())
	}
	p.OpenTab()
	if p.Owed() != 0 {
		t.Fatalf("a reopened tab owes %dns", p.Owed())
	}
}

// A charge the credit does not cover waits only for the remainder.
func TestPacerPartialCredit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ns = maxCredit + 30_000
	var waited int64
	for attempt := 0; attempt < 3; attempt++ {
		var p Pacer
		if _, _, ok := stallInDelay(&p, 20_000, 5*time.Millisecond); !ok {
			t.Skip("the stalling goroutine was not scheduled inside the delay")
		}
		if waited = p.Delay(ns); waited >= ns-maxCredit && waited < ns {
			return
		}
	}
	t.Fatalf("a %dns charge against %dns of credit waited %dns", ns, maxCredit, waited)
}
