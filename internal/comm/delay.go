package comm

import (
	"runtime"
	"time"
)

const (
	// maxCredit bounds a Pacer's carried overshoot, in ns: a GC pause or
	// a descheduled vCPU inside one delay buys this much skipped waiting,
	// never a long burst of free charges.
	maxCredit = 100_000

	// sleepThreshold is the OS timer resolution (~50µs): shorter waits
	// spin-yield, longer ones sleep.
	sleepThreshold = 50_000
)

// clockBase anchors the delay clock: time.Since of a Time that carries
// a monotonic reading is one clock read (time.Now is two).
var clockBase = time.Now()

// ClockNS reads the delay clock: monotonic nanoseconds since process
// start, for timing an interval with one clock read at each end.
func ClockNS() int64 { return int64(time.Since(clockBase)) }

// Pacer is one task's delay account: every modelled nanosecond is
// charged once. A wait never ends exactly on its deadline — the
// spin-yield loop and the run queue overshoot by a microsecond or so —
// and the Pacer carries that overshoot as credit into the task's next
// charges instead of letting each of them pay it again, so the wall
// time a task spends in delays equals what the model charged it. The
// zero value is an empty account; a Pacer is task-private.
//
// A Pacer can also be a tab (OpenTab), which waits for nothing: its
// charges only add up, for a caller that runs in turn bodies the model
// runs in parallel and then waits once, on its own account, for the
// largest.
type Pacer struct {
	credit  int64 // ns waited beyond what was charged, <= maxCredit
	dropped int64 // overshoot past maxCredit: waited, never carried
	owed    int64 // a tab's charges since it was opened
	tab     bool
}

// Credit returns the carried overshoot in nanoseconds (diagnostic).
func (p *Pacer) Credit() int64 { return p.credit }

// Dropped returns the overshoot the clamp discarded: nanoseconds the
// account waited that no charge pays for and no credit carries. What an
// account has waited is exactly what it was charged plus Dropped plus
// Credit.
func (p *Pacer) Dropped() int64 { return p.dropped }

// OpenTab makes p an empty tab: until the next OpenTab, Delay adds each
// charge to Owed and returns at once.
func (p *Pacer) OpenTab() { *p = Pacer{tab: true} }

// Owed returns what a tab has been charged since it was opened.
func (p *Pacer) Owed() int64 { return p.owed }

// Delay charges ns to the account and returns the wall nanoseconds it
// waited: none, and no clock read, while the credit covers the charge;
// otherwise until now + ns − credit, booking the overshoot as the new
// credit. The wait yields to the Go scheduler so that concurrent
// simulated operations overlap the way in-flight network operations do
// on real hardware — the latency hiding the figures depend on. ns <= 0
// is a no-op, so the zero latency profile costs only the branch.
func (p *Pacer) Delay(ns int64) (waited int64) {
	if ns <= 0 {
		return 0
	}
	if p.tab {
		p.owed += ns
		return 0
	}
	if p.credit >= ns {
		p.credit -= ns
		return 0
	}
	start := ClockNS()
	deadline := start + ns - p.credit
	now := start
	if deadline-start >= sleepThreshold {
		time.Sleep(time.Duration(deadline - start))
		now = ClockNS()
	}
	for now < deadline {
		runtime.Gosched()
		now = ClockNS()
	}
	over := now - deadline
	p.credit = min(over, maxCredit)
	p.dropped += max(over-maxCredit, 0)
	return now - start
}

// Delay waits about ns nanoseconds on a fresh account, for callers with
// no task to carry overshoot for; the pgas layer charges a task's Pacer.
func Delay(ns int64) {
	var p Pacer
	p.Delay(ns)
}
