package workload

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"gopgas/internal/pgas"
	"gopgas/internal/telemetry"
)

// Fault is one fault in the vocabulary the schedule and /api/fault
// share, a tagged form with exactly one key: {"crash":{"locale":2,
// "failover":true}}, {"sever":[1,2]}, {"heal":[1,2]}, {"scales":[…]} (a
// per-locale latency factor vector) or {"clear":true}. A crash is
// irreversible, and the latency forms never touch liveness.
type Fault struct {
	Crash  *CrashFault `json:"crash,omitempty"`
	Sever  []int       `json:"sever,omitempty"`
	Heal   []int       `json:"heal,omitempty"`
	Scales []float64   `json:"scales,omitempty"`
	Clear  bool        `json:"clear,omitempty"`
}

// CrashFault is the crash form: the locale to kill, and whether the run
// fails over from it (see run.apply).
type CrashFault struct {
	Locale   int  `json:"locale"`
	Failover bool `json:"failover,omitempty"`
}

// decodeFault reads one Fault from an /api/fault body: one JSON object
// of known fields holding exactly one well-formed form, and nothing
// after it. Any other body is an error wrapping telemetry.ErrBadRequest.
func decodeFault(body io.Reader) (Fault, error) {
	var f Fault
	err := decodeStrict(body, &f)
	if err == nil {
		err = f.wellFormed()
	}
	if err != nil {
		return Fault{}, fmt.Errorf("%w: workload: fault: %v", telemetry.ErrBadRequest, err)
	}
	return f, nil
}

// maxScale bounds a latency scale: a charge of up to 9.2e12 ns (2.5 h,
// far above any price) times maxScale still fits in an int64.
const maxScale = 1e6

// wellFormed refuses a fault that is not exactly one form, a pair that
// is not two locales, an empty scales vector and a scale that is NaN,
// infinite or above maxScale (<= 0 still means nominal): the checks that
// need no run. decodeFault holds every post to it, and Validate every
// event.
func (f Fault) wellFormed() error {
	forms := 0
	for _, set := range []bool{f.Crash != nil, f.Sever != nil, f.Heal != nil, f.Scales != nil, f.Clear} {
		if set {
			forms++
		}
	}
	switch {
	case forms != 1:
		return errors.New("want exactly one of crash, sever, heal, scales or clear")
	case f.Sever != nil && len(f.Sever) != 2, f.Heal != nil && len(f.Heal) != 2:
		return errors.New("a pair is two locales")
	case f.Scales != nil && len(f.Scales) == 0:
		return errors.New("scales has no entry")
	case slices.ContainsFunc(f.Scales, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || x > maxScale }):
		return fmt.Errorf("scales %v: each must be finite and at most %g", f.Scales, float64(maxScale))
	}
	return nil
}

// check refuses a well-formed fault no run on locales locales can apply:
// a crash outside [1, locales), or a pair outside [0, locales) or of one
// locale. Validate holds the schedule to it, and apply every live fault.
func (f Fault) check(locales int) error {
	if c := f.Crash; c != nil && (c.Locale < 1 || c.Locale >= locales) {
		return fmt.Errorf("locale %d out of range [1, %d) (locale 0 hosts the global epoch word and cannot crash)", c.Locale, locales)
	}
	for _, p := range [][]int{f.Sever, f.Heal} {
		switch {
		case p == nil:
		case min(p[0], p[1]) < 0 || max(p[0], p[1]) >= locales:
			return fmt.Errorf("pair %v out of range [0, %d)", p, locales)
		case p[0] == p[1]:
			return fmt.Errorf("pairs locale %d with itself", p[0])
		}
	}
	return nil
}

// pairOf keys an unordered pair for the run's sever clock.
func pairOf(p []int) [2]int { return [2]int{min(p[0], p[1]), max(p[0], p[1])} }

// timeline is the order a spec's events land in: Faults.Events sorted
// stably by phase, so one phase's events keep their list order.
func timeline(events []Event) []Event {
	return slices.SortedStableFunc(slices.Values(events), func(a, b Event) int { return cmp.Compare(a.Phase, b.Phase) })
}

// schedule is the run's one list of scheduled faults, in timeline order,
// and a cursor: events[:next] have landed, and only events[next] can
// land next (the ordering rule is Faults.Events'). Only run.step mutates
// a schedule.
type schedule struct {
	events []Event
	next   int
	phase  int       // the phase last stepped
	since  time.Time // the later of that phase's start and the last landing
}

func newSchedule(f Faults) schedule { return schedule{events: timeline(f.Events), phase: -1} }

// after is e's wall-clock trigger as a duration, capped at 1e12 ms so a
// huge after_ms stays never-due instead of overflowing.
func (e Event) after() time.Duration {
	return time.Duration(min(e.AfterMS, 1e12) * float64(time.Millisecond))
}

// wait returns how long after now the next event can come due inside a
// round of phase: the time left on its after_ms, or 200µs once only its
// after_ops is left (op counts have no wake-up of their own, so they are
// polled). False when none can — the next event is a later phase's, or
// none is left, as in any fault-free run.
func (r *run) wait(phase int, now time.Time) (time.Duration, bool) {
	s := &r.sched
	if s.next == len(s.events) || s.events[s.next].Phase != phase {
		return 0, false
	}
	if d := s.since.Add(s.events[s.next].after()).Sub(now); d > 0 {
		return d, true
	}
	return 200 * time.Microsecond, true
}

// step lands, in list order through apply, every scheduled event that is
// due at (phase, issued, now), stopping at the first that is not. The
// scenario goroutine calls it at every round boundary and the round's
// clock while the workers run; the clock starts after the boundary step
// and is joined before the next, so the two never overlap and nothing
// here locks. An event an earlier phase left pending is due at once.
func (r *run) step(phase int, issued int64, now time.Time) {
	s := &r.sched
	if phase != s.phase {
		s.phase, s.since = phase, now
	}
	for ; s.next < len(s.events); s.next++ {
		e := s.events[s.next]
		if e.Phase > phase || e.Phase == phase && (issued < e.AfterOps || now.Sub(s.since) < e.after()) {
			return
		}
		s.since = now
		// Validate's dry run bounds what the schedule applies. Only a heal
		// can find nothing to do — a live heal got there first — and it
		// just settles.
		if err := r.apply(e.Fault, now); err != nil && e.Heal == nil {
			panic(err)
		}
	}
}

// apply lands one fault on the run's system and books it: the one caller
// of Crash, Sever, Heal and SetScales, for scheduled events (step) and
// live /api/fault posts (the round's clock) alike, on whichever goroutine
// keeps the engine's time. An error says why the fault was refused, and
// then nothing was applied: out of range, a heal of a pair that is not
// severed, or a failover the run was not set up for — the hashmap driver
// chose its write path at Setup from Spec.hasFailover.
//
// A crash models a fail-stop node loss, and is idempotent per locale (a
// second crash of a dead locale is a no-op that records nothing):
//
//  1. Strand the pins the dead locale's tasks would have held: the
//     simulator cannot kill goroutines mid-operation, so one pinned
//     token per task is registered on the locale just before it goes
//     down. These are the pins that wedge every later epoch advance
//     unless force-retired.
//  2. Mark the locale dead (System.Crash): from here every op whose
//     destination is the dead locale is refused into the OpsLost
//     ledger, and the engine stops spawning its workers.
//  3. Fail over when asked (run.failover).
func (r *run) apply(f Fault, now time.Time) error {
	if err := f.check(r.spec.Locales); err != nil {
		return fmt.Errorf("workload: fault refused: %w", err)
	}
	switch {
	case f.Crash != nil:
		cr := *f.Crash
		if cr.Failover && !r.spec.hasFailover() {
			return errors.New("workload: fault refused: failover needs a spec that schedules a failover crash")
		}
		if !r.sys.Alive(cr.Locale) {
			return nil
		}
		r.c0.On(cr.Locale, func(lc *pgas.Ctx) {
			for t := 0; t < r.spec.TasksPerLocale; t++ {
				r.em.Pin(lc)
			}
		})
		if err := r.sys.Crash(cr.Locale); err != nil {
			// check bounds crash locales; reaching here is a bug the run
			// should surface, not hide.
			panic(err)
		}
		r.avail.Crashes++
		r.failover(cr)
	case f.Sever != nil:
		// Counted applied even when the pair is already down (Sever is
		// then a no-op); its sever clock keeps when it went down.
		if err := r.sys.Sever(f.Sever[0], f.Sever[1]); err != nil {
			return err
		}
		if _, down := r.severed[pairOf(f.Sever)]; !down {
			r.severed[pairOf(f.Sever)] = now
		}
		r.avail.Partitions++
	case f.Heal != nil:
		// Heal errors on a pair that is not severed: heals and
		// time-to-heal book only when this call repaired the link.
		if err := r.sys.Heal(f.Heal[0], f.Heal[1]); err != nil {
			return err
		}
		r.avail.Heals++
		r.avail.TimeToHealNS += now.Sub(r.severed[pairOf(f.Heal)]).Nanoseconds()
		delete(r.severed, pairOf(f.Heal))
	case f.Clear:
		r.sys.SetScales(nil)
	default:
		r.sys.SetScales(f.Scales)
	}
	return nil
}

// failover recovers from the crash cr that apply just landed, when it
// asks to: join the dead locale's running tasks once they notice and
// abandon (they poll Alive every 16 ops; none run at a boundary) —
// clearing a pin a still-draining task holds would break the grace
// period that pin guarantees — then adopt its shards onto the survivors
// through the driver's FailoverHandler, force-retire the stranded tokens
// and drain the dead locale's limbo, all from a salvage context, the
// recovery plane's exemption from refusal (the shared-storage conceit).
// The wall time after the wait is the crash's time-to-recover. A crash
// that asks for none is booked Wedged.
func (r *run) failover(cr CrashFault) {
	fh, ok := r.drv.(FailoverHandler)
	if !cr.Failover || !ok {
		r.avail.Recovered = false
		if !cr.Failover {
			r.avail.Wedged++
		}
		return
	}
	r.workers[cr.Locale].Wait()
	t0 := time.Now()
	sc := r.c0.Salvage()
	shards, bytes := fh.Failover(sc, cr.Locale)
	tokens := r.em.ForceRetire(sc, cr.Locale)
	sc.Flush()
	r.avail.ShardsAdopted += shards
	r.avail.BytesAdopted += bytes
	r.avail.TokensForceRetired += tokens
	r.avail.RecoverNS += time.Since(t0).Nanoseconds()
	if shards == 0 && bytes == 0 && tokens == 0 {
		// Nothing was adopted or retired: every adoption was declined
		// (no survivor to adopt onto), or the locale owned nothing and
		// ran no tasks — which the engine's own pins make impossible.
		// Either way the crash was not recovered from.
		r.avail.Recovered = false
	}
}
