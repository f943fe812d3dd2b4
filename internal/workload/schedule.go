package workload

import (
	"cmp"
	"slices"
	"time"

	"gopgas/internal/pgas"
)

// eventKind is also the order events due at one instant apply in. Heals
// go first: a pair that heals and re-severs at one boundary must end
// severed, and the other order would heal the new sever away.
type eventKind uint8

const (
	evHeal eventKind = iota
	evSever
	evCrash
)

// event is one scheduled liveness fault, due at the first step of its
// phase whose issued-op total has reached ops: 0 is the phase's boundary
// step, a positive mark lands at a racing op count. A wall-clock heal
// (after > 0) is instead due that long after its own sever landed, in
// whatever phase that finds the run.
type event struct {
	kind  eventKind
	phase int
	ops   int64
	after time.Duration
	a, b  int // heal, sever: the pair
	// at is when the sever landed, zero until it does, shared by a
	// partition's sever and heal: it arms a wall-clock heal and starts the
	// time-to-heal count.
	at    *time.Time
	crash CrashSpec
	done  bool
}

// schedule is the run's one list of liveness faults, built once from
// Spec.Faults and ordered by (phase, op mark, kind): events fire in list
// order, and events due together land in the same order everywhere. A
// wall-clock heal sorts at its sever's mark, ahead of every sever that
// can come due in one step with it. Only run.step mutates a schedule.
type schedule []event

func newSchedule(f Faults) schedule {
	var s schedule
	for _, ps := range f.Partitions {
		at := new(time.Time)
		s = append(s, event{kind: evSever, phase: ps.Phase, ops: ps.AtOps, a: ps.A, b: ps.B, at: at})
		switch {
		case ps.HealPhase > 0:
			s = append(s, event{kind: evHeal, phase: ps.HealPhase, a: ps.A, b: ps.B, at: at})
		case ps.HealAfterMS > 0:
			s = append(s, event{kind: evHeal, phase: ps.Phase, ops: ps.AtOps, a: ps.A, b: ps.B, at: at,
				after: time.Duration(ps.HealAfterMS * float64(time.Millisecond))})
		}
	}
	for _, cr := range f.Crashes {
		s = append(s, event{kind: evCrash, phase: cr.Phase, ops: cr.AfterOps, crash: cr})
	}
	slices.SortStableFunc(s, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.phase, b.phase), cmp.Compare(a.ops, b.ops), cmp.Compare(a.kind, b.kind))
	})
	return s
}

// wait returns how long after now a pending event can next come due
// inside a round of phase: 200µs for one of the phase's op marks (op
// counts have no wake-up of their own, so they are polled), the time left
// for an armed wall-clock heal. False when none can — any fault-free run.
func (s schedule) wait(phase int, now time.Time) (d time.Duration, ok bool) {
	for i := range s {
		e := &s[i]
		w, can := 200*time.Microsecond, e.phase == phase
		if e.after > 0 {
			w, can = max(e.at.Add(e.after).Sub(now), 0), !e.at.IsZero()
		}
		if can && !e.done && (!ok || w < d) {
			d, ok = w, true
		}
	}
	return d, ok
}

// step is the engine's one fault applier, the only caller of Sever, Heal
// and (through crash) Crash: it lands every pending event due at (phase,
// issued, now), in list order. The scenario goroutine calls it at every
// round boundary and the round's clock while the workers run; the clock
// starts after the boundary step and is joined before the next, so the
// two never overlap and nothing here locks. A wall-clock heal due between
// rounds lands at the next boundary step; one still pending when the last
// round ends never lands, and the final drain expires what it left parked.
func (r *run) step(phase int, issued int64, now time.Time) {
	for i := range r.sched {
		e := &r.sched[i]
		due := e.phase == phase && issued >= e.ops
		if e.after > 0 {
			due = !e.at.IsZero() && !now.Before(e.at.Add(e.after))
		}
		if e.done || !due {
			continue
		}
		e.done = true
		switch e.kind {
		case evHeal:
			// A heal whose op-marked sever never landed has nothing to
			// repair, and a pair /api/fault already healed just settles:
			// heals and time-to-heal book only when this call repaired
			// the link.
			if !e.at.IsZero() && r.sys.Heal(e.a, e.b) == nil {
				r.avail.Heals++
				r.avail.TimeToHealNS += now.Sub(*e.at).Nanoseconds()
			}
		case evSever:
			// Counted applied even when an overlapping run or /api/fault
			// got there first (Sever is then a no-op): the pair is down.
			if err := r.sys.Sever(e.a, e.b); err != nil {
				panic(err) // Validate bounds the pairs
			}
			*e.at = now
			r.avail.Partitions++
		case evCrash:
			r.crash(e.crash)
		}
	}
}

// crash kills one locale and, when asked, recovers from it. The
// sequence models a fail-stop node loss:
//
//  1. Strand the pins the dead locale's tasks would have held: the
//     simulator cannot kill goroutines mid-operation, so one pinned
//     token per task is registered on the locale just before it goes
//     down. These are the pins that wedge every later epoch advance
//     unless force-retired.
//  2. Mark the locale dead (System.Crash): from here every op whose
//     destination is the dead locale is refused into the OpsLost
//     ledger, and the engine stops spawning its workers.
//  3. When the crash asks for failover: join the dead locale's running
//     tasks once they notice and abandon (they poll Alive every 16 ops;
//     none run at a boundary) — clearing a pin a still-draining task
//     holds would break the grace period that pin guarantees — then
//     adopt its shards onto the survivors through the driver's
//     FailoverHandler, force-retire the stranded tokens and drain the
//     dead locale's limbo, all from a salvage context, the recovery
//     plane's exemption from refusal (the shared-storage conceit). The
//     wall time after the wait is the crash's time-to-recover.
//
// Idempotent per locale: a second crash of an already-dead locale is a
// no-op that records nothing.
func (r *run) crash(cr CrashSpec) {
	if !r.sys.Alive(cr.Locale) {
		return
	}
	r.c0.On(cr.Locale, func(lc *pgas.Ctx) {
		for t := 0; t < r.spec.TasksPerLocale; t++ {
			r.em.Pin(lc)
		}
	})
	if err := r.sys.Crash(cr.Locale); err != nil {
		// Validate bounds crash locales; reaching here means the spec
		// bypassed validation, which the run should surface, not hide.
		panic(err)
	}
	r.avail.Crashes++
	fh, ok := r.drv.(FailoverHandler)
	if !cr.Failover || !ok {
		r.avail.Recovered = false
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
