package pgas

import (
	"fmt"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/trace"
)

// Partition lifecycle: the transient half of the fault plan.
//
// A crash is fail-stop and permanent — its refused ops drain to the
// OpsLost ledger and the dead locale's shards fail over. A partition
// is transient: both endpoints stay alive, the pair may heal, so its
// refused ops park in per-locale comm.Parking ledgers and redeliver
// through the normal bulk framing when the link comes back (Heal, a
// background backoff probe, or the final DrainParking pass). The books
// are exact: once the ledger drains,
// OpsParked == OpsRedelivered + OpsExpired, and OpsLost stays reserved
// for crashes.

// Sever cuts the unordered pair (a, b): from now on execution-plane
// traffic between them is refused — parked into the retry plane, or
// counted OpsLost when Config.Park.Disable reverts partitions to
// fail-stop accounting. Both locales stay alive and keep talking to
// everyone else. Severing an already-severed pair is a no-op; a sever
// composes with crashes and latency plans already installed. Records
// one always-on KindPartition trace instant per pair actually severed.
func (s *System) Sever(a, b int) error {
	if a < 0 || a >= len(s.locales) || b < 0 || b >= len(s.locales) {
		return fmt.Errorf("pgas: sever pair [%d %d] out of range [0, %d)", a, b, len(s.locales))
	}
	if a == b {
		return fmt.Errorf("pgas: cannot sever locale %d from itself", a)
	}
	s.faultMu.Lock()
	p := s.Perturbation()
	if p.Partitioned(a, b) {
		s.faultMu.Unlock()
		return nil
	}
	p = p.WithPartition(a, b)
	s.perturb.Store(&p)
	s.faultMu.Unlock()
	if tr := s.tracer; tr != nil {
		tr.Instant(0, trace.KindPartition, 0, a, b, 0, 0)
	}
	return nil
}

// Heal repairs the unordered pair (a, b) and synchronously pumps the
// retry ledgers, so every op parked behind the healed link has been
// redelivered (and its books settled) by the time Heal returns — which
// is what makes heal-driven scenarios deterministic. Healing a pair
// that is not currently severed is an error (the /api/fault 422 path).
// Records one always-on KindHeal trace instant.
func (s *System) Heal(a, b int) error {
	s.faultMu.Lock()
	p := s.Perturbation()
	q, was := p.WithoutPartition(a, b)
	if !was {
		s.faultMu.Unlock()
		return fmt.Errorf("pgas: heal pair [%d %d]: not severed", a, b)
	}
	s.perturb.Store(&q)
	s.faultMu.Unlock()
	if tr := s.tracer; tr != nil {
		tr.Instant(0, trace.KindHeal, 0, a, b, 0, 0)
	}
	s.pumpParking(true)
	return nil
}

// DrainParking settles the retry plane: one final pass redelivers
// everything whose destination is reachable and expires the rest,
// deadline or not, then waits for the redeliveries' follow-on work to
// quiesce. After it returns the ledgers are empty and
// OpsParked == OpsRedelivered + OpsExpired exactly. The workload
// engine calls it before reading final counters; Shutdown calls it
// unconditionally.
func (s *System) DrainParking() {
	now := s.nowNS()
	for src, pk := range s.parking {
		src := src
		pk.DrainExpire(now, func(dst int) bool { return s.Reachable(src, dst) })
	}
	s.Quiesce()
}

// ParkedOps returns the number of ops currently waiting in the retry
// ledgers (diagnostic).
func (s *System) ParkedOps() int {
	n := 0
	for _, pk := range s.parking {
		n += pk.Parked()
	}
	return n
}

// nowNS is the monotonic clock the retry ledgers are stamped against.
func (s *System) nowNS() int64 {
	return time.Since(s.startTime).Nanoseconds()
}

// parkOp files one partition-refused aggregated op or async launch
// from srcLoc toward dst into the retry plane, starting the background
// pump on first use. Returns false when the plane is disabled — admit
// falls back to the lost-ops ledger.
func (s *System) parkOp(srcLoc, dst int, op comm.Op) bool {
	if !s.parking[srcLoc].Park(dst, op, s.nowNS()) {
		return false
	}
	s.ensureParkPump()
	return true
}

// ensureParkPump starts the background retry pump on the first parked
// op: a single goroutine that periodically probes every ledger's
// backoff clocks. It stops at Shutdown; systems that never see a
// partition never pay for it.
func (s *System) ensureParkPump() {
	s.parkPump.Do(func() {
		s.parkWG.Add(1)
		go func() {
			defer s.parkWG.Done()
			t := time.NewTicker(500 * time.Microsecond)
			defer t.Stop()
			for {
				select {
				case <-s.parkStop:
					return
				case <-t.C:
					s.pumpParking(false)
				}
			}
		}()
	})
}

// pumpParking runs one retry pass over every locale's ledger; force
// ignores the backoff clocks (the heal path, so a heal's redelivery is
// immediate and synchronous).
func (s *System) pumpParking(force bool) {
	now := s.nowNS()
	for src, pk := range s.parking {
		src := src
		pk.Pump(now, force, func(dst int) bool { return s.Reachable(src, dst) })
	}
}

// redeliverParked lands one batch of previously parked ops on dst: the
// redelivery flight is charged as one bulk transfer (the ops' original
// enqueue/flush accounting already happened when they first shipped),
// and the batch executes on a destination-pinned pooled context
// exactly like an aggregated delivery, except that no task is blocked
// on it: the context pays the flight and its ops' charges from an
// account of its own. It is marked async so an op that flushes inside
// its exec never tries to quiesce the system from inside the pump.
func (s *System) redeliverParked(src, dst int, batch []comm.Op, bytes int64) {
	tc := s.borrowCtx(s.locales[dst], nil)
	tc.isAsync = true
	s.chargeBulk(tc, src, dst, bytes)
	for _, op := range batch {
		execOp(tc, op)
	}
	s.releaseCtx(tc)
}

// parkSyncOn parks a synchronous on-statement in place: the calling
// task blocks with exponential backoff until the pair is reachable
// again (the caller then proceeds with normal delivery, booked
// redelivered) or the parking deadline expires (booked expired; the
// call is dropped). Synchronous calls cannot park in the ledger — the
// caller is waiting and the closure may capture its stack — so the
// retry happens at the call site, with the same books and the same
// policy knobs as the ledger. It reports whether the call may proceed;
// a dropped call is already booked expired — never lost. admit calls it
// only with the retry plane enabled.
func (s *System) parkSyncOn(src *Ctx, target int) bool {
	cfg := s.cfg.Park
	srcID := src.here.id
	s.counters.IncOpsParked(srcID, 1)
	deadline := s.nowNS() + cfg.DeadlineNS
	backoff := cfg.InitialBackoffNS
	for {
		if s.Reachable(srcID, target) {
			s.counters.IncOpsRedelivered(srcID, 1)
			return true
		}
		now := s.nowNS()
		if now >= deadline {
			s.counters.IncOpsExpired(srcID, 1)
			return false
		}
		wait := backoff
		if rem := deadline - now; wait > rem {
			wait = rem
		}
		time.Sleep(time.Duration(wait))
		backoff *= 2
		if backoff > cfg.MaxBackoffNS {
			backoff = cfg.MaxBackoffNS
		}
	}
}
