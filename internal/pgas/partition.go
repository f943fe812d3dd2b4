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
// through the normal bulk framing when the link comes back. Only Heal
// brings a link back, so Heal's settlement pass and the final
// DrainParking pass are the only two. The books are exact: once the
// ledger drains,
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

// Heal repairs the unordered pair (a, b) and synchronously settles the
// retry ledgers, so every op parked behind the healed link has been
// redelivered (and its books settled) by the time Heal returns — which
// is what makes heal-driven scenarios deterministic — and wakes every
// synchronous call waiting in place. Healing a pair that is not
// currently severed is an error (the /api/fault 422 path). Records one
// always-on KindHeal trace instant.
func (s *System) Heal(a, b int) error {
	s.faultMu.Lock()
	p := s.Perturbation()
	q, was := p.WithoutPartition(a, b)
	if !was {
		s.faultMu.Unlock()
		return fmt.Errorf("pgas: heal pair [%d %d]: not severed", a, b)
	}
	s.perturb.Store(&q)
	close(s.healed)
	s.healed = make(chan struct{})
	s.faultMu.Unlock()
	if tr := s.tracer; tr != nil {
		tr.Instant(0, trace.KindHeal, 0, a, b, 0, 0)
	}
	s.settleParking(false)
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
	s.settleParking(true)
	s.Quiesce()
}

// settleParking runs one comm.Parking.Settle pass over every locale's
// ledger.
func (s *System) settleParking(final bool) {
	now := s.nowNS()
	for src, pk := range s.parking {
		pk.Settle(now, final, s.reachableFrom(src))
	}
}

// reachableFrom returns the ledger's view of the live fault plan for
// source locale src.
func (s *System) reachableFrom(src int) func(dst int) bool {
	return func(dst int) bool { return s.Reachable(src, dst) }
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

// redeliverParked lands one batch of previously parked ops on dst: the
// redelivery flight is charged as one bulk transfer (the ops' original
// enqueue/flush accounting already happened when they first shipped),
// and the batch executes on a destination-pinned pooled context
// exactly like an aggregated delivery, except that no task is blocked
// on it: the context pays the flight and its ops' charges from an
// account of its own. It is marked async so an op that flushes inside
// its exec never tries to quiesce the system from inside the heal.
func (s *System) redeliverParked(src, dst int, batch []comm.Op, bytes int64) {
	tc := s.borrowCtx(s.locales[dst], nil)
	tc.isAsync = true
	s.chargeBulk(tc, src, dst, bytes)
	deliver(tc, nil, batch)
	s.releaseCtx(tc)
}

// parkSyncOn parks a synchronous on-statement in place: the calling
// task waits until a Heal makes the pair reachable again (the caller
// then proceeds with normal delivery, booked redelivered) or the
// parking deadline expires (booked expired; the call is dropped).
// Synchronous calls cannot park in the ledger — the caller is waiting
// and the closure may capture its stack — so the wait happens at the
// call site, with the same books and the same deadline as the ledger.
// It reports whether the call may proceed; a dropped call is already
// booked expired — never lost. admit calls it only with the retry plane
// enabled.
func (s *System) parkSyncOn(src *Ctx, target int) bool {
	srcID := src.here.id
	s.counters.IncOpsParked(srcID, 1)
	deadline := time.NewTimer(time.Duration(s.cfg.Park.DeadlineNS))
	defer deadline.Stop()
	for {
		// Under faultMu a Heal is either already in the plan or still
		// to close the channel read here.
		s.faultMu.Lock()
		ok := s.Reachable(srcID, target)
		healed := s.healed
		s.faultMu.Unlock()
		if ok {
			s.counters.IncOpsRedelivered(srcID, 1)
			return true
		}
		select {
		case <-healed:
		case <-deadline.C:
			s.counters.IncOpsExpired(srcID, 1)
			return false
		}
	}
}
