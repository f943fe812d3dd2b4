package pgas

import (
	"fmt"
	"runtime"

	"gopgas/internal/comm"
	"gopgas/internal/trace"
)

// The dispatch layer: every simulated remote operation — on-statement,
// 64-bit AMO, 128-bit DCAS, GET/PUT charge — is routed, counted and
// latency-charged here, in one place, instead of inline at each call
// site. Counting a remote event is one add on its (source,
// destination, kind) matrix cell (comm.Matrix.Book), which the comm
// counters read as well. Ctx.On, Word64 and Word128 are thin veneers
// over these methods — a word's atomic runs in its own method on the
// direct routes; only the active-message route ships a closure — and
// the asynchronous surface (AsyncOn, the aggregation buffers in
// aggregate.go) reuses exactly the same accounting, so the sync and
// async paths can never drift apart.

// dispatchOn charges and executes a synchronous on-statement: fn runs
// on the target locale and the caller waits. `on here` is elided.
//
// The caller's task is blocked for the whole call either way, so fn
// runs inline on the calling goroutine with a target-pinned Ctx —
// spawning a goroutine plus a completion channel per call (as this
// path once did) buys no concurrency, only scheduler traffic and two
// allocations on the hottest loop of every sweep. The pinned Ctx comes
// from the system's pool; it is seeded with a fresh task id and RNG
// stream exactly as a spawned task's would be, so per-task random
// streams are undisturbed by the pooling.
func (s *System) dispatchOn(src *Ctx, target int, fn func(*Ctx)) {
	if target == src.here.id {
		fn(src)
		return
	}
	if !s.admit(src, target, comm.Op{}) {
		return
	}
	l := s.locales[target]
	if !s.enter(src, l) {
		s.counters.IncOpsLost(src.here.id, 1)
		return
	}
	s.deliverOn(src, target, fn)
	l.running.Add(-1)
}

// enter counts one execution arriving at dst from src and reports
// whether it may run there: false, with nothing counted, when the live
// fault plan has dst dead for src. It counts before it reads the plan,
// and Crash publishes the plan before it waits for the count to drain,
// so of an execution and a crash racing on one locale either the
// execution sees the crash or the crash waits for the execution. An
// admitted execution calls it after admit, which may park in place, so
// that a crash never waits on a parked caller; the caller undoes the
// count (dst.running) once the execution has finished.
func (s *System) enter(src *Ctx, dst *Locale) bool {
	dst.running.Add(1)
	if p := s.perturb.Load(); p != nil && p.Faulted() && refusalOf(p, src, dst.id) == refuseCrash {
		dst.running.Add(-1)
		return false
	}
	return true
}

// TryOn is On for a caller that has another route: when the live fault
// plan refuses the target — dead, or partitioned from this locale — it
// returns false at once, without running fn and without touching any
// book: no OpsLost, no parking, no delay. Otherwise it runs fn on the
// target exactly as On does, charges included, and returns true.
// Salvage contexts are never refused.
func (c *Ctx) TryOn(target int, fn func(ctx *Ctx)) bool {
	s := c.sys
	if target == c.here.id {
		fn(c)
		return true
	}
	if p := s.perturb.Load(); p != nil && p.Faulted() && refusalOf(p, c, target) != refuseNone {
		return false
	}
	l := s.locales[target]
	if !s.enter(c, l) {
		return false
	}
	s.deliverOn(c, target, fn)
	l.running.Add(-1)
	return true
}

// deliverOn charges and runs an admitted remote on-statement.
func (s *System) deliverOn(src *Ctx, target int, fn func(*Ctx)) {
	// The Enabled check is hoisted to the call site: Begin is too big to
	// inline, and this is the hottest loop in every sweep — an idle
	// recorder must cost one inlined atomic load, not a call.
	var sp trace.Span
	if tr := s.tracer; tr != nil && tr.Enabled() {
		sp = tr.Begin(src.here.id, trace.KindDispatch, src.taskID, src.here.id, target, 0, 0)
	}
	s.charge(src, src.here.id, target, comm.KindOnStmt)
	tc := s.borrowCtx(s.locales[target], src)
	fn(tc)
	s.releaseCtx(tc)
	sp.End()
}

// dispatchOnAsync launches fn on the target locale without waiting:
// the initiator pays only the injection (the network delivers the
// active message while the initiating task keeps running), which is
// what turns per-op round-trip latency into overlap. The operation is
// tracked for quiescence: Quiesce (and therefore Ctx.Flush) blocks
// until it has completed. A local target still detaches a task.
func (s *System) dispatchOnAsync(src *Ctx, target int, fn func(*Ctx)) {
	// Register before checking shutdown: Shutdown sets the flag first
	// and only then quiesces, so either this task is visible to that
	// quiesce (and the AM path stays open for it) or the flag is already
	// set here and we refuse — no window where the task outlives the
	// system.
	s.asyncPending.Add(1)
	if s.shutdown.Load() {
		s.asyncPending.Add(-1)
		panic("pgas: AsyncOn after Shutdown")
	}
	srcID := src.here.id
	remote := target != srcID
	l := s.locales[target]
	// A refused launch leaves nothing in flight: a dropped task never
	// existed and a parked one launches from the ledger when the pair
	// heals, so Quiesce excludes dead locales and is not wedged while a
	// pair is severed. A remote task counts as running on its target
	// from before its admission (enter's ordering; this admit never
	// parks in place) until it finishes.
	if remote {
		l.running.Add(1)
		if !s.admit(src, target, comm.Op{Bytes: aggCallBytes, Exec: fn}) {
			l.running.Add(-1)
			s.asyncPending.Add(-1)
			return
		}
		s.matrix.Book(srcID, target, comm.KindOnStmt)
	}
	var sp trace.Span
	if tr := s.tracer; tr != nil && tr.Enabled() {
		sp = tr.Begin(srcID, trace.KindAsync, src.taskID, srcID, target, 0, 0)
	}
	salvage := src.salvage
	go func() {
		defer s.asyncPending.Add(-1)
		if remote {
			defer l.running.Add(-1)
		}
		tc := s.newCtx(l)
		tc.isAsync = true
		tc.salvage = salvage
		if remote {
			s.delay(tc, srcID, target, s.prices.Event[comm.KindOnStmt])
		}
		fn(tc)
		tc.drainBuffers()
		sp.End()
	}()
}

// admit is the one place that decides whether an execution-plane
// operation from src toward the remote locale dst is delivered, parked
// or lost, and the one place that books a loss. It reports whether the
// caller may deliver now; on false the op is already on the books and
// the caller charges nothing — no on-stmt, no matrix entry, no delay,
// the body never runs here.
//
// A dead destination fails fast — one OpsLost — which is what keeps
// Quiesce and coforall joins crash-tolerant. A partitioned destination
// is transient, so the op parks: op files into src's retry ledger and
// redelivers through redeliverParked when the pair heals — unless the
// ledger finds the pair healed already, and the caller delivers now —
// while a zero op is a synchronous on-statement, whose caller is
// waiting and whose closure may capture its stack, so it parks in place
// (parkSyncOn) and proceeds with normal delivery if the pair heals in
// time. With the retry plane disabled (the system then keeps no
// ledgers, so this is the one place that must ask) a partition
// accounts fail-stop, like a crash.
//
// Salvage contexts are never refused (refusalOf). Frees never come
// here: Ctx.Free and Ctx.FreeBulk, the epoch reclaimer's scatter lists
// included, belong to the memory plane, so under the shared-storage
// failover conceit memory handed to a free reaches its heap's books
// even on a dead or severed locale.
func (s *System) admit(src *Ctx, dst int, op comm.Op) bool {
	// The un-faulted path — the hottest loop of every sweep — ends
	// here: one atomic load and no second call.
	p := s.perturb.Load()
	if p == nil || !p.Faulted() {
		return true
	}
	r := refusalOf(p, src, dst)
	if r == refuseNone {
		return true
	}
	if r == refusePartition && !s.cfg.Park.Disable {
		if op.Exec == nil {
			return s.parkSyncOn(src, dst)
		}
		srcID := src.here.id
		return !s.parking[srcID].Park(dst, op, s.nowNS(), s.reachableFrom(srcID))
	}
	s.counters.IncOpsLost(src.here.id, 1)
	return false
}

// charge books one remote event of kind k from src toward dst — one add
// on its matrix cell, which is the counter too — and charges c its price.
func (s *System) charge(c *Ctx, src, dst int, k comm.Kind) {
	s.matrix.Book(src, dst, k)
	s.delay(c, src, dst, s.prices.Event[k])
}

// routeAMO64 routes one 64-bit atomic on a word homed on home per the
// backend and reports whether it must run on home over an active
// message (amAMO64, which books and charges it). Otherwise it books and
// charges the atomic, which the caller runs in place: a NIC atomic
// under ugni (even locale-locally — Aries NIC atomics are not coherent
// with CPU atomics), a processor atomic on the word's own locale under
// none.
//
// Atomics are never refused, even toward a dead home: the fault plan
// kills a locale's execution plane (on-statements, async launches,
// aggregated deliveries), not the partitioned address space — the same
// shared-storage conceit that lets salvage contexts adopt a dead
// locale's shards. Refusing here would also be worse than useless: a
// CAS that "fails" because its home died sends every lock-free retry
// loop into a livelock instead of failing fast.
func (s *System) routeAMO64(c *Ctx, home int) (am bool) {
	switch {
	case s.cfg.Backend == comm.BackendUGNI:
		s.matrix.Book(c.here.id, home, comm.KindNICAMO) // charge, inlined on the hottest route
		s.delay(c, c.here.id, home, s.prices.Event[comm.KindNICAMO])
		return false
	case home == c.here.id:
		s.counters.IncLocalAMO(home)
		s.delay(c, home, home, s.prices.LocalAtomic)
		return false
	}
	return true
}

// amAMO64 runs op as an active-message handler on home and returns its
// result: the AM route of a 64-bit atomic, booked and charged as one AM
// atomic.
func (s *System) amAMO64(c *Ctx, home int, op func() uint64) (res uint64) {
	s.amCall(c, home, comm.KindAMAMO, func() { res = op() })
	return res
}

// routeDCAS routes one full-width 128-bit operation on a cell homed on
// home and reports whether it must run on home over an active message
// (amCall, booked as a remote DCAS): no NIC offloads these, so a remote
// cell always demotes to remote execution, while a local cell runs the
// emulated CMPXCHG16B in place, booked and charged here. Never refused
// — memory plane, like routeAMO64.
func (s *System) routeDCAS(c *Ctx, home int) (am bool) {
	if home != c.here.id {
		return true
	}
	s.counters.IncDCASLocal(home)
	s.delay(c, home, home, s.prices.LocalAtomic)
	return false
}

// ChargeGet records and charges one small remote read toward owner.
// It is exposed for reads of state that lives outside the gas heaps
// (a descriptor-table entry, a shard's counter); owner must differ
// from the calling locale.
func (c *Ctx) ChargeGet(owner int) {
	c.sys.charge(c, c.here.id, owner, comm.KindGet)
}

// ChargeAMAMO records and charges one AM atomic toward owner through
// amCall: the cost of an owner-side insertion into storage that lives
// outside the gas heaps (the descriptor table). owner must differ from
// the calling locale.
func (c *Ctx) ChargeAMAMO(owner int) {
	c.sys.amCall(c, owner, comm.KindAMAMO, func() {})
}

// ChargeBulk records and charges one bulk transfer of `bytes` between
// the calling locale and owner. Like ChargeGet it exists for payloads
// that move outside the gas heaps (e.g. a sharded structure shipping a
// drained segment home); owner must differ from the calling locale.
func (c *Ctx) ChargeBulk(owner int, bytes int64) {
	c.sys.chargeBulk(c, c.here.id, owner, bytes)
}

// chargeBulk records one bulk transfer of `bytes` from src toward dst
// and charges it to c's account (the FreeBulk/AllocBulkOn path;
// aggregated flushes account for themselves inside comm.Aggregator).
func (s *System) chargeBulk(c *Ctx, src, dst int, bytes int64) {
	s.matrix.Book(src, dst, comm.KindBulk)
	s.counters.IncBulkBytes(src, bytes)
	s.delay(c, src, dst, s.prices.Bulk(bytes))
}

// AsyncOn launches fn on the target locale and returns immediately —
// a fire-and-forget on-statement (Chapel's `begin on`). The spawned
// task is tracked by the system: Ctx.Flush (or System.Quiesce) blocks
// until every async operation launched so far has finished, which is
// how a coforall epilogue guarantees nothing is still in flight.
//
// fn receives a fresh Ctx pinned to the target; it must not use the
// initiator's Ctx.
func (c *Ctx) AsyncOn(target int, fn func(ctx *Ctx)) {
	if target < 0 || target >= len(c.sys.locales) {
		panic(fmt.Sprintf("pgas: AsyncOn locale %d out of range [0, %d)", target, len(c.sys.locales)))
	}
	c.sys.dispatchOnAsync(c, target, fn)
}

// Quiesce blocks until every asynchronous operation launched so far
// (AsyncOn tasks, including ones they transitively spawned) has
// completed. New async work launched by other tasks while Quiesce
// spins naturally extends the wait — quiescence is a system-wide
// property, exactly as in SHMEM's quiet semantics.
//
// Dead locales are excluded by construction, not by filtering: an
// async op toward a crashed locale is refused at launch (never enters
// the in-flight set), and ops already running on a dying locale drain
// normally — so Quiesce can never wedge on a locale that will never
// answer.
func (s *System) Quiesce() {
	for s.asyncPending.Load() != 0 {
		runtime.Gosched()
	}
}

// AsyncPending returns the number of asynchronous operations currently
// in flight (diagnostic).
func (s *System) AsyncPending() int64 { return s.asyncPending.Load() }
