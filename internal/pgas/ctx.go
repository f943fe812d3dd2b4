package pgas

import (
	"sync"

	"gopgas/internal/comm"
)

// Ctx is a task's view of the system: which locale it is executing on
// (Chapel's `here`), plus a private deterministic random stream. Every
// spawned task — whether via On, CoforallLocales, or the forall
// helpers — receives its own Ctx. A Ctx must not be shared between
// goroutines; spawn instead.
type Ctx struct {
	sys     *System
	here    *Locale
	taskID  uint64
	rng     uint64
	agg     *Aggregator // lazily created per-task aggregation buffers
	isAsync bool        // task was launched by AsyncOn (counted in asyncPending)
	salvage bool        // recovery-plane task, exempt from crash/partition refusal

	// pace is the delay account System.delay charges: the task's own
	// pacer, or — for the pooled Ctx of a sync on-statement body or an
	// aggregated delivery — that of the task blocked on it.
	pacer comm.Pacer
	pace  *comm.Pacer
}

// Sys returns the owning System.
func (c *Ctx) Sys() *System { return c.sys }

// Salvage returns a recovery-plane view of the task: a fresh Ctx on
// the same locale whose communication is exempt from crash/partition
// refusal. It models the shared-storage failover conceit — a surviving
// locale adopting a dead peer's shards must read the dead partition
// and drive the dead locale's retirement, exactly the accesses the
// fault plan refuses to ordinary traffic. The exemption propagates to
// tasks the salvage context spawns (On, AsyncOn, CoforallLocales).
// Use it only for failover and force-retirement; workload traffic on a
// salvage context would silently bypass the fault plan.
func (c *Ctx) Salvage() *Ctx {
	sc := c.sys.newCtx(c.here)
	sc.salvage = true
	return sc
}

// Here returns the id of the locale this task runs on.
func (c *Ctx) Here() int { return c.here.id }

// DelayAccount returns the task's delay account: the overshoot it
// carries as credit and the overshoot its clamp has dropped
// (comm.Pacer). The task's waits add up to its charges plus both.
func (c *Ctx) DelayAccount() (credit, dropped int64) {
	return c.pace.Credit(), c.pace.Dropped()
}

// NumLocales returns the system's locale count.
func (c *Ctx) NumLocales() int { return len(c.sys.locales) }

// TaskID returns the task's unique id (diagnostic).
func (c *Ctx) TaskID() uint64 { return c.taskID }

// On executes fn on the target locale and waits for it to finish — a
// synchronous on-statement. Remote targets pay the on-statement spawn
// latency and count one on-statement; `on here` runs inline for free,
// as Chapel's compiler also elides it. The callee receives a fresh Ctx
// whose Here() is the target.
func (c *Ctx) On(target int, fn func(ctx *Ctx)) {
	c.sys.dispatchOn(c, target, fn)
}

// CoforallLocales spawns one task per locale (each running on its
// locale), waits for all of them, and charges one on-statement per
// remote locale — `coforall loc in Locales do on loc`. It is the
// reclamation protocol's control plane (token scans, Clear, Stats) and
// deliberately bypasses crash refusal: the protocol must still observe
// a dead locale's tokens and limbo lists, or reclamation could never
// be proven safe after a crash. Workload traffic goes through On /
// AsyncOn / the aggregation buffers, which do refuse.
func (c *Ctx) CoforallLocales(fn func(ctx *Ctx)) {
	s := c.sys
	var wg sync.WaitGroup
	for _, loc := range s.locales {
		if loc.id != c.here.id {
			s.chargeOnStmt(c.here.id, loc.id)
		}
		wg.Add(1)
		go func(l *Locale) {
			defer wg.Done()
			tc := s.newCtx(l)
			tc.salvage = c.salvage
			if l.id != c.here.id {
				s.delay(tc, c.here.id, l.id, s.cfg.Latency.AMRoundTripNS+s.cfg.Latency.OnStmtNS)
			}
			fn(tc)
		}(loc)
	}
	wg.Wait()
}

// VisitLocales runs fn once on every locale, in id order, on the
// calling goroutine: `coforall loc in Locales do on loc` for a
// control-plane body that has no need to run at the same time as the
// others. It books what CoforallLocales books — one on-statement and
// one matrix cell per remote locale — and like it bypasses crash
// refusal. Each call of fn gets a borrowed Ctx pinned to its locale
// (it must not escape the call) whose charges, the round trip included,
// go on a tab of its own; the caller then waits once for the largest
// tab, as it waited for the slowest of the coforall's parallel tasks.
// Modelled nanoseconds are booked exactly as CoforallLocales books them.
func (c *Ctx) VisitLocales(fn func(ctx *Ctx)) {
	s := c.sys
	var tab comm.Pacer
	var makespan int64
	for _, l := range s.locales {
		tab.OpenTab()
		tc := s.borrowCtx(l, c)
		tc.pace = &tab
		if l.id != c.here.id {
			s.chargeOnStmt(c.here.id, l.id)
			s.delay(tc, c.here.id, l.id, s.cfg.Latency.AMRoundTripNS+s.cfg.Latency.OnStmtNS)
		}
		fn(tc)
		s.releaseCtx(tc)
		makespan = max(makespan, tab.Owed())
	}
	c.here.delayWaitNS.Add(c.pace.Delay(makespan))
}

// Coforall spawns n tasks on the current locale and waits for them —
// `coforall tid in 0..#n`.
func (c *Ctx) Coforall(n int, fn func(ctx *Ctx, tid int)) {
	s := c.sys
	var wg sync.WaitGroup
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			fn(s.newCtx(c.here), t)
		}(t)
	}
	wg.Wait()
}

// ForallCyclic iterates i over [0, n) with the iterations distributed
// cyclically across locales (i runs on locale i % numLocales), using
// tasksPerLocale tasks on each locale. perTask is invoked once per
// task to create task-private state (Chapel's `with (var tok = ...)`
// intent), body once per iteration, and perTaskDone once per task as
// the task ends (the automatic cleanup of task-private values). perTask
// and perTaskDone may be nil when no task state is needed.
//
// ForallCyclic is a generic function rather than a method because Go
// methods cannot introduce type parameters.
func ForallCyclic[P any](c *Ctx, n, tasksPerLocale int,
	perTask func(ctx *Ctx) P,
	body func(ctx *Ctx, priv P, i int),
	perTaskDone func(ctx *Ctx, priv P),
) {
	if tasksPerLocale <= 0 {
		tasksPerLocale = 1
	}
	s := c.sys
	L := len(s.locales)
	var wg sync.WaitGroup
	for _, loc := range s.locales {
		if loc.id >= n && n < L {
			continue // no iterations land on this locale
		}
		if loc.id != c.here.id {
			s.chargeOnStmt(c.here.id, loc.id)
		}
		wg.Add(1)
		go func(l *Locale) {
			defer wg.Done()
			if l.id != c.here.id {
				// The on-statement carrying the locale's tasks is a task too.
				s.delay(s.newCtx(l), c.here.id, l.id, s.cfg.Latency.AMRoundTripNS+s.cfg.Latency.OnStmtNS)
			}
			// Iterations owned by locale l: l.id, l.id+L, l.id+2L, ...
			// Split them contiguously among the locale's tasks.
			count := 0
			if n > l.id {
				count = (n - l.id + L - 1) / L
			}
			if count == 0 {
				return
			}
			tasks := tasksPerLocale
			if tasks > count {
				tasks = count
			}
			var twg sync.WaitGroup
			for t := 0; t < tasks; t++ {
				lo := count * t / tasks
				hi := count * (t + 1) / tasks
				twg.Add(1)
				go func(lo, hi int) {
					defer twg.Done()
					tctx := s.newCtx(l)
					var priv P
					if perTask != nil {
						priv = perTask(tctx)
					}
					for k := lo; k < hi; k++ {
						body(tctx, priv, l.id+k*L)
					}
					if perTaskDone != nil {
						perTaskDone(tctx, priv)
					}
				}(lo, hi)
			}
			twg.Wait()
		}(loc)
	}
	wg.Wait()
}

// ForallLocal iterates i over [0, n) using `tasks` tasks on the
// current locale only — a shared-memory forall with task-private
// state, for the LocalEpochManager and shared-memory benchmarks.
func ForallLocal[P any](c *Ctx, n, tasks int,
	perTask func(ctx *Ctx) P,
	body func(ctx *Ctx, priv P, i int),
	perTaskDone func(ctx *Ctx, priv P),
) {
	if tasks <= 0 {
		tasks = 1
	}
	if tasks > n && n > 0 {
		tasks = n
	}
	s := c.sys
	var wg sync.WaitGroup
	for t := 0; t < tasks; t++ {
		lo := n * t / tasks
		hi := n * (t + 1) / tasks
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			tctx := s.newCtx(c.here)
			var priv P
			if perTask != nil {
				priv = perTask(tctx)
			}
			for i := lo; i < hi; i++ {
				body(tctx, priv, i)
			}
			if perTaskDone != nil {
				perTaskDone(tctx, priv)
			}
		}(lo, hi)
	}
	wg.Wait()
}
