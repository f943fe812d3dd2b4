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
	agg     *comm.Aggregator // lazily created per-task aggregation buffers
	isAsync bool             // task was launched by AsyncOn (counted in asyncPending)
	salvage bool             // recovery-plane task, exempt from crash/partition refusal

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
// remote locale — `coforall loc in Locales do on loc`. Its callers are
// privatized construction and teardown (NewPrivatized,
// Privatized.Destroy), the hazard-pointer scans, shared.ForEachShard,
// and the figures' and tests' per-locale worker fan-outs. It
// deliberately bypasses crash refusal: a dead locale's replicas must
// still be built and torn down, and its hazards still scanned. Workload
// traffic goes through On / AsyncOn / the aggregation buffers, which do
// refuse.
func (c *Ctx) CoforallLocales(fn func(ctx *Ctx)) {
	s := c.sys
	c.bookOnStmts(len(s.locales))
	fanOut(len(s.locales), func(i int) {
		l := s.locales[i]
		tc := s.newCtx(l)
		tc.salvage = c.salvage
		if l.id != c.here.id {
			s.delay(tc, c.here.id, l.id, s.prices.Event[comm.KindOnStmt])
		}
		fn(tc)
	})
}

// bookOnStmts books the on-statements of a fan-out to locales [0, n):
// one per locale but the caller's, all before any task starts, so a
// task that reads the counters sees its whole fan-out booked.
func (c *Ctx) bookOnStmts(n int) {
	for id := 0; id < n; id++ {
		if id != c.here.id {
			c.sys.matrix.Book(c.here.id, id, comm.KindOnStmt)
		}
	}
}

// fanOut runs task(i) for every i in [0, n), each as its own goroutine,
// and waits for all of them: the one spawn and join behind
// CoforallLocales, Coforall and ForallCyclic.
func fanOut(n int, task func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task(i)
		}()
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
			s.charge(tc, c.here.id, l.id, comm.KindOnStmt)
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
	fanOut(n, func(t int) { fn(c.sys.newCtx(c.here), t) })
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
	s := c.sys
	L := len(s.locales)
	// Only locales [0, min(n, L)) own iterations.
	busy := max(0, min(n, L))
	c.bookOnStmts(busy)
	fanOut(busy, func(id int) {
		l := s.locales[id]
		if id != c.here.id {
			// The on-statement carrying the locale's tasks is a task too.
			s.delay(s.newCtx(l), c.here.id, id, s.prices.Event[comm.KindOnStmt])
		}
		// Iterations owned by locale l: id, id+L, id+2L, ...
		// Split them contiguously among the locale's tasks.
		count := (n - id + L - 1) / L
		tasks := min(max(tasksPerLocale, 1), count)
		fanOut(tasks, func(t int) {
			tctx := s.newCtx(l)
			var priv P
			if perTask != nil {
				priv = perTask(tctx)
			}
			lo, hi := count*t/tasks, count*(t+1)/tasks
			for k := lo; k < hi; k++ {
				body(tctx, priv, id+k*L)
			}
			if perTaskDone != nil {
				perTaskDone(tctx, priv)
			}
		})
	})
}
