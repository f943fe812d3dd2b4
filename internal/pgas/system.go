package pgas

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/trace"
)

// Config describes a System.
type Config struct {
	// Locales is the number of locales (compute nodes). Must be >= 1.
	Locales int

	// Backend selects the network-atomic regime (ugni or none).
	Backend comm.Backend

	// Latency is the injected-delay profile. The zero value disables
	// all delays (fast, for unit tests); comm.DefaultProfile() gives
	// the calibrated benchmark profile.
	Latency comm.LatencyProfile

	// ProgressWorkers is the number of active-message handler slots per
	// locale; it bounds how many AM atomics a locale can service
	// concurrently, which is the serialization the paper's "none" curves
	// exhibit. Defaults to 2.
	ProgressWorkers int

	// Agg configures the per-task aggregation buffers (capacity and
	// flush policy). The zero value selects FlushOnCapacity with
	// comm.DefaultAggCapacity operations per destination.
	Agg comm.AggConfig

	// Park configures the partition retry plane: operations refused
	// because the source/destination pair is partitioned (both locales
	// alive) park in a per-locale comm.Parking ledger and redeliver
	// when the pair heals, instead of draining to OpsLost. The zero
	// value enables the plane with the comm defaults; Park.Disable
	// reverts partitions to fail-stop accounting.
	Park comm.ParkConfig

	// Tracer, when non-nil, records begin/end spans for the dispatch,
	// flush, combine, epoch and migration lifecycles. A nil Tracer (the
	// default) costs every instrumented hot path exactly one nil check;
	// counters and injected delays are never affected either way.
	Tracer *trace.Recorder

	// Seed makes per-task random streams reproducible. Defaults to 1.
	Seed uint64
}

// System is a running PGAS instance.
//
// Every field above the padded tail is read on the per-op path by
// tasks of every locale and written, if at all, by boot, shutdown or
// a fault event. The two tallies every locale adds to on the per-op
// path sit in the tail, with 128 bytes clear on both sides (an
// adjacent-line pair), so their adds never pull away a line that other
// locales are reading, here or in the object allocated after this one
// (TestSystemLayout holds this).
type System struct {
	cfg      Config
	prices   comm.Prices // cfg.Latency's price list: what every counted event is charged
	locales  []*Locale
	counters *comm.Counters // bound to matrix: a remote event is one cell
	matrix   *comm.Matrix

	ctxPool sync.Pool // recycled Ctx structs for the sync dispatch path

	tracer *trace.Recorder // nil when tracing is off (Config.Tracer)

	// perturb is the live fault plan, nil until the first fault lands.
	// SetScales swaps its latency half at runtime (the workload engine's
	// fault applier). delay() reads it on every injected delay, so a
	// swap takes effect on the next simulated communication.
	// faultMu serializes the read-modify-write mutators (Crash, Sever,
	// Heal, SetScales) so concurrent fault events never lose each
	// other's updates. healed is closed and replaced by every Heal,
	// under faultMu: it wakes the synchronous calls waiting in place.
	perturb atomic.Pointer[comm.Perturbation]
	faultMu sync.Mutex
	healed  chan struct{}

	// Partition retry plane: one ledger per source locale and the
	// monotonic clock the ledgers are stamped against.
	parking   []*comm.Parking
	startTime time.Time

	privMu   sync.Mutex
	privNext int
	privFree []int // destroyed privatization ids, recycled by NewPrivatized

	closing  atomic.Bool // Shutdown entered (guards the drain sequence)
	shutdown atomic.Bool // new AsyncOn launches are refused
	stopped  atomic.Bool // quiesce window over: active messages are refused

	_            [128]byte
	taskSeq      atomic.Uint64 // unique task ids (every borrowCtx), also salts per-task RNG
	asyncPending atomic.Int64  // in-flight AsyncOn tasks (quiescence), two adds per AsyncOn
	_            [128]byte
}

// Locale is one logical compute node: an id, a heap partition, bounded
// active-message handler slots, and a table of privatized instances.
//
// The head (id, heap, privTable) is read by tasks of every locale on
// every op; the words below it are written on the per-op path. 128
// bytes (an adjacent-line pair) separate the two, and the trailing pad
// does the same for the next Locale's head, which NewSystem's
// allocations place right after this one (TestSystemLayout).
type Locale struct {
	id   int
	heap *gas.Heap

	// privTable is the locale's table of privatized instances, indexed
	// by Privatized.pid: an immutable slice republished copy-on-write
	// under privMu, so resolving a handle is one atomic load and one
	// indexed load with no shared write.
	privMu    sync.Mutex
	privTable atomic.Pointer[[]any]

	// Active-message handler slots (amCall): amBusy counts the handlers
	// executing here, at most Config.ProgressWorkers; every inbound AM
	// atomic with handler occupancy writes it, hence the 128 bytes
	// between it and the head.
	// Callers park on amFree, not spin: a runnable waiter would stretch
	// the occupancy delay of the handler it awaits.
	// running counts the executions the fault plan admitted here and
	// that have not finished — remote on-statements, async tasks and
	// aggregated deliveries (enter) — which Crash waits out.
	_         [128]byte
	amBusy    atomic.Int32
	amWaiting atomic.Int32 // callers parked, or about to park, on amFree
	running   atomic.Int64
	_         [48]byte
	amMu      sync.Mutex
	amFree    sync.Cond

	// DelayTotals: what System.delay charged this locale's contexts,
	// nominal and scales' excess, and how long they waited, on a cache
	// line of their own.
	_           [64]byte
	modelledNS  atomic.Int64
	perturbNS   atomic.Int64
	delayWaitNS atomic.Int64
	_           [128]byte
}

// tryAMSlot takes a handler slot unless all of them are busy.
func (l *Locale) tryAMSlot(slots int32) bool {
	for {
		busy := l.amBusy.Load()
		if busy >= slots {
			return false
		}
		if l.amBusy.CompareAndSwap(busy, busy+1) {
			return true
		}
	}
}

// acquireAMSlot takes a handler slot, parking while all are busy. A
// waiter announces itself in amWaiting before its last try, and a
// releaser reads amWaiting after giving its slot back, so one of the
// two always sees the other: no wakeup is lost.
func (l *Locale) acquireAMSlot(slots int32) {
	if l.tryAMSlot(slots) {
		return
	}
	l.amMu.Lock()
	l.amWaiting.Add(1)
	for !l.tryAMSlot(slots) {
		l.amFree.Wait()
	}
	l.amWaiting.Add(-1)
	l.amMu.Unlock()
}

// releaseAMSlot gives a handler slot back and wakes one parked caller.
func (l *Locale) releaseAMSlot() {
	l.amBusy.Add(-1)
	if l.amWaiting.Load() != 0 {
		l.amMu.Lock()
		l.amFree.Signal()
		l.amMu.Unlock()
	}
}

// NewSystem boots a System with cfg. It panics on invalid
// configuration; call Shutdown when done.
func NewSystem(cfg Config) *System {
	if cfg.Locales < 1 {
		panic(fmt.Sprintf("pgas: Locales must be >= 1, got %d", cfg.Locales))
	}
	if cfg.Locales > gas.MaxLocales {
		panic(fmt.Sprintf("pgas: %d locales exceeds the %d addressable by 16-bit locality", cfg.Locales, gas.MaxLocales))
	}
	if cfg.ProgressWorkers <= 0 {
		cfg.ProgressWorkers = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Park = cfg.Park.WithDefaults()
	matrix := comm.NewMatrix(cfg.Locales)
	s := &System{cfg: cfg, prices: cfg.Latency.Prices(), counters: comm.NewCounters(matrix), matrix: matrix, tracer: cfg.Tracer, startTime: time.Now()}
	s.healed = make(chan struct{})
	s.parking = make([]*comm.Parking, cfg.Locales)
	for i := range s.parking {
		src := i
		s.parking[i] = comm.NewParking(src, cfg.Locales, cfg.Park, s.counters,
			func(dst int, batch []comm.Op, bytes int64) {
				s.redeliverParked(src, dst, batch, bytes)
			})
	}
	s.locales = make([]*Locale, cfg.Locales)
	for i := range s.locales {
		l := &Locale{id: i, heap: gas.NewHeap(i)}
		l.amFree.L = &l.amMu
		s.locales[i] = l
	}
	return s
}

// Shutdown settles the partition retry plane, then waits for
// asynchronous operations to quiesce. Any communication attempted
// after Shutdown panics; a System is not restartable. The retry ledger
// drains *before* the shutdown flag goes up: redelivered ops may
// legitimately launch async reroutes and AM atomics, which must land
// inside the quiesce window, not panic against a half-dead system. The
// flag is then set before the quiesce so a racing AsyncOn either lands
// inside the window or is refused; active messages are refused only
// once the window has closed.
func (s *System) Shutdown() {
	if s.closing.Swap(true) {
		return
	}
	s.DrainParking()
	s.shutdown.Store(true)
	s.Quiesce()
	s.stopped.Store(true)
}

// NumLocales returns the configured locale count.
func (s *System) NumLocales() int { return len(s.locales) }

// Backend returns the configured network-atomic backend.
func (s *System) Backend() comm.Backend { return s.cfg.Backend }

// Counters returns the system's communication-diagnostic counters.
func (s *System) Counters() *comm.Counters { return s.counters }

// Matrix returns the per-locale-pair communication matrix. It is where
// the remote events are counted: each is one add on its
// (source, destination, kind) cell, and Counters' seven remote totals
// are sums over those cells, so every remote event Counters counts is
// attributed to its pair by construction — Counters().Snapshot().Remote()
// == Matrix().Total(). Counters().SnapshotMatrix() reads both at once.
func (s *System) Matrix() *comm.Matrix { return s.matrix }

// Latency returns the configured latency profile.
func (s *System) Latency() comm.LatencyProfile { return s.cfg.Latency }

// LocaleHeap exposes the heap of one locale, primarily for tests and
// statistics; normal code goes through Ctx allocation helpers.
func (s *System) LocaleHeap(id int) *gas.Heap { return s.locales[id].heap }

// HeapStats sums allocation statistics across every locale.
func (s *System) HeapStats() gas.Stats {
	var total gas.Stats
	for _, l := range s.locales {
		total = total.Add(l.heap.Stats())
	}
	return total
}

// Ctx returns a fresh task context pinned to the given locale, as if a
// task had been spawned there. Run is the conventional entry point;
// Ctx exists for tests and benchmarks that drive locales directly.
func (s *System) Ctx(locale int) *Ctx {
	if locale < 0 || locale >= len(s.locales) {
		panic(fmt.Sprintf("pgas: locale %d out of range [0, %d)", locale, len(s.locales)))
	}
	return s.newCtx(s.locales[locale])
}

// Run executes fn as the program's main task on locale 0 and returns
// when it completes, mirroring a Chapel main procedure.
func (s *System) Run(fn func(ctx *Ctx)) {
	fn(s.Ctx(0))
}

// amCall books one AM atomic or remote DCAS (kind k) toward the target
// locale and runs fn as its active-message handler there — on the
// calling goroutine, like dispatchOn, since the caller is blocked either
// way. It is the one place that splits the AM price: the caller pays the
// price less AMHandlerNS as wire time and, when the profile gives the
// handler occupancy, takes one of the target's ProgressWorkers handler
// slots (parking while all are busy: the serialisation a bounded handler
// pool imposes), pays AMHandlerNS — scaled by the target's factor in the
// live perturbation plan, so a slow locale services its inbound AMs
// slowly — and runs fn, all on the caller's delay account. A
// zero-occupancy handler holds a slot for no modelled time, so it takes
// none: a perturbation only scales AMHandlerNS, and any scale of zero is
// zero. Handlers are terminal (an atomic op, no further communication),
// so a bounded slot count cannot deadlock.
func (s *System) amCall(c *Ctx, target int, k comm.Kind, fn func()) {
	if s.stopped.Load() {
		panic("pgas: active message after Shutdown")
	}
	s.matrix.Book(c.here.id, target, k)
	handler := s.cfg.Latency.AMHandlerNS
	s.delay(c, c.here.id, target, s.prices.Event[k]-handler)
	if handler <= 0 {
		fn()
		return
	}
	l := s.locales[target]
	l.acquireAMSlot(int32(s.cfg.ProgressWorkers))
	s.delay(c, target, target, handler)
	fn()
	l.releaseAMSlot()
}

// delay charges ns of simulated latency for an event between src and
// dst to task c's delay account (comm.Pacer: overshoot is carried into
// the task's next charges, not paid on top), scaled by the live
// perturbation plan. Every charge the pgas layer makes routes through
// here, so a fault plan — including one installed mid-run via
// SetScales — covers every class of communication uniformly. It books
// the nominal price as modelled and the scale's excess (scaled −
// nominal, negative below 1) apart. The zero latency profile leaves at
// the first branch.
func (s *System) delay(c *Ctx, src, dst int, ns int64) {
	if ns <= 0 {
		return
	}
	c.here.modelledNS.Add(ns)
	if p := s.perturb.Load(); p != nil && len(p.Scales) > 0 {
		scaled := int64(float64(ns) * p.PairScale(src, dst))
		c.here.perturbNS.Add(scaled - ns)
		ns = scaled
	}
	c.here.delayWaitNS.Add(c.pace.Delay(ns))
}

// DelayTotals returns the nanoseconds the model has charged so far at
// nominal prices, what latency scales added to them, and the wall
// nanoseconds tasks waited for both; the wait's excess is what stalls
// longer than the account's clamp cost.
func (s *System) DelayTotals() (modelledNS, perturbNS, waitNS int64) {
	for _, l := range s.locales {
		modelledNS += l.modelledNS.Load()
		perturbNS += l.perturbNS.Load()
		waitNS += l.delayWaitNS.Load()
	}
	return modelledNS, perturbNS, waitNS
}

// SetScales replaces the latency half of the live fault plan: every
// subsequent injected delay uses the per-locale scales (see
// comm.Perturbation.Scales) — AM handler occupancy and the flush charge
// of already-created aggregation buffers included. nil clears latency
// faults. Crashes and severed pairs carry over: Crash, Sever and Heal
// are the only writers of the liveness half.
func (s *System) SetScales(scales []float64) {
	s.faultMu.Lock()
	p := s.Perturbation()
	p.Scales = slices.Clone(scales)
	s.perturb.Store(&p)
	s.faultMu.Unlock()
}

// Perturbation returns the live fault plan.
func (s *System) Perturbation() comm.Perturbation {
	if p := s.perturb.Load(); p != nil {
		return *p
	}
	return comm.Perturbation{}
}

// Alive reports whether locale l is up under the live fault plan.
func (s *System) Alive(l int) bool {
	if p := s.perturb.Load(); p != nil {
		return p.Alive(l)
	}
	return true
}

// Reachable reports whether src and dst can currently exchange traffic
// under the live fault plan (both alive, pair not partitioned).
func (s *System) Reachable(src, dst int) bool {
	if p := s.perturb.Load(); p != nil {
		return p.Reachable(src, dst)
	}
	return true
}

// refusal classifies why (or whether) an operation is refused; the two
// causes settle into different ledgers — crashes are permanent
// (OpsLost), partitions transient (the retry plane).
type refusal uint8

const (
	refuseNone refusal = iota
	refuseCrash
	refusePartition
)

// refusalOf classifies a remote operation from src toward target under
// the faulted plan p: refuseCrash when the target is dead,
// refusePartition when both endpoints are alive but the pair is
// severed, refuseNone otherwise (including for salvage contexts, which
// the fault plan exempts).
func refusalOf(p *comm.Perturbation, src *Ctx, target int) refusal {
	if src.salvage {
		return refuseNone
	}
	if !p.Alive(target) {
		return refuseCrash
	}
	if p.Partitioned(src.here.id, target) {
		return refusePartition
	}
	return refuseNone
}

// Crash marks locale l dead in the live fault plan — fail-stop: every
// subsequent operation whose destination is l is refused with a
// counted OpsLost, while work already executing on l drains cleanly.
// Crash returns once it has: every execution admitted on l before the
// crash — a remote on-statement, an async task, an aggregated delivery
// — has finished, so a recovery that follows (EpochManager.ForceRetire
// clearing l's stranded pins) never races a handler still running
// there. l's own tasks are not waited for; they abandon on their next
// liveness check, and their owners join them. Crash must therefore not
// be called from an execution running on l.
// The crash composes with whatever latency plan is installed and
// records one always-on KindCrash trace instant. Crashing an
// already-dead locale is a no-op, so crash instants equal crashes
// applied. Locale 0 hosts the global epoch word and the orchestrating
// main task, so it is the one locale that cannot crash.
func (s *System) Crash(l int) error {
	if l <= 0 || l >= len(s.locales) {
		return fmt.Errorf("pgas: crash locale %d out of range [1, %d)", l, len(s.locales))
	}
	s.faultMu.Lock()
	if !s.Alive(l) {
		s.faultMu.Unlock()
		return nil
	}
	p := s.Perturbation().WithDown(len(s.locales), l)
	s.perturb.Store(&p)
	s.faultMu.Unlock()
	for s.locales[l].running.Load() != 0 {
		runtime.Gosched()
	}
	if tr := s.tracer; tr != nil {
		tr.Instant(0, trace.KindCrash, 0, 0, l, 0, int64(l))
	}
	return nil
}

// Tracer returns the system's span recorder, or nil when tracing is
// off. Instrumentation sites nil-check this themselves on hot paths.
func (s *System) Tracer() *trace.Recorder { return s.tracer }

func (s *System) newCtx(l *Locale) *Ctx {
	id := s.taskSeq.Add(1)
	c := &Ctx{sys: s, here: l, taskID: id}
	c.rng = rngSeed(s.cfg.Seed, uint64(l.id), id)
	c.pace = &c.pacer
	return c
}

// borrowCtx returns a pooled Ctx initialised exactly as newCtx would
// initialise a fresh one — same task-id draw, same RNG seeding — so a
// pooled task is indistinguishable from a spawned one. It runs on the
// goroutine of caller, the task blocked on it, so it charges caller's
// delay account and inherits its salvage exemption; with no caller (a
// heal's redelivery) it owns its account. Callers must pair it with
// releaseCtx and must not let the Ctx escape the call (dispatchOn's
// contract: the callee's Ctx dies with the call).
func (s *System) borrowCtx(l *Locale, caller *Ctx) *Ctx {
	c, _ := s.ctxPool.Get().(*Ctx)
	if c == nil {
		c = &Ctx{}
	}
	id := s.taskSeq.Add(1)
	*c = Ctx{sys: s, here: l, taskID: id, rng: rngSeed(s.cfg.Seed, uint64(l.id), id)}
	if caller != nil {
		c.pace, c.salvage = caller.pace, caller.salvage
	} else {
		c.pace = &c.pacer
	}
	return c
}

// releaseCtx drains, clears and recycles a borrowed Ctx. The body it
// ran had no chance to flush after its last enqueue — the runtime owns
// the Ctx, not the body — so whatever it left buffered ships here,
// before the enclosing call returns (see drainBuffers). Any delay
// credit is dropped with the Ctx and never reaches the next borrower.
func (s *System) releaseCtx(c *Ctx) {
	c.drainBuffers()
	*c = Ctx{}
	s.ctxPool.Put(c)
}
