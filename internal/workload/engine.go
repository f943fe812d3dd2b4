package workload

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/bench"
	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// Run executes a scenario on a fresh simulated System and returns its
// Report. progress, when non-nil, receives one line per completed
// phase. The System is built from the spec — locales, backend,
// latency profile (LatencyScale × the calibrated default) and the
// fault-injection perturbation — and torn down before Run returns.
func Run(spec Spec, progress io.Writer) (*Report, error) {
	return RunLive(spec, progress, nil)
}

// RunLive is Run with a live telemetry bridge: when tel is non-nil the
// run attaches its System and trace recorder to it for the duration,
// so a telemetry.Server built from tel.Options() serves the run's
// counters, latency percentiles, trace windows and fault control while
// the scenario executes.
func RunLive(spec Spec, progress io.Writer, tel *Telemetry) (*Report, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	backend, err := comm.ParseBackend(spec.Backend)
	if err != nil {
		return nil, err
	}
	var latency comm.LatencyProfile
	if spec.LatencyScale > 0 {
		latency = comm.DefaultProfile().Scale(spec.LatencyScale)
	}
	var tracer *trace.Recorder
	if spec.Trace != nil && spec.Trace.Enabled {
		tracer = trace.NewRecorder(spec.Locales, trace.Config{
			BufferSize: spec.Trace.BufferSize,
			SampleRate: spec.Trace.SampleRate,
		})
	}
	sys := pgas.NewSystem(pgas.Config{
		Locales: spec.Locales,
		Backend: backend,
		Latency: latency,
		Perturb: spec.Faults.perturbation(spec.Locales),
		Seed:    spec.Seed,
		Agg:     comm.AggConfig{Combine: spec.Combine != nil && spec.Combine.Enabled},
		Park:    spec.Faults.parkConfig(),
		Tracer:  tracer,
	})
	defer sys.Shutdown()
	if tel != nil {
		tel.attach(spec.Name, sys, tracer)
		defer tel.detach()
	}
	c0 := sys.Ctx(0)

	em := epoch.NewEpochManager(c0)
	drv, err := NewDriver(spec.Structure)
	if err != nil {
		return nil, err
	}
	drv.Setup(c0, em, spec)

	// The Zipfian generator's construction is an O(keyspace) zeta sum;
	// (keyspace, theta) are spec-level, so build it once and share it
	// across phases and tasks (immutable after construction).
	var zipf *zipfGen
	if spec.Dist.Kind == DistZipfian {
		zipf = newZipfGen(spec.Keyspace, spec.Dist.Theta)
	}

	var avail *AvailabilityReport
	if len(spec.Faults.Crashes) > 0 || len(spec.Faults.Partitions) > 0 {
		avail = &AvailabilityReport{Recovered: true}
	}
	pp := newPartitionPlan(sys, spec.Faults.Partitions, avail)

	rep := &Report{Spec: spec}
	for pi, ph := range spec.Phases {
		// Boundary faults land before the phase spawns its workers, so a
		// seeded run with the same fault schedule replays exactly: first
		// the partition plan's phase events (heals, then severs), then the
		// boundary crashes. Mid-phase faults (AfterOps/AtOps > 0) are
		// handed to runPhase, which applies them from a monitor while the
		// workers run.
		if pp != nil {
			pp.phaseStart(pi)
		}
		var mid []CrashSpec
		for _, cr := range spec.Faults.Crashes {
			if cr.Phase != pi {
				continue
			}
			if cr.AfterOps > 0 {
				mid = append(mid, cr)
			} else {
				applyCrash(sys, c0, em, drv, spec, cr, avail, nil)
			}
		}
		pr := runPhase(sys, c0, em, drv, spec, pi, ph, zipf, tel, mid, pp, avail)
		rep.Phases = append(rep.Phases, pr)
		rep.TotalOps += pr.Ops
		rep.TotalSeconds += pr.Seconds
		if progress != nil {
			fmt.Fprintf(progress, "workload %s/%s: %d ops in %.2fs (%.0f ops/s)\n",
				spec.Name, pr.Name, pr.Ops, pr.Seconds, pr.Throughput)
		}
	}

	// Settle the retry plane before the final books: cancel pending
	// wall-clock heals, then run the final redeliver-or-expire pass so
	// OpsParked == OpsRedelivered + OpsExpired holds on every report.
	pp.stop()
	sys.DrainParking()

	// Final teardown: reclaim everything still deferred so the heap
	// and epoch verdicts reflect leaks, not pending reclamation.
	em.Clear(c0)
	h := sys.HeapStats()
	rep.Heap = HeapReport{
		Live: h.Live, Allocs: h.Allocs, Frees: h.Frees,
		UAFLoads: h.UAFLoads, UAFStores: h.UAFStores, UAFFrees: h.UAFFrees,
	}
	est := em.Stats(c0)
	rep.Epoch = EpochReport{Deferred: est.Deferred, Reclaimed: est.Reclaimed, Advances: est.Advances, AdvanceFail: est.AdvanceFail}
	if avail != nil {
		snap := sys.Counters().Snapshot()
		avail.OpsLost = snap.OpsLost
		avail.OpsParked = snap.OpsParked
		avail.OpsRedelivered = snap.OpsRedelivered
		avail.OpsExpired = snap.OpsExpired
		rep.Availability = avail
	}
	if tracer != nil {
		rep.Trace, rep.TraceEvents = drainTrace(sys, tracer)
	}
	return rep, nil
}

// applyCrash kills one locale and, when asked, recovers from it. The
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
//  3. When the crash asks for failover: adopt its shards onto the
//     survivors through the driver's FailoverHandler, then force-
//     retire the stranded tokens and drain the dead locale's limbo —
//     both from a salvage context, the recovery plane's exemption from
//     refusal (the shared-storage conceit). The wall time of this step
//     is the crash's time-to-recover.
//
// Idempotent per locale: a second crash of an already-dead locale is a
// no-op that records nothing.
//
// live, when non-nil, holds the phase's per-locale running-task counts:
// a mid-phase crash waits for the dead locale's tasks to observe the
// crash and abandon (they poll Alive every 16 ops) before force-
// retiring, because clearing a pin a still-draining task holds live
// would break the grace period that pin guarantees. Boundary crashes
// pass nil — no tasks are running between phases.
func applyCrash(sys *pgas.System, c0 *pgas.Ctx, em epoch.EpochManager, drv Driver, spec Spec, cr CrashSpec, avail *AvailabilityReport, live []atomic.Int64) {
	if !sys.Alive(cr.Locale) {
		return
	}
	c0.On(cr.Locale, func(lc *pgas.Ctx) {
		for t := 0; t < spec.TasksPerLocale; t++ {
			em.Pin(lc)
		}
	})
	if err := sys.Crash(cr.Locale); err != nil {
		// Validate bounds crash locales; reaching here means the spec
		// bypassed validation, which the run should surface, not hide.
		panic(err)
	}
	avail.Crashes++
	if !cr.Failover {
		avail.Recovered = false
		return
	}
	fh, ok := drv.(FailoverHandler)
	if !ok {
		avail.Recovered = false
		return
	}
	if live != nil {
		for live[cr.Locale].Load() > 0 {
			time.Sleep(10 * time.Microsecond)
		}
	}
	t0 := time.Now()
	sc := c0.Salvage()
	shards, bytes := fh.Failover(sc, cr.Locale)
	tokens := em.ForceRetire(sc, cr.Locale)
	sc.Flush()
	avail.ShardsAdopted += shards
	avail.BytesAdopted += bytes
	avail.TokensForceRetired += tokens
	avail.RecoverNS += time.Since(t0).Nanoseconds()
	if shards == 0 && bytes == 0 && tokens == 0 {
		// Nothing was adopted or retired: every adoption was declined
		// (no survivor to adopt onto), or the locale owned nothing and
		// ran no tasks — which the engine's own pins make impossible.
		// Either way the crash was not recovered from.
		avail.Recovered = false
	}
}

// drainTrace quiesces the system, drains whatever the live window left
// buffered, and reduces the recorder's books into the report verdict.
// Span counts come from the books — recording decisions, exact even
// under ring drops or concurrent HTTP window drains — so Balanced is a
// hard invariant of a quiesced run, and the migrate span count must
// equal the comm plane's MigAdopted total.
func drainTrace(sys *pgas.System, tracer *trace.Recorder) (*TraceReport, []trace.Event) {
	sys.Quiesce()
	events := tracer.Drain(0)
	books := tracer.Books()
	tr := &TraceReport{
		SampleRate: int(tracer.SampleRate()),
		Events:     len(events),
		Dropped:    tracer.Dropped(),
		Spans:      make(map[string]int64),
		Instants:   make(map[string]int64),
		Balanced:   trace.BooksBalanced(books),
	}
	for _, b := range books {
		if b.Begins > 0 {
			tr.Spans[b.Kind] = b.Begins
		}
		if b.Instants > 0 {
			tr.Instants[b.Kind] = b.Instants
		}
	}
	return tr, events
}

// runPhase executes one phase (all rounds) and assembles its report.
// mid holds the phase's mid-phase crashes (AfterOps > 0) and pp the
// partition plan (mid-phase severs, AtOps > 0): a monitor applies each
// once the phase's tasks have issued that many ops.
func runPhase(sys *pgas.System, c0 *pgas.Ctx, em epoch.EpochManager, drv Driver, spec Spec, phaseIdx int, ph Phase, zipf *zipfGen, tel *Telemetry, mid []CrashSpec, pp *partitionPlan, avail *AvailabilityReport) PhaseReport {
	workers := spec.Locales * spec.TasksPerLocale
	hists := make([]*bench.Histogram, workers)
	for i := range hists {
		hists[i] = &bench.Histogram{}
	}
	counts := make([]atomic.Int64, numOps)
	liveTasks := make([]atomic.Int64, spec.Locales)
	var digest atomic.Uint64

	before := sys.Counters().Snapshot()
	beforeM := sys.Matrix().Snapshot()
	modelled0, wait0 := sys.DelayTotals()
	start := time.Now()

	// Mid-phase fault monitor: polls the phase's issued-op total and
	// applies each pending crash (AfterOps) and sever (AtOps) the first
	// time the total reaches its mark. It owns its Ctx (contexts are
	// single-goroutine) and runs across rounds — Validate already rejects
	// mid-phase faults in churn phases, so it can never race
	// Destroy/Setup.
	var crashStop chan struct{}
	var crashWG sync.WaitGroup
	if len(mid) > 0 || pp.hasMidSevers(phaseIdx) {
		crashStop = make(chan struct{})
		pending := append([]CrashSpec(nil), mid...)
		crashWG.Add(1)
		go func() {
			defer crashWG.Done()
			mc := sys.Ctx(0)
			ticker := time.NewTicker(200 * time.Microsecond)
			defer ticker.Stop()
			seversDone := false
			for len(pending) > 0 || !seversDone {
				select {
				case <-crashStop:
					return
				case <-ticker.C:
					var issued int64
					for k := range counts {
						issued += counts[k].Load()
					}
					rest := pending[:0]
					for _, cr := range pending {
						if issued >= cr.AfterOps {
							applyCrash(sys, mc, em, drv, spec, cr, avail, liveTasks)
						} else {
							rest = append(rest, cr)
						}
					}
					pending = rest
					seversDone = pp.applyMidSevers(phaseIdx, issued)
				}
			}
		}()
	}

	for round := 0; round < ph.rounds(); round++ {
		// Drivers with a periodic control loop (rebalancing) get one
		// ticker task per round, on its own context, stopped before any
		// churn teardown so the loop never races Destroy/Setup.
		var tickStop chan struct{}
		var tickWG sync.WaitGroup
		if tk, ok := drv.(Ticker); ok && tk.TickInterval() > 0 {
			tickStop = make(chan struct{})
			tickWG.Add(1)
			go func() {
				defer tickWG.Done()
				tc := sys.Ctx(0)
				ticker := time.NewTicker(tk.TickInterval())
				defer ticker.Stop()
				for {
					select {
					case <-tickStop:
						return
					case <-ticker.C:
						tk.Tick(tc)
					}
				}
			}()
		}
		var wg sync.WaitGroup
		for loc := 0; loc < spec.Locales; loc++ {
			for t := 0; t < spec.TasksPerLocale; t++ {
				if !sys.Alive(loc) {
					// A dead locale spawns nothing; its closed-loop budget
					// for this round is lost by definition and goes into
					// the ledger so availability accounting stays exact.
					if ph.OpsPerTask > 0 {
						sys.Counters().IncOpsLost(loc, int64(ph.OpsPerTask))
					}
					continue
				}
				liveTasks[loc].Add(1)
				wg.Add(1)
				go func(loc, t int) {
					defer wg.Done()
					defer liveTasks[loc].Add(-1)
					runTask(sys, em, drv, spec, phaseIdx, round, loc, t, ph, zipf,
						hists[loc*spec.TasksPerLocale+t], counts, &digest, tel)
				}(loc, t)
			}
		}
		wg.Wait()
		if tickStop != nil {
			close(tickStop)
			tickWG.Wait()
			// A stale routed write the last windows re-routed may still
			// be an async task in flight; quiesce before judging the
			// round or tearing anything down.
			c0.Flush()
		}
		if ph.Churn && round != ph.rounds()-1 {
			// Between rounds: settle the retry ledgers first — a parked op
			// redelivered after Destroy would execute against a torn-down
			// structure — then reclaim the deferred set, tear the
			// structure down (registry slots recycle), rebuild. Ops still
			// severed at the teardown expire (settled, never replayed into
			// the wrong incarnation).
			sys.DrainParking()
			em.Clear(c0)
			drv.Destroy(c0)
			drv.Setup(c0, em, spec)
		}
	}
	if crashStop != nil {
		close(crashStop)
		crashWG.Wait()
	}
	seconds := time.Since(start).Seconds()

	merged := &bench.Histogram{}
	for _, h := range hists {
		merged.Merge(h)
	}
	byKind := make(map[string]int64)
	var ops int64
	for k := range counts {
		if n := counts[k].Load(); n > 0 {
			byKind[OpKind(k).String()] = n
			ops += n
		}
	}
	snap := sys.Counters().Snapshot().Sub(before)
	matrix := bench.SubMatrix(sys.Matrix().Snapshot(), beforeM)
	modelled, wait := sys.DelayTotals()
	throughput := 0.0
	if seconds > 0 {
		throughput = float64(ops) / seconds
	}
	return PhaseReport{
		Name:        ph.Name,
		Rounds:      ph.rounds(),
		Ops:         ops,
		OpsByKind:   byKind,
		Seconds:     seconds,
		Throughput:  throughput,
		ModelledNS:  modelled - modelled0,
		DelayWaitNS: wait - wait0,
		Latency:     merged.Summary(),
		Comm:        snap,
		RemoteOps:   snap.Remote(),
		Matrix:      matrix,
		MaxInbound:  bench.MaxInboundOf(matrix),
		Digest:      digest.Load(),
	}
}

// runTask is one worker task of one phase round: it draws ops from its
// private stream and applies them through the driver, recording wall
// latency per op.
func runTask(sys *pgas.System, em epoch.EpochManager, drv Driver, spec Spec,
	phaseIdx, round, loc, task int, ph Phase, zipf *zipfGen,
	hist *bench.Histogram, counts []atomic.Int64, digest *atomic.Uint64, tel *Telemetry) {

	// Live telemetry rides in batches: samples accumulate in a private
	// chunk and merge into the bridge every liveChunkSize ops, so the
	// worker never takes the bridge mutex on the per-op path.
	var live *liveChunk
	if tel != nil {
		live = tel.newChunk()
		defer live.flush()
	}

	c := sys.Ctx(loc)
	tok := em.Register(c)
	st := NewStream(spec.Seed, phaseIdx, round, loc, task, spec.Keyspace, spec.Dist, ph.Mix, zipf)

	var deadline time.Time
	if ph.Seconds > 0 {
		deadline = time.Now().Add(time.Duration(ph.Seconds * float64(time.Second)))
	}
	var interval time.Duration
	var next time.Time
	if ph.TargetRate > 0 {
		interval = time.Duration(float64(time.Second) / ph.TargetRate)
		next = time.Now()
	}
	var sum uint64
	for i := 0; ; i++ {
		if ph.OpsPerTask > 0 {
			if i >= ph.OpsPerTask {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		// Fail-stop: a task dies with its locale — it abandons its
		// remaining budget to the ledger and exits without flushing its
		// buffers (lost with the node) or unregistering its token (no
		// one survives to do it; the engine's stranded pins, not this
		// quiescent token, are what force-retire clears). Checked every
		// 16 ops: a mid-phase crash already lands at a racing op count.
		if i&15 == 0 && !sys.Alive(loc) {
			if ph.OpsPerTask > 0 {
				sys.Counters().IncOpsLost(loc, int64(ph.OpsPerTask-i))
			}
			return
		}
		if ph.TargetRate > 0 {
			// Open-loop pacing: hold the issue schedule. Missed slots
			// are forgiven (the schedule re-anchors at now), so a stall
			// is followed by the steady rate, not a catch-up burst.
			now := time.Now()
			if now.Before(next) {
				time.Sleep(next.Sub(now))
				next = next.Add(interval)
			} else {
				next = now.Add(interval)
			}
		}
		kind := st.NextOp()
		if kind == OpBulk {
			keys := st.NextKeys(ph.bulkSize())
			owner := int(st.next() % uint64(spec.Locales))
			t0 := time.Now()
			drv.ApplyBulk(c, owner, keys)
			ns := time.Since(t0).Nanoseconds()
			hist.Record(ns)
			if live != nil {
				live.record(ns)
			}
			for _, k := range keys {
				sum += opDigest(kind, k)
			}
		} else {
			key := st.NextKey()
			t0 := time.Now()
			drv.Apply(c, tok, kind, key)
			ns := time.Since(t0).Nanoseconds()
			hist.Record(ns)
			if live != nil {
				live.record(ns)
			}
			sum += opDigest(kind, key)
		}
		counts[kind].Add(1)
		if ph.ReclaimEvery > 0 && (i+1)%ph.ReclaimEvery == 0 {
			tok.TryReclaim(c)
		}
	}
	// Ship anything still sitting in this task's aggregation buffers
	// (bulk routing) before the round joins.
	c.Flush()
	digest.Add(sum)
	tok.Unregister(c)
}
