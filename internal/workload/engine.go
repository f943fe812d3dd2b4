package workload

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// Run executes a scenario on a fresh simulated System and returns its
// Report. progress, when non-nil, receives one line per completed
// phase. The System is built from the spec — locales, backend,
// latency profile (LatencyScale × the calibrated default) and the
// fault-injection perturbation — and torn down before Run returns. Its
// crashes and partitions become one ordered schedule (see run.step).
func Run(spec Spec, progress io.Writer) (*Report, error) {
	return RunLive(spec, progress, nil)
}

// RunLive is Run with a live telemetry bridge: when tel is non-nil the
// run attaches its System and trace recorder to it for the duration,
// so a telemetry.Server built from tel.Options() serves the run's
// counters, latency percentiles, trace windows and fault control while
// the scenario executes. Faults injected through that control plane
// change the system under the schedule, never the schedule, which
// tolerates them (a pair already healed just settles).
func RunLive(spec Spec, progress io.Writer, tel *Telemetry) (*Report, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	drv, err := NewDriver(spec.Structure)
	if err != nil {
		return nil, err
	}
	return runWith(spec, drv, progress, tel)
}

// runWith is RunLive on a validated spec and the driver it runs; tests
// hand it a driver of their own.
func runWith(spec Spec, drv Driver, progress io.Writer, tel *Telemetry) (*Report, error) {
	backend, err := comm.ParseBackend(spec.Backend)
	if err != nil {
		return nil, err
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
		Latency: comm.DefaultProfile().Scale(spec.LatencyScale), // scale 0 is the zero profile: no injected delay
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
	r := &run{spec: spec, sys: sys, c0: sys.Ctx(0), drv: drv, tel: tel,
		sched: newSchedule(spec.Faults), live: make([]atomic.Int64, spec.Locales)}
	r.em = epoch.NewEpochManager(r.c0)
	drv.Setup(r.c0, r.em, spec)
	// The Zipfian generator's construction is an O(keyspace) zeta sum;
	// (keyspace, theta) are spec-level, so build it once and share it
	// across phases and tasks (immutable after construction).
	if spec.Dist.Kind == DistZipfian {
		r.zipf = newZipfGen(spec.Keyspace, spec.Dist.Theta)
	}
	if len(r.sched) > 0 {
		r.avail = &AvailabilityReport{Recovered: true}
	}

	rep := &Report{Spec: spec}
	for pi := range spec.Phases {
		pr := r.runPhase(pi)
		rep.Phases = append(rep.Phases, pr)
		rep.TotalOps += pr.Ops
		rep.TotalSeconds += pr.Seconds
		if progress != nil {
			fmt.Fprintf(progress, "workload %s/%s: %d ops in %.2fs (%.0f ops/s)\n",
				spec.Name, pr.Name, pr.Ops, pr.Seconds, pr.Throughput)
		}
	}

	// Settle the retry plane before the final books — every round's clock
	// is joined, so no heal can still land — with the final redeliver-or-
	// expire pass: OpsParked == OpsRedelivered + OpsExpired on every report.
	sys.DrainParking()

	// Final teardown: reclaim everything still deferred so the heap
	// and epoch verdicts reflect leaks, not pending reclamation.
	r.em.Clear(r.c0)
	h := sys.HeapStats()
	rep.Heap = HeapReport{
		Live: h.Live, Allocs: h.Allocs, Frees: h.Frees,
		UAFLoads: h.UAFLoads, UAFStores: h.UAFStores, UAFFrees: h.UAFFrees,
	}
	est := r.em.Stats(r.c0)
	rep.Epoch = EpochReport{Deferred: est.Deferred, Reclaimed: est.Reclaimed, Advances: est.Advances, AdvanceFail: est.AdvanceFail}
	if avail := r.avail; avail != nil {
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

// run is what one scenario execution shares across phases, rounds and
// tasks. c0, avail and sched belong to whichever goroutine keeps the
// engine's time — the scenario goroutine between rounds, the round's
// clock during one, while the scenario goroutine sits in the worker join;
// starting and joining the clock are the handoffs. The rest is fixed.
type run struct {
	spec  Spec
	sys   *pgas.System
	c0    *pgas.Ctx
	em    epoch.EpochManager
	drv   Driver
	zipf  *zipfGen
	tel   *Telemetry
	avail *AvailabilityReport // nil unless the spec schedules a liveness fault
	sched schedule
	live  []atomic.Int64 // running worker tasks per locale: what a crash waits out
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

// phaseState is what one phase's tasks write and its report reduces.
// Every slice has one entry per worker slot.
type phaseState struct {
	idx     int
	hists   []Histogram // each op's latency: response time when paced
	service []Histogram // paced phases only: from the op's actual issue
	late    []Histogram // paced phases only: actual issue − intended slot
	counts  []countRow
	digest  atomic.Uint64
	unpaced atomic.Int64 // workers' delay overshoot, dropped or carried out
}

// countRow is one worker's op counts by kind. Each op is one atomic add,
// so issued() is exact whenever the clock polls it; the padding (two
// cache lines, which the adjacent-line prefetcher fetches as a pair)
// keeps those adds off every other worker's row.
type countRow struct {
	n [numOps]atomic.Int64
	_ [128 - 8*numOps]byte
}

// issued totals the phase's ops so far, across rounds: the count the
// schedule's op marks are in.
func (ps *phaseState) issued() (n int64) {
	for _, c := range ps.byKind() {
		n += c
	}
	return n
}

// byKind totals the phase's ops so far per kind, across workers.
func (ps *phaseState) byKind() (n [numOps]int64) {
	for w := range ps.counts {
		for k := range n {
			n[k] += ps.counts[w].n[k].Load()
		}
	}
	return n
}

// summary merges one histogram per worker into the phase's digest.
func summary(hists []Histogram) LatencySummary {
	var merged Histogram
	for i := range hists {
		merged.Merge(&hists[i])
	}
	return merged.Summary()
}

// runPhase executes one phase and assembles its report. A round is a
// boundary step of the schedule, the workers and, if needed, a clock.
func (r *run) runPhase(pi int) PhaseReport {
	spec, sys, ph := r.spec, r.sys, r.spec.Phases[pi]
	workers := spec.Locales * spec.TasksPerLocale
	ps := &phaseState{
		idx:    pi,
		hists:  make([]Histogram, workers),
		counts: make([]countRow, workers),
	}
	if ph.TargetRate > 0 {
		ps.service = make([]Histogram, workers)
		ps.late = make([]Histogram, workers)
	}

	before, beforeM := sys.Counters().SnapshotMatrix()
	modelled0, wait0 := sys.DelayTotals()
	start := time.Now()

	for round := 0; round < ph.rounds(); round++ {
		// Boundary events land before the round spawns its workers, so a
		// seeded run with the same fault schedule replays exactly.
		now := time.Now()
		r.step(pi, ps.issued(), now)

		// A clock only when the round has an op mark to poll, an armed
		// wall-clock heal to wait for or a driver loop (rebalancing) to
		// tick: a fault-free round spawns workers and nothing else.
		var tick time.Duration
		if tk, ok := r.drv.(Ticker); ok {
			tick = tk.TickInterval()
		}
		var stop, done chan struct{}
		if _, timed := r.sched.wait(pi, now); timed || tick > 0 {
			stop, done = make(chan struct{}), make(chan struct{})
			go r.clock(ps, tick, stop, done)
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
				r.live[loc].Add(1)
				wg.Add(1)
				go func(loc, t int) {
					defer wg.Done()
					defer r.live[loc].Add(-1)
					r.runTask(ps, round, loc, t)
				}(loc, t)
			}
		}
		wg.Wait()
		if stop != nil {
			// Joined before the round is judged: the clock can race neither
			// a churn Destroy/Setup nor the final drain. A stale routed write
			// its last tick re-routed may still be an async task in flight;
			// quiesce before judging the round or tearing anything down.
			close(stop)
			<-done
			r.c0.Flush()
		}
		if ph.Churn && round != ph.rounds()-1 {
			// Between rounds: settle the retry ledgers first — a parked op
			// redelivered after Destroy would execute against a torn-down
			// structure — then reclaim the deferred set, tear the
			// structure down (registry slots recycle), rebuild. Ops still
			// severed at the teardown expire (settled, never replayed into
			// the wrong incarnation).
			sys.DrainParking()
			r.em.Clear(r.c0)
			r.drv.Destroy(r.c0)
			r.drv.Setup(r.c0, r.em, spec)
		}
	}
	seconds := time.Since(start).Seconds()

	byKind := make(map[string]int64)
	var ops int64
	for k, n := range ps.byKind() {
		if n > 0 {
			byKind[OpKind(k).String()] = n
			ops += n
		}
	}
	after, afterM := sys.Counters().SnapshotMatrix()
	snap, matrix := after.Sub(before), comm.SubMatrix(afterM, beforeM)
	modelled, wait := sys.DelayTotals()
	throughput := 0.0
	if seconds > 0 {
		throughput = float64(ops) / seconds
	}
	pr := PhaseReport{
		Name:        ph.Name,
		Rounds:      ph.rounds(),
		Ops:         ops,
		OpsByKind:   byKind,
		Seconds:     seconds,
		Throughput:  throughput,
		ModelledNS:  modelled - modelled0,
		DelayWaitNS: wait - wait0,
		unpacedNS:   ps.unpaced.Load(),
		Latency:     summary(ps.hists),
		Comm:        snap,
		RemoteOps:   snap.Remote(),
		Matrix:      matrix,
		MaxInbound:  comm.MaxInboundOf(matrix),
		Digest:      ps.digest.Load(),
	}
	if ps.service != nil {
		service, late := summary(ps.service), summary(ps.late)
		pr.Service, pr.Late = &service, &late
	}
	return pr
}

// clock keeps the engine's time while a round's workers run: it sleeps
// to the soonest of the schedule's next possible due time and the
// driver's next tick, then steps whichever is due. It exits when stop
// closes or nothing is left to wait for, and closes done.
func (r *run) clock(ps *phaseState, tick time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	now := time.Now()
	nextTick := now.Add(tick)
	for {
		d, ok := r.sched.wait(ps.idx, now)
		if tick > 0 && (!ok || nextTick.Sub(now) < d) {
			d, ok = nextTick.Sub(now), true
		}
		if !ok {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(d):
		}
		now = time.Now()
		r.step(ps.idx, ps.issued(), now)
		if tick > 0 && !now.Before(nextTick) {
			r.drv.(Ticker).Tick(r.c0)
			nextTick = now.Add(tick)
		}
	}
}

// runTask is one worker task of one phase round: it draws ops from its
// private stream and applies them through the driver, recording wall
// latency per op. The loop reads only locals and its own worker slot.
//
// Time is one chained clock: the read that ends op i starts op i+1, so
// all the loop does between two reads — the draw, the Apply, the
// previous op's bookkeeping — is charged to one op, for one read per op.
// A reclaim attempt is the exception: the clock is read again after it,
// so reclaim time is in no op's latency.
//
// A paced task (TargetRate) holds a fixed schedule: op i is due at slot
// i × interval past the task's start. An op whose slot is ahead sleeps
// to it; one whose slot has passed — a stall held it up — issues at
// once, and either way its latency is response time, timed from its
// slot, so the backlog behind a stall is counted rather than forgiven
// (coordinated omission). Service time, from the actual issue, and how
// late the generator issued the op go to their own histograms.
func (r *run) runTask(ps *phaseState, round, loc, task int) {
	spec, sys, drv := r.spec, r.sys, r.drv
	ph, w := spec.Phases[ps.idx], loc*spec.TasksPerLocale+task
	hist, counts := &ps.hists[w], &ps.counts[w].n
	var service, late *Histogram
	var interval float64 // ns between slots; 0 in a closed loop
	if ph.TargetRate > 0 {
		service, late = &ps.service[w], &ps.late[w]
		interval = float64(time.Second) / ph.TargetRate
	}

	// Live telemetry rides in batches: samples accumulate in a private
	// chunk and merge into the bridge every liveChunkSize ops, so the
	// worker never takes the bridge mutex on the per-op path.
	var live *liveChunk
	if r.tel != nil {
		live = r.tel.newChunk()
		defer live.flush()
	}

	c := sys.Ctx(loc)
	defer func() {
		credit, dropped := c.DelayAccount()
		ps.unpaced.Add(credit + dropped)
	}()
	tok := r.em.Register(c)
	st := NewStream(spec.Seed, ps.idx, round, loc, task, spec.Keyspace, spec.Dist, ph.Mix, r.zipf)

	t := comm.ClockNS() // the latest clock read
	start, deadline := t, t+int64(ph.Seconds*float64(time.Second))
	reclaimIn := ph.ReclaimEvery // ops to the next reclaim attempt; below 0 for good when ReclaimEvery is 0
	var sum uint64
	for i := 0; ; i++ {
		if ph.OpsPerTask > 0 {
			if i >= ph.OpsPerTask {
				break
			}
		} else if t >= deadline {
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
		from := t // where this op's latency is timed from: its slot, when paced
		if interval > 0 {
			from = start + int64(float64(i)*interval)
			if t < from {
				time.Sleep(time.Duration(from - t))
				t = comm.ClockNS()
			}
		}
		kind := st.NextOp()
		if kind == OpBulk {
			keys := st.NextKeys(ph.bulkSize())
			owner := int(st.next() % uint64(spec.Locales))
			drv.ApplyBulk(c, owner, keys)
			for _, k := range keys {
				sum += opDigest(kind, k)
			}
		} else {
			key := st.NextKey()
			drv.Apply(c, tok, kind, key)
			sum += opDigest(kind, key)
		}
		end := comm.ClockNS()
		hist.Record(end - from)
		if service != nil {
			service.Record(end - t)
			late.Record(t - from)
		}
		if live != nil {
			live.record(end - from)
		}
		counts[kind].Add(1)
		t = end
		if reclaimIn--; reclaimIn == 0 {
			reclaimIn = ph.ReclaimEvery
			tok.TryReclaim(c)
			t = comm.ClockNS()
		}
	}
	// Ship anything still sitting in this task's aggregation buffers
	// (bulk routing) before the round joins.
	c.Flush()
	ps.digest.Add(sum)
	tok.Unregister(c)
}
