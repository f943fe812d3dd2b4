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
// phase. The System is built from the spec — locales, backend and
// latency profile (LatencyScale × the calibrated default) — and torn
// down before Run returns. Its fault events land from one ordered
// schedule (see run.step).
func Run(spec Spec, progress io.Writer) (*Report, error) {
	return RunLive(spec, progress, nil)
}

// RunLive is Run with a live telemetry bridge: when tel is non-nil the
// run attaches its System and trace recorder to it for the duration,
// so a telemetry.Server built from tel.Options() serves the run's
// counters, latency percentiles, trace windows and fault control while
// the scenario executes. A fault posted to that control plane lands
// from the round's clock through the schedule's own applier (run.apply)
// and is booked like a scheduled one; the schedule never changes, and
// tolerates what live faults did first (a pair already healed settles).
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
		Latency: spec.latency(),
		Seed:    spec.Seed,
		Agg:     comm.AggConfig{Combine: spec.Combine != nil && spec.Combine.Enabled},
		Park:    spec.Faults.parkConfig(),
		Tracer:  tracer,
	})
	defer sys.Shutdown()
	r := &run{spec: spec, sys: sys, c0: sys.Ctx(0), drv: drv, tel: tel,
		avail: &AvailabilityReport{Recovered: true}, severed: make(map[[2]int]time.Time),
		sched: newSchedule(spec.Faults), workers: make([]sync.WaitGroup, spec.Locales)}
	if tel != nil {
		r.posts = tel.attach(spec.Name, sys, tracer)
		defer tel.detach()
	}
	r.em = epoch.NewEpochManager(r.c0)
	drv.Setup(r.c0, r.em, spec)
	// The Zipfian generator's construction is an O(keyspace) zeta sum;
	// (keyspace, theta) are spec-level, so build it once and share it
	// across phases and tasks (immutable after construction).
	if spec.Dist.Kind == DistZipfian {
		r.zipf = newZipfGen(spec.Keyspace, spec.Dist.Theta)
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
	// The availability section is the books of the liveness faults that
	// landed, scheduled or live; a run none landed on has none.
	if avail := r.avail; avail.Crashes > 0 || avail.Partitions > 0 {
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
// tasks. c0, avail, severed and sched belong to whichever goroutine
// keeps the engine's time — the scenario goroutine between rounds, the
// round's clock during one, while the scenario goroutine sits in the
// worker join; starting and joining the clock are the handoffs. The
// rest is fixed.
type run struct {
	spec  Spec
	sys   *pgas.System
	c0    *pgas.Ctx
	em    epoch.EpochManager
	drv   Driver
	zipf  *zipfGen
	tel   *Telemetry
	posts <-chan livePost // /api/fault posts; nil without a telemetry bridge
	avail *AvailabilityReport
	// severed is the sever clock, shared by scheduled and live faults:
	// when each severed pair went down.
	severed map[[2]int]time.Time
	sched   schedule
	// workers joins one round's worker tasks, per locale: the round
	// waits on every locale's, a crash on the dead locale's.
	workers []sync.WaitGroup
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
	loopNS  atomic.Int64 // closed loops: Σ tasks' end − start − reclaim time
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
// schedule's after_ops triggers are in.
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
	modelled0, perturb0, wait0 := sys.DelayTotals()
	start := time.Now()

	for round := 0; round < ph.rounds(); round++ {
		// Boundary events land before the round spawns its workers, so a
		// seeded run with the same fault schedule replays exactly.
		now := time.Now()
		r.step(pi, ps.issued(), now)

		// A clock only when the round has a mid-phase event to wait for,
		// a driver loop (rebalancing) to tick or a telemetry bridge whose
		// /api/fault posts it lands: a fault-free round without one
		// spawns workers and nothing else.
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
				r.workers[loc].Add(1)
				go func() {
					defer r.workers[loc].Done()
					r.runTask(ps, round, loc, t)
				}()
			}
		}
		// The clock starts after the last worker is added, so a crash it
		// applies joins a complete set: its Wait never races an Add.
		var tick time.Duration
		if tk, ok := r.drv.(Ticker); ok {
			tick = tk.TickInterval()
		}
		var stop, done chan struct{}
		if _, timed := r.wait(pi, now); timed || tick > 0 || r.posts != nil {
			stop, done = make(chan struct{}), make(chan struct{})
			go r.clock(ps, tick, stop, done)
		}
		for loc := range r.workers {
			r.workers[loc].Wait()
		}
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
	modelled, perturb, wait := sys.DelayTotals()
	throughput := 0.0
	if seconds > 0 {
		throughput = float64(ops) / seconds
	}
	var latencySum int64
	for i := range ps.hists {
		latencySum += ps.hists[i].sum
	}
	pr := PhaseReport{
		Name:         ph.Name,
		Rounds:       ph.rounds(),
		Ops:          ops,
		OpsByKind:    byKind,
		Seconds:      seconds,
		Throughput:   throughput,
		ModelledNS:   modelled - modelled0,
		PerturbNS:    perturb - perturb0,
		DelayWaitNS:  wait - wait0,
		unpacedNS:    ps.unpaced.Load(),
		Latency:      summary(ps.hists),
		latencySumNS: latencySum,
		loopNS:       ps.loopNS.Load(),
		Comm:         snap,
		RemoteOps:    snap.Remote(),
		Matrix:       matrix,
		MaxInbound:   comm.MaxInboundOf(matrix),
		Digest:       ps.digest.Load(),
	}
	if ps.service != nil {
		service, late := summary(ps.service), summary(ps.late)
		pr.Service, pr.Late = &service, &late
	}
	return pr
}

// clock keeps the engine's time while a round's workers run: it sleeps
// to the soonest of the schedule's next possible due time and the
// driver's next tick, landing each /api/fault post as it arrives, then
// steps whichever is due. It exits when stop closes or, without a
// bridge, nothing is left to wait for, and closes done.
func (r *run) clock(ps *phaseState, tick time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	now := time.Now()
	nextTick := now.Add(tick)
	for {
		d, ok := r.wait(ps.idx, now)
		if tick > 0 && (!ok || nextTick.Sub(now) < d) {
			d, ok = nextTick.Sub(now), true
		}
		var wake <-chan time.Time
		if ok {
			wake = time.After(d)
		} else if r.posts == nil {
			return
		}
		select {
		case <-stop:
			return
		case p := <-r.posts:
			p.landed <- r.apply(p.fault, time.Now())
		case <-wake:
		}
		now = time.Now()
		r.step(ps.idx, ps.issued(), now)
		if tick > 0 && !now.Before(nextTick) {
			r.drv.(Ticker).Tick(r.c0)
			nextTick = now.Add(tick)
		}
	}
}

const segmentOps = 16 // closed-loop ops per timed op

// segments records a closed loop's latency. A segment is a timed op
// and the untimed ops up to the next (a task's first also holds those
// before it), recorded as the timed op's latency weighted by the op
// count, with the segment's wall time less its reclaim time as the sum.
// Segments chain, so counts equal ops and sums cover the task's time
// outside reclaim exactly; quantiles and the max are the timed ops'.
type segments struct {
	hist *Histogram
	live *liveChunk // nil without a telemetry bridge
	from int64      // the open segment's start, moved on past its reclaim time
	n    int64      // ops in the open segment
	lat  int64      // its timed op's latency; -1 before the task's first
}

// timed adds an op timed from before to after, which opens a segment.
func (s *segments) timed(before, after int64) {
	if s.lat >= 0 {
		s.close(before)
	}
	s.lat = after - before
	s.n++
}

// close records the open segment as ending at t. A segment with no
// timed op — a task that ended before its first — records its mean.
func (s *segments) close(t int64) {
	if s.n == 0 {
		return
	}
	lat := s.lat
	if lat < 0 {
		lat = (t - s.from) / s.n
	}
	s.record(lat, s.n, t-s.from)
	s.from, s.n = t, 0
}

// record writes n ops at ns, summing to sum, to histogram and live chunk.
func (s *segments) record(ns, n, sum int64) {
	s.hist.RecordWeighted(ns, n, sum)
	if s.live != nil {
		s.live.record(ns, n, sum)
	}
}

// runTask is one worker task of one phase round: it draws ops from its
// private stream and applies them through the driver, recording wall
// latency. The loop reads only locals and its own worker slot.
//
// A closed loop reads the clock just before the draw and just after
// the Apply of one op in segmentOps, at an offset hashed from the
// task's coordinates (no op draw moves), and checks a deadline against
// the latest read, so it runs at most segmentOps-1 ops late. Reclaim
// is read on both sides and taken out of its segment. The task adds
// its own span — its end read less its start read and its reclaim
// time — to the phase's loopNS, which the segments' sums equal.
//
// A paced task (TargetRate) reads the clock once per op and holds a
// fixed schedule: op i is due at slot i × interval past the task's
// start. An op whose slot is ahead sleeps to it; one whose slot has
// passed — a stall held it up — issues at once, and either way its
// latency is response time, timed from its slot, so the backlog behind
// a stall is counted rather than forgiven (coordinated omission).
// Service time, from the actual issue, and how late the generator
// issued the op go to their own histograms.
func (r *run) runTask(ps *phaseState, round, loc, task int) {
	spec, sys, drv := r.spec, r.sys, r.drv
	ph, w := spec.Phases[ps.idx], loc*spec.TasksPerLocale+task
	seg, counts := segments{hist: &ps.hists[w], lat: -1}, &ps.counts[w].n
	var service, late *Histogram
	var interval float64 // ns between slots; 0 in a closed loop
	if ph.TargetRate > 0 {
		service, late = &ps.service[w], &ps.late[w]
		interval = float64(time.Second) / ph.TargetRate
	}

	// Live telemetry rides in batches: samples accumulate in a private
	// chunk and merge into the bridge every liveChunkSize ops, so the
	// worker never takes the bridge mutex on the per-op path.
	if r.tel != nil {
		seg.live = r.tel.newChunk()
		defer seg.live.flush()
	}

	c := sys.Ctx(loc)
	defer func() {
		credit, dropped := c.DelayAccount()
		ps.unpaced.Add(credit + dropped)
	}()
	tok := r.em.Register(c)
	st := NewStream(spec.Seed, ps.idx, round, loc, task, spec.Keyspace, spec.Dist, ph.Mix, r.zipf)
	off := int(streamSeed(^spec.Seed, ps.idx, round, loc, task) % segmentOps)

	t := comm.ClockNS() // the latest clock read
	start, deadline := t, t+int64(ph.Seconds*float64(time.Second))
	seg.from = t
	reclaimIn := ph.ReclaimEvery // ops to the next reclaim attempt; below 0 for good when ReclaimEvery is 0
	var reclaimNS int64
	var sum uint64
	died := false
	i := 0
	for ; ; i++ {
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
			died = true
			break
		}
		from := t // where a timed op's latency starts: its slot, when paced
		timed := interval == 0 && i&(segmentOps-1) == off
		if interval > 0 {
			from = start + int64(float64(i)*interval)
			if t < from {
				time.Sleep(time.Duration(from - t))
				t = comm.ClockNS()
			}
		} else if timed {
			if t = comm.ClockNS(); ph.OpsPerTask == 0 && t >= deadline {
				break
			}
			from = t
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
		switch {
		case interval > 0:
			end := comm.ClockNS()
			seg.record(end-from, 1, end-from)
			service.Record(end - t)
			late.Record(t - from)
			t = end
		case timed:
			t = comm.ClockNS()
			seg.timed(from, t)
		default:
			seg.n++
		}
		counts[kind].Add(1)
		if reclaimIn--; reclaimIn == 0 {
			reclaimIn = ph.ReclaimEvery
			before := comm.ClockNS()
			tok.TryReclaim(c)
			t = comm.ClockNS()
			seg.from += t - before
			reclaimNS += t - before
		}
	}
	end := comm.ClockNS()
	seg.close(end)
	if interval == 0 {
		ps.loopNS.Add(end - start - reclaimNS)
	}
	if died {
		if ph.OpsPerTask > 0 {
			sys.Counters().IncOpsLost(loc, int64(ph.OpsPerTask-i))
		}
		return
	}
	// Ship anything still sitting in this task's aggregation buffers
	// (bulk routing) before the round joins.
	c.Flush()
	ps.digest.Add(sum)
	tok.Unregister(c)
}
