package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
	"gopgas/internal/workload"
)

// Names of the spans the benchmark records around every call into a
// layer. A root "op" span has one child per call it made.
const (
	spanOp = iota
	spanDraw
	spanApply    // + workload.OpKind
	spanReclaim  = spanApply + numKinds
	spanFlush    = spanReclaim + 1
	numSpanNames = spanFlush + 1
)

// numKinds is the size of the workload op vocabulary (OpInsert..OpBulk).
const numKinds = int(workload.OpBulk) + 1

// spanSample records full spans for one op in this many; time totals
// are kept for every op. The program's own recorder samples at the
// same rate.
const spanSample = 64

// maxFileOpsPerTask bounds the span file: the first so many sampled
// ops of each task are written, which is plenty to look at in Perfetto
// and keeps the file to a few megabytes.
const maxFileOpsPerTask = 4096

func spanName(n int) (name, layer string) {
	switch {
	case n == spanOp:
		return "op", "workload"
	case n == spanDraw:
		return "workload.draw", "workload"
	case n == spanReclaim:
		return "epoch.try_reclaim", "epoch"
	case n == spanFlush:
		return "pgas.flush", "pgas"
	default:
		return "structure.apply." + workload.OpKind(n-spanApply).String(), "structure"
	}
}

// span is one in-memory trace record. Spans of one op share opID; a
// child's parent is its op's root span (0 for the root itself).
type span struct {
	name       uint8
	start, end int64 // ns since the first measured phase began
	opID       uint64
	parent     uint64
}

// taskTrace is what one traced task accumulated over the measured
// phases. Only its own goroutine writes it until a phase joins.
type taskTrace struct {
	locale, task int
	spans        []span
	busy         [numSpanNames]int64 // ns inside each span name, every op
	loop         int64               // ns between spans: clock reads, op counters, span records
	wall         int64               // ns from a phase's first draw to the end of its flush, summed
}

// tracedTask is the benchmark's replica of the engine's task loop,
// built from the same exported pieces (NewStream, Driver.Apply,
// Token.TryReclaim, Ctx.Flush) and the same per-task stream, with a
// clock read around every call into a layer. It differs from the
// engine in two ways the exported API forces: it keeps no op digest,
// and a bulk op's owner is derived from Stream.Float, so it is drawn
// from the same stream position but is not the engine's value. Like
// the engine it counts ops by kind in counters all tasks share; the
// span records stand in for the engine's latency histogram.
func tracedTask(sys *pgas.System, em epoch.EpochManager, drv workload.Driver, spec workload.Spec,
	phase, loc, task int, base time.Time, counts []atomic.Int64, tt *taskTrace) {

	ph := spec.Phases[phase]
	bulk := bulkSize(ph)
	c := sys.Ctx(loc)
	tok := em.Register(c)
	st := workload.NewStream(spec.Seed, phase, 0, loc, task, spec.Keyspace, spec.Dist, ph.Mix, nil)
	now := func() int64 { return int64(time.Since(base)) }
	idBase := uint64(loc*spec.TasksPerLocale+task+1)<<48 | uint64(phase)<<32

	begin := now()
	prev := begin // end of the previous span
	for i := 0; i < ph.OpsPerTask; i++ {
		if i&15 == 0 && !sys.Alive(loc) {
			return
		}
		t0 := now()
		tt.loop += t0 - prev
		kind := st.NextOp()
		var key uint64
		var keys []uint64
		var owner int
		if kind == workload.OpBulk {
			keys = st.NextKeys(bulk)
			owner = int(uint64(st.Float()*(1<<53)) % uint64(spec.Locales))
		} else {
			key = st.NextKey()
		}
		t1 := now()
		if kind == workload.OpBulk {
			drv.ApplyBulk(c, owner, keys)
		} else {
			drv.Apply(c, tok, kind, key)
		}
		t2 := now()
		t3 := t2
		reclaim := ph.ReclaimEvery > 0 && (i+1)%ph.ReclaimEvery == 0
		if reclaim {
			tok.TryReclaim(c)
			t3 = now()
		}
		tt.busy[spanDraw] += t1 - t0
		tt.busy[spanApply+int(kind)] += t2 - t1
		tt.busy[spanReclaim] += t3 - t2
		prev = t3
		counts[kind].Add(1)
		if i%spanSample == 0 || reclaim { // reclaims are rare: keep every one
			id := idBase | uint64(i)
			tt.spans = append(tt.spans,
				span{spanOp, t0, t3, id, 0},
				span{spanDraw, t0, t1, id, id},
				span{uint8(spanApply + int(kind)), t1, t2, id, id})
			if reclaim {
				tt.spans = append(tt.spans, span{uint8(spanReclaim), t2, t3, id, id})
			}
		}
	}
	f0 := now()
	tt.loop += f0 - prev
	c.Flush()
	f1 := now()
	tt.busy[spanFlush] += f1 - f0
	id := idBase | uint64(ph.OpsPerTask)
	tt.spans = append(tt.spans, span{uint8(spanFlush), f0, f1, id, 0})
	tt.wall += f1 - begin
	tok.Unregister(c)
}

// newTraces returns one empty trace per task, locale-major.
func newTraces(spec workload.Spec) []*taskTrace {
	var traces []*taskTrace
	for loc := 0; loc < spec.Locales; loc++ {
		for t := 0; t < spec.TasksPerLocale; t++ {
			traces = append(traces, &taskTrace{locale: loc, task: t})
		}
	}
	return traces
}

// runPhaseTasks runs one phase's closed loop, one goroutine per task,
// adding to the tasks' traces and to the op count per kind, and returns
// the phase's wall seconds. Span times count from base.
func runPhaseTasks(sys *pgas.System, em epoch.EpochManager, drv workload.Driver, spec workload.Spec,
	phase int, base time.Time, traces []*taskTrace, counts []atomic.Int64) float64 {

	var wg sync.WaitGroup
	start := time.Now()
	for _, tt := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tracedTask(sys, em, drv, spec, phase, tt.locale, tt.task, base, counts, tt)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// runTraced replays the workload through the benchmark-owned loop on a
// system built exactly as workload.Run builds it, with the program's
// trace.Recorder attached. When outDir is not empty the sampled spans
// are written there as Chrome-trace JSON.
func runTraced(w benchWorkload, seed uint64, scale float64, outDir string) childResult {
	spec := scaled(w.spec, seed, scale).WithDefaults()
	res := childResult{Metrics: map[string]float64{}}
	res.Attempted = measuredOps(spec)
	if err := spec.Validate(); err != nil {
		res.breakf("spec: %v", err)
		res.Failed = res.Attempted
		return res
	}
	backend, _ := comm.ParseBackend(spec.Backend) // Validate parsed it already
	var latency comm.LatencyProfile
	if spec.LatencyScale > 0 {
		latency = comm.DefaultProfile().Scale(spec.LatencyScale)
	}
	// Rings hold the measured phases undrained: they record about 10 k
	// events per locale at these run lengths, and trace.dropped reports
	// when 2^15 stops being enough. Larger rings are GC ballast that
	// makes the traced run faster than the untraced one.
	rec := trace.NewRecorder(spec.Locales, trace.Config{BufferSize: 1 << 15, SampleRate: spanSample})
	sys := pgas.NewSystem(pgas.Config{
		Locales: spec.Locales,
		Backend: backend,
		Latency: latency,
		Seed:    spec.Seed,
		Agg:     comm.AggConfig{Combine: spec.Combine != nil && spec.Combine.Enabled},
		Tracer:  rec,
	})
	defer sys.Shutdown()
	c0 := sys.Ctx(0)
	em := epoch.NewEpochManager(c0)
	drv, err := workload.NewDriver(spec.Structure)
	if err != nil {
		res.breakf("driver: %v", err)
		res.Failed = res.Attempted
		return res
	}
	drv.Setup(c0, em, spec)

	for pi := phaseLoad; pi < phaseRun; pi++ {
		runPhaseTasks(sys, em, drv, spec, pi, time.Now(), newTraces(spec), make([]atomic.Int64, numKinds))
	}
	sys.Quiesce()
	rec.Drain(0) // the measured phases' events only
	traces, counts, seconds := newTraces(spec), make([]atomic.Int64, numKinds), 0.0
	base := time.Now()
	for pi := phaseRun; pi < len(spec.Phases); pi++ {
		seconds += runPhaseTasks(sys, em, drv, spec, pi, base, traces, counts)
	}
	sys.Quiesce()
	events := rec.Drain(0)

	em.Clear(c0)
	if h := sys.HeapStats(); h.UAFLoads+h.UAFStores+h.UAFFrees != 0 {
		res.breakf("traced heap not safe: %v", h)
	}
	if es := em.Stats(c0); es.Deferred != es.Reclaimed {
		res.breakf("traced epoch: deferred %d != reclaimed %d", es.Deferred, es.Reclaimed)
	}
	balanced := trace.BooksBalanced(rec.Books())
	if !balanced {
		res.breakf("trace recorder books are not balanced")
	}

	var busy [numSpanNames]int64
	var taskNS, loopNS, ops int64
	res.OpsByKind = map[string]int64{}
	durs := make([][]float64, numKinds) // sampled apply-span durations per kind
	for _, tt := range traces {
		taskNS += tt.wall
		loopNS += tt.loop
		for n, ns := range tt.busy {
			busy[n] += ns
		}
		for _, sp := range tt.spans {
			if k := int(sp.name) - spanApply; k >= 0 && k < numKinds {
				durs[k] = append(durs[k], float64(sp.end-sp.start))
			}
		}
	}
	for k := range counts {
		if n := counts[k].Load(); n > 0 {
			res.OpsByKind[workload.OpKind(k).String()] = n
			ops += n
		}
	}
	res.Failed = max(0, res.Attempted-ops)

	var structNS int64
	for k := 0; k < numKinds; k++ {
		structNS += busy[spanApply+k]
	}
	total := float64(taskNS)
	m := res.Metrics
	m["ops_per_s"] = ratio(float64(ops), seconds) // for trace.overhead_pct; not a per-layer metric
	m["structure.busy_share"] = ratio(float64(structNS), total)
	m["epoch.reclaim_busy_share"] = ratio(float64(busy[spanReclaim]), total)
	m["pgas.flush_busy_share"] = ratio(float64(busy[spanFlush]), total)
	m["workload.engine_share"] = ratio(float64(busy[spanDraw]+loopNS), total)
	// Each share is measured, so the four adding up to the tasks' time
	// proves the loop accounted for every interval of it.
	if sum := m["structure.busy_share"] + m["epoch.reclaim_busy_share"] + m["pgas.flush_busy_share"] + m["workload.engine_share"]; math.Abs(sum-1) > 0.01 {
		res.breakf("traced shares add up to %v, not 1", sum)
	}
	// The queue has no insert or get: its add op (enqueue) and its
	// take-from-anywhere op (steal) stand in, so every workload reports
	// every metric.
	m["structure.insert_p50_ns"] = median(append(durs[workload.OpInsert], durs[workload.OpEnqueue]...))
	m["structure.get_p50_ns"] = median(append(durs[workload.OpGet], durs[workload.OpSteal]...))
	m["structure.remove_p50_ns"] = median(durs[workload.OpRemove])

	// The program's own recorder: sampled kinds are scaled back up by
	// the sample rate to estimate busy time over all calls.
	sum := trace.Summarize(events)
	kindBusy := func(k trace.Kind) float64 {
		return ratio(float64(sum.Kinds[k].TotalNS)*spanSample, total)
	}
	m["pgas.dispatch_busy_share"] = kindBusy(trace.KindDispatch)
	m["comm.agg_flush_busy_share"] = kindBusy(trace.KindFlush)
	m["shared.combine_busy_share"] = kindBusy(trace.KindCombine)
	var passes, applied int64
	for _, ev := range events {
		if ev.Kind == trace.KindCombine && ev.Phase == trace.PhaseEnd {
			passes++
			applied += ev.Arg
		}
	}
	m["shared.combine_ops_per_pass"] = ratio(float64(applied), float64(passes))
	m["trace.dropped"] = float64(rec.Dropped())
	m["trace.books_balanced"] = 0
	if balanced {
		m["trace.books_balanced"] = 1
	}

	if outDir != "" {
		if err := writeSpans(filepath.Join(outDir, "trace_"+w.name+".json"), traces); err != nil {
			res.breakf("span file: %v", err)
		}
	}
	return res
}

// writeSpans writes the sampled spans as Chrome trace-event JSON
// (complete "X" events; locale is the process, task the thread), which
// ui.perfetto.dev and chrome://tracing load. Children nest under their
// root op by time containment and carry its id in args.
func writeSpans(path string, traces []*taskTrace) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, tt := range traces {
		roots := 0
		for _, sp := range tt.spans {
			if sp.parent == 0 {
				if roots++; roots > maxFileOpsPerTask && sp.name == spanOp {
					break
				}
			}
			if !first {
				fmt.Fprint(bw, ",")
			}
			first = false
			name, layer := spanName(int(sp.name))
			fmt.Fprintf(bw, "\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"op_id":%d,"parent":%d}}`,
				name, layer, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, tt.locale, tt.task, sp.opID, sp.parent)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
