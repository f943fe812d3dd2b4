package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"gopgas/internal/bench"
	"gopgas/internal/comm"
	"gopgas/internal/workload"
)

// procStart is as close to process start as Go code gets; setup_s is
// measured from it.
var procStart = time.Now()

// childResult is what one measuring child process (or, in the package
// test, one in-process call) hands back to the parent.
type childResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// OpsByKind is the measured phases' op count per kind name.
	OpsByKind map[string]int64 `json:"ops_by_kind"`
	// Attempted is workers × ops_per_task over the measured phases;
	// Failed the ops lost, expired or never issued.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// RunSeconds is the wall time of the measured phases.
	RunSeconds float64 `json:"run_seconds"`
	// Broken lists every output identity that did not hold.
	Broken []string `json:"broken,omitempty"`
	// Ladder is set by the ladder mode only.
	Ladder map[string]rungStats `json:"ladder,omitempty"`
}

func (r *childResult) breakf(format string, args ...any) {
	r.Broken = append(r.Broken, fmt.Sprintf(format, args...))
}

// phaseMarks is the progress writer handed to workload.Run: the engine
// writes one line as each phase completes, so the write after warm is
// the instant the first measured phase starts.
type phaseMarks struct {
	phases   int
	runStart time.Duration // since procStart
	mem      runtime.MemStats
}

func (m *phaseMarks) Write(p []byte) (int, error) {
	if m.phases == phaseWarm {
		runtime.ReadMemStats(&m.mem)
		m.runStart = time.Since(procStart)
	}
	m.phases++
	return len(p), nil
}

// modelledNS estimates, from a phase's counter deltas, the nanoseconds
// the latency profile p charged the issuing tasks (wire) and the
// progress workers (handler). It is an estimate: a remote Free charges
// only the AM round trip but counts as an on-statement, and the fault
// plan's scaling is not applied. Aggregated flushes are inside
// BulkXfers already.
func modelledNS(c comm.Snapshot, p comm.LatencyProfile) (wire, handler float64) {
	am := float64(c.AMAMOs + c.DCASRemote)
	wire = float64(c.Gets+c.Puts)*float64(p.PutGetNS) +
		float64(c.NICAMOs)*float64(p.NICAtomicNS) +
		am*float64(p.AMRoundTripNS) +
		float64(c.OnStmts)*float64(p.AMRoundTripNS+p.OnStmtNS) +
		float64(c.BulkXfers)*float64(p.BulkStartupNS) +
		float64(c.BulkBytes)*float64(p.BulkPerByteNS) +
		float64(c.LocalAMOs+c.DCASLocal)*float64(p.LocalAtomicNS)
	handler = am * float64(p.AMHandlerNS)
	return wire, handler
}

// foldRun folds the reports of the measured phases — the run phase, or
// a sliced run's slices and quiet reclaims — into one. The latency
// percentiles are the medians of the run phases' own.
func foldRun(phases []workload.PhaseReport) workload.PhaseReport {
	run := workload.PhaseReport{Name: "run", OpsByKind: map[string]int64{}}
	var p50, p99 []float64
	for _, ph := range phases {
		run.Ops += ph.Ops
		for kind, n := range ph.OpsByKind {
			run.OpsByKind[kind] += n
		}
		run.Seconds += ph.Seconds
		run.Comm = run.Comm.Sub(comm.Snapshot{}.Sub(ph.Comm)) // a + b as a − (0 − b)
		if run.Matrix == nil {
			run.Matrix = bench.SubMatrix(ph.Matrix, ph.Matrix)
		}
		for i, row := range ph.Matrix {
			for j, n := range row {
				run.Matrix[i][j] += n
			}
		}
		if ph.Name == run.Name {
			p50 = append(p50, float64(ph.Latency.P50NS))
			p99 = append(p99, float64(ph.Latency.P99NS))
		}
	}
	run.RemoteOps = run.Comm.Remote()
	run.MaxInbound = bench.MaxInboundOf(run.Matrix)
	run.Latency.P50NS = int64(median(p50))
	run.Latency.P99NS = int64(median(p99))
	return run
}

// runE2E hands the workload's spec, unmodified except for seed and
// scale, to workload.Run with tracing off — the path loadgen and soak
// users exercise — and derives the end-to-end metrics plus the
// count-based per-layer metrics from its report and process stats.
func runE2E(w benchWorkload, seed uint64, scale float64) childResult {
	spec := scaled(w.spec, seed, scale)
	res := childResult{Metrics: map[string]float64{}}
	res.Attempted = measuredOps(spec)

	var marks phaseMarks
	rep, err := workload.Run(spec, &marks)
	if err != nil {
		res.breakf("workload.Run: %v", err)
		res.Failed = res.Attempted
		return res
	}
	var memEnd runtime.MemStats
	runtime.ReadMemStats(&memEnd)

	run := foldRun(rep.Phases[phaseRun:])
	ops := float64(run.Ops)
	res.OpsByKind = run.OpsByKind
	res.RunSeconds = run.Seconds
	res.Failed = run.Comm.OpsLost + run.Comm.OpsExpired + max(0, res.Attempted-run.Ops)

	if !rep.Heap.Safe() {
		res.breakf("heap not safe: %+v", rep.Heap)
	}
	if !rep.Epoch.Balanced() {
		res.breakf("epoch: deferred %d != reclaimed %d", rep.Epoch.Deferred, rep.Epoch.Reclaimed)
	}
	if lost := run.Comm.OpsLost + run.Comm.OpsExpired; lost != 0 {
		res.breakf("%d ops lost or expired", lost)
	}
	if run.Ops != res.Attempted {
		res.breakf("measured ops %d != workers × ops_per_task %d", run.Ops, res.Attempted)
	}
	if c := run.Comm; c.AggOps+c.AggCombined != c.AggOpsEnq {
		res.breakf("aggregator: shipped %d + combined %d != enqueued %d", c.AggOps, c.AggCombined, c.AggOpsEnq)
	}

	m := res.Metrics
	profile := comm.DefaultProfile()
	charged, _ := modelledNS(run.Comm, profile.Scale(spec.LatencyScale))
	taskNS := float64(workers) * run.Seconds * 1e9

	m["ops_per_s"] = ratio(ops, run.Seconds)
	m["overhead_ns_per_op"] = ratio(taskNS-charged, ops)
	// Peak resident set of this child, which lives for one scenario.
	// ru_maxrss is in KiB on Linux, the only platform the benchmark is
	// run on. (MemStats.Sys moves in 4 MiB steps, a third of the value
	// on the small-heap workloads, and flipped between two levels.)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		res.breakf("getrusage: %v", err)
	}
	m["mem_peak_mb"] = float64(ru.Maxrss) / 1024
	m["setup_s"] = marks.runStart.Seconds()

	// Count-based per-layer metrics. Comm counters are the measured
	// phases' deltas; heap and epoch totals exist only for the whole
	// scenario, so they are divided by all its ops (load and warm are
	// < 6 %).
	c := run.Comm
	total := float64(rep.TotalOps)
	wire, handler := modelledNS(c, profile)
	m["gas.allocs_per_op"] = ratio(float64(rep.Heap.Allocs), total)
	m["gas.frees_per_op"] = ratio(float64(rep.Heap.Frees), total)
	m["gas.live_end"] = float64(rep.Heap.Live)
	m["gas.uaf_total"] = float64(rep.Heap.UAFLoads + rep.Heap.UAFStores + rep.Heap.UAFFrees)
	m["comm.remote_per_op"] = ratio(float64(run.RemoteOps), ops)
	m["comm.modelled_ns_per_op"] = ratio(wire, ops)
	m["comm.handler_ns_per_op"] = ratio(handler, ops)
	m["comm.agg_ops_per_flush"] = ratio(float64(c.AggOps), float64(c.AggFlushes))
	m["comm.agg_combined_share"] = ratio(float64(c.AggCombined), float64(c.AggOpsEnq))
	m["comm.bulk_bytes_per_op"] = ratio(float64(c.BulkBytes), ops)
	var matrixTotal int64
	for _, row := range run.Matrix {
		for _, n := range row {
			matrixTotal += n
		}
	}
	m["comm.max_inbound_share"] = ratio(float64(run.MaxInbound), float64(matrixTotal))
	m["pgas.gets_per_op"] = ratio(float64(c.Gets), ops)
	m["pgas.puts_per_op"] = ratio(float64(c.Puts), ops)
	m["pgas.nic_amos_per_op"] = ratio(float64(c.NICAMOs), ops)
	m["pgas.am_amos_per_op"] = ratio(float64(c.AMAMOs), ops)
	m["pgas.local_amos_per_op"] = ratio(float64(c.LocalAMOs), ops)
	m["pgas.on_stmts_per_op"] = ratio(float64(c.OnStmts), ops)
	m["pgas.dcas_remote_per_op"] = ratio(float64(c.DCASRemote), ops)
	m["atomics.cas_per_op"] = ratio(float64(c.CASAttempts), ops)
	m["atomics.cas_retry_share"] = ratio(float64(c.CASRetries), float64(c.CASAttempts))
	m["epoch.deferred_per_op"] = ratio(float64(rep.Epoch.Deferred), total)
	m["epoch.reclaimed_share"] = ratio(float64(rep.Epoch.Reclaimed), float64(rep.Epoch.Deferred))
	m["epoch.advances_per_kop"] = ratio(1000*float64(rep.Epoch.Advances), total)
	m["epoch.advance_fail_share"] = ratio(float64(rep.Epoch.AdvanceFail), float64(rep.Epoch.Advances+rep.Epoch.AdvanceFail))
	m["workload.op_p50_ns"] = float64(run.Latency.P50NS)
	m["workload.op_p99_ns"] = float64(run.Latency.P99NS)
	m["runtime.allocs_per_op"] = ratio(float64(memEnd.Mallocs-marks.mem.Mallocs), ops)
	m["runtime.bytes_per_op"] = ratio(float64(memEnd.TotalAlloc-marks.mem.TotalAlloc), ops)
	m["runtime.gc_cpu_share"] = memEnd.GCCPUFraction
	m["runtime.gc_cycles"] = float64(memEnd.NumGC - marks.mem.NumGC)
	return res
}
