// Command loadgen runs a declarative workload scenario against one of
// the library's structures and emits the machine-readable perf record.
//
// A scenario comes from a JSON spec file (-spec) or is assembled from
// flags: the default flag-built scenario is the classic three-phase
// shape — load (inserts/enqueues only) → run (the mixed Zipfian op
// soup) → churn (the run mix across destroy/recreate rounds).
//
// Usage:
//
//	loadgen -spec scenario.json [-out report.json]
//	loadgen [-structure hashmap|queue|stack|skiplist] [-locales N]
//	        [-tasks N] [-backend ugni|none] [-seed N] [-keyspace N]
//	        [-dist uniform|zipfian|hotset] [-theta F] [-ops N]
//	        [-bulk N] [-rate F] [-latency-scale F]
//	        [-slow-locale I -slow-factor F]
//	        [-crash-locale I] [-crash-phase N] [-crash-after-ops N] [-failover]
//	        [-partition A,B] [-partition-phase N] [-heal-after MS]
//	        [-cache] [-cache-slots N] [-combine] [-rebalance]
//	        [-trace] [-trace-sample N] [-trace-out trace.json]
//	        [-http :8077] [-out report.json] [-print-spec] [-quiet]
//
// -cache enables the hashmap's per-locale read replication cache
// (hashmap only): gets are served from locale-private replicas, every
// mutation ends in a broadcast invalidation from the locale that
// applied it, and the report gains cache hit/miss/invalidation
// counters — compare the run phase's maxInbound with and without it
// under a hot-set distribution to see the owner hotspot disappear.
// Composable with -combine, -rebalance and -failover.
//
// -combine enables write absorption (hashmap only): mutations route
// through the fire-and-forget UpsertAgg/RemoveAgg path, repeat writes
// to a key absorb inside the source's aggregation buffer before
// shipping — writes to keys the source's own locale owns included: they
// buffer and merge like remote ones and are delivered at the flush
// without a transfer — and the owner drains
// deliveries through its flat combiner. The report gains absorbed/
// enqueued and CAS counters — compare the run phase's shipped-op total
// with and without it under a hot-set distribution to see the write
// storm collapse.
//
// -rebalance enables dynamic hot-shard rebalancing (hashmap only,
// composable with -combine and -cache): writes route to each bucket's
// current owner through the live owner table, a
// rebalance.Controller samples windowed comm-matrix column deltas on a
// periodic tick, and over-ratio owners hand their hottest buckets —
// contents included, via the epoch-coherent handoff — to cold locales.
// The phase summaries gain migration, moved-byte, and reroute counts —
// compare the run phase's maxInbound with and without it under a
// hot-set distribution to see the owner hotspot dissolve.
//
// The fault flags lower to the spec's faults.events, the timeline that
// lands in phase order and, within a phase, in list order: the
// -slow-* event, then the -partition sever and its heal, then the
// -crash-locale crash (-print-spec shows the list).
//
// -slow-factor F slows locale -slow-locale by F: a phase-0 scales
// event, with that locale's entry F and every other 1. A negative
// factor or an out-of-range locale exits 2.
//
// -crash-locale kills one locale during the run (locale 0 cannot
// crash — it hosts the global epoch word): at the start of phase
// -crash-phase (default 1, the run phase), or mid-phase once the
// phase has issued -crash-after-ops operations and any sever or heal
// listed before the crash has landed. Ops toward the dead
// locale are refused into the lost-ops ledger and the report gains an
// availability section. Add -failover (hashmap, queue and stack) to
// have the survivors adopt the dead locale's shards and force-retire
// its stranded epoch tokens; without it the run demonstrates the
// wedged-reclamation regime and reports NOT RECOVERED.
//
// -partition severs the locale pair A,B at the start of phase
// -partition-phase (default 1). With -heal-after the pair heals that
// many milliseconds after the sever, or at the next phase boundary if
// the phase ends first (a churn phase refuses the timed heal); without
// it, at the next phase boundary (or never, when the sever lands in
// the last phase). Ops
// refused across the severed link park in the per-locale retry ledgers
// and redeliver at the heal — the report's availability section gains
// sever/heal counts, time-to-heal, and the parked/redelivered/expired
// settlement.
//
// -trace enables the event-tracing plane: begin/end spans for
// dispatch, flush, combine, epoch and migration lifecycles recorded
// into per-locale lock-free rings at 1-in-N sampling (-trace-sample,
// default 64; control-plane events always record). The report gains a
// trace section, and -trace-out writes the drained events as Chrome
// trace-event JSON — load it at https://ui.perfetto.dev to see the
// run's spans laid out per locale.
//
// -http starts the live telemetry server on the given address for the
// duration of the run: /api/status, /api/matrix, /api/hist,
// /api/trace?window=N (a live Perfetto-loadable window), POST
// /api/fault (one crash, sever, heal, scales or clear per body, landed
// through the engine's fault applier and booked in the report like a
// scheduled fault), and /debug/pprof.
//
// -print-spec writes the effective spec JSON to stdout (pipe it to a
// file, tweak, and feed it back with -spec). The run summary prints to
// stdout; -out writes the full workload.Report JSON. Exit status 1
// means the run broke one of workload.Report.Invariants — heap safety,
// the reclamation, aggregator, retry and trace books, crash recovery;
// each violation is named on stderr — and 2 a bad invocation.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"gopgas/internal/comm"
	"gopgas/internal/telemetry"
	"gopgas/internal/trace"
	"gopgas/internal/workload"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "JSON scenario file (overrides the scenario flags)")
		structure = flag.String("structure", "hashmap", "target structure: hashmap|queue|stack|skiplist")
		locales   = flag.Int("locales", 4, "number of simulated locales")
		tasks     = flag.Int("tasks", 2, "worker tasks per locale")
		backend   = flag.String("backend", "none", "network-atomic backend: ugni or none")
		seed      = flag.Uint64("seed", 1, "scenario seed (op/key streams replay under one seed)")
		keyspace  = flag.Uint64("keyspace", 1<<16, "number of distinct keys")
		dist      = flag.String("dist", "zipfian", "key distribution: uniform|zipfian|hotset")
		theta     = flag.Float64("theta", 0.99, "zipfian skew, in (0,1)")
		ops       = flag.Int("ops", 20000, "ops per task in the run phase (load=1/2, churn=1/4 per round)")
		bulkSize  = flag.Int("bulk", 64, "bulk-op batch length")
		rate      = flag.Float64("rate", 0, "open-loop target ops/sec per task (0 = closed loop)")
		latScale  = flag.Float64("latency-scale", 0, "x the calibrated latency profile (0 = no injected latency)")
		slowLoc   = flag.Int("slow-locale", 0, "locale slowed by -slow-factor")
		slowFac   = flag.Float64("slow-factor", 0, "fault injection: slow one locale by this factor (0 = off)")
		crashLoc  = flag.Int("crash-locale", 0, "fault injection: crash this locale during the run (0 = off; locale 0 cannot crash)")
		crashPh   = flag.Int("crash-phase", 1, "phase index at whose start the crash lands (with -crash-locale)")
		crashOps  = flag.Int64("crash-after-ops", 0, "apply the crash mid-phase after this many system-wide ops instead of at the phase boundary")
		failover  = flag.Bool("failover", false, "recover from the crash: survivors adopt the dead locale's shards and its epoch tokens are force-retired (hashmap, queue and stack)")
		partition = flag.String("partition", "", "fault injection: sever this locale pair \"A,B\" during the run")
		partPh    = flag.Int("partition-phase", 1, "phase index at whose start the sever lands (with -partition)")
		healAfter = flag.Float64("heal-after", 0, "heal the severed pair this many milliseconds after the sever (0 = at the next phase boundary)")
		useCache  = flag.Bool("cache", false, "enable the hot-key read replication cache (hashmap only)")
		cacheSlot = flag.Int("cache-slots", 0, "per-locale cache slots (0 = 256)")
		combine   = flag.Bool("combine", false, "enable write absorption: in-flight combining + owner-side flat combining (hashmap only)")
		rebalance = flag.Bool("rebalance", false, "enable dynamic hot-shard rebalancing: owner-table routing + controller-driven bucket migration (hashmap only)")
		traceOn   = flag.Bool("trace", false, "enable the event-tracing plane (spans for dispatch/flush/combine/epoch/migrate)")
		traceRate = flag.Int("trace-sample", 0, "trace 1 in N high-frequency events (0 = 64; control-plane events always record)")
		traceOut  = flag.String("trace-out", "", "write the drained trace as Chrome trace-event JSON here (implies -trace)")
		httpAddr  = flag.String("http", "", "serve live telemetry on this address (e.g. :8077) for the run's duration")
		outPath   = flag.String("out", "", "write the full report JSON here")
		printSpec = flag.Bool("print-spec", false, "print the effective spec JSON to stdout and exit")
		quiet     = flag.Bool("quiet", false, "suppress per-phase progress lines")
	)
	flag.Parse()

	var spec workload.Spec
	if *specPath != "" {
		var err error
		spec, err = workload.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
	} else {
		if *slowFac < 0 || math.IsNaN(*slowFac) {
			fmt.Fprintf(os.Stderr, "loadgen: -slow-factor must be >= 0, got %v\n", *slowFac)
			os.Exit(2)
		}
		if *slowFac > 0 && (*slowLoc < 0 || *slowLoc >= *locales) {
			fmt.Fprintf(os.Stderr, "loadgen: -slow-locale %d out of range [0, %d)\n", *slowLoc, *locales)
			os.Exit(2)
		}
		spec = flagSpec(*structure, *locales, *tasks, *backend, *seed, *keyspace,
			*dist, *theta, *ops, *bulkSize, *rate, *latScale, *slowLoc, *slowFac)
		if *useCache {
			spec.Cache = &workload.CacheSpec{Enabled: true, Slots: *cacheSlot}
			spec.Name += "-cached"
		}
		if *combine {
			spec.Combine = &workload.CombineSpec{Enabled: true}
			spec.Name += "-combined"
		}
		if *rebalance {
			spec.Rebalance = &workload.RebalanceSpec{Enabled: true}
			spec.Name += "-rebalanced"
		}
		// The sever and its heal go ahead of the crash in the list, so a
		// crash waiting for its after_ops never holds back a boundary sever.
		if *partition != "" {
			var a, b int
			if _, err := fmt.Sscanf(*partition, "%d,%d", &a, &b); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: -partition wants \"A,B\", got %q\n", *partition)
				os.Exit(2)
			}
			pair := []int{a, b}
			spec.Faults.Events = append(spec.Faults.Events, workload.Event{Phase: *partPh, Fault: workload.Fault{Sever: pair}})
			// A timed heal lands -heal-after ms after the sever; without one
			// the pair heals at the next phase boundary, or never when the
			// sever lands in the last phase.
			switch {
			case *healAfter != 0:
				spec.Faults.Events = append(spec.Faults.Events, workload.Event{Phase: *partPh, AfterMS: *healAfter, Fault: workload.Fault{Heal: pair}})
			case *partPh+1 < len(spec.Phases):
				spec.Faults.Events = append(spec.Faults.Events, workload.Event{Phase: *partPh + 1, Fault: workload.Fault{Heal: pair}})
			}
			spec.Name += "-partitioned"
		}
		if *crashLoc != 0 {
			spec.Faults.Events = append(spec.Faults.Events, workload.Event{Phase: *crashPh, AfterOps: *crashOps,
				Fault: workload.Fault{Crash: &workload.CrashFault{Locale: *crashLoc, Failover: *failover}}})
			spec.Name += "-crashed"
		}
	}
	if *traceOn || *traceOut != "" {
		spec.Trace = &workload.TraceSpec{Enabled: true, SampleRate: *traceRate}
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}

	if *printSpec {
		if err := spec.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		return
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	var tel *workload.Telemetry
	if *httpAddr != "" {
		tel = workload.NewTelemetry()
		srv, err := telemetry.Start(*httpAddr, tel.Options())
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry listening on http://%s\n", srv.Addr())
	}
	rep, err := workload.RunLive(spec, progress, tel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	rep.WriteSummary(os.Stdout)

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := trace.WriteChromeTrace(f, rep.TraceEvents); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events; load at https://ui.perfetto.dev)\n",
			*traceOut, len(rep.TraceEvents))
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}

	failed := false
	for _, inv := range rep.Invariants() {
		if !inv.Held {
			fmt.Fprintf(os.Stderr, "loadgen: INVARIANT VIOLATED: %s: %s\n", inv.Name, inv.Detail)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// flagSpec assembles the default three-phase scenario from flags.
func flagSpec(structure string, locales, tasks int, backend string, seed, keyspace uint64,
	dist string, theta float64, ops, bulkSize int, rate, latScale float64,
	slowLoc int, slowFac float64) workload.Spec {

	s := workload.Structure(structure)
	var faults workload.Faults
	if slowFac > 0 {
		faults.Events = []workload.Event{{Fault: workload.Fault{Scales: comm.SlowLocale(locales, slowLoc, slowFac).Scales}}}
	}
	var load, run workload.Mix
	switch s {
	case workload.StructureQueue, workload.StructureStack:
		load = workload.Mix{Enqueue: 1}
		run = workload.Mix{Enqueue: 4, Remove: 3, Steal: 0.5, Bulk: 0.02}
	default: // hashmap, skiplist (and unknown, which Validate rejects)
		load = workload.Mix{Insert: 1}
		run = workload.Mix{Insert: 2, Get: 6, Remove: 1}
		if s == workload.StructureHashmap {
			run.Bulk = 0.02
		}
	}
	return workload.Spec{
		Name:           fmt.Sprintf("%s-%s", structure, dist),
		Structure:      s,
		Locales:        locales,
		TasksPerLocale: tasks,
		Backend:        backend,
		Seed:           seed,
		Keyspace:       keyspace,
		Dist:           workload.KeyDist{Kind: workload.DistKind(dist), Theta: thetaFor(dist, theta)},
		LatencyScale:   latScale,
		Faults:         faults,
		Phases: []workload.Phase{
			{Name: "load", Mix: load, OpsPerTask: max(ops/2, 1), TargetRate: rate},
			{Name: "run", Mix: run, OpsPerTask: ops, BulkSize: bulkSize, TargetRate: rate, ReclaimEvery: 512},
			{Name: "churn", Mix: run, OpsPerTask: max(ops/4, 1), Rounds: 3, Churn: true, BulkSize: bulkSize, TargetRate: rate},
		},
	}
}

// thetaFor passes theta through for zipfian and zeroes it otherwise,
// so non-zipfian specs don't fail validation on an irrelevant knob.
func thetaFor(dist string, theta float64) float64 {
	if dist == string(workload.DistZipfian) {
		return theta
	}
	return 0
}
