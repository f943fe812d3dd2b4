// Command soak is the long-running confidence run, rebuilt on the
// workload scenario engine: every structure in turn is churned under a
// time-based mixed-op scenario — Zipfian keys, work stealing and bulk
// routing where supported, in-phase epoch reclamation, and
// destroy/recreate churn rounds — while the gas heaps watch for
// use-after-free and double free. A clean exit is the assertion a
// downstream adopter wants before deploying:
//
//	go run ./cmd/soak -seconds 30 -locales 8
//
// -structure limits the soak to one target. The fault flags lower to
// the spec's faults.events: -slow-factor adds a scales event slowing
// locale 0 from the start, and gives the run the calibrated latency
// profile for it to stretch. -crash kills the top locale midway
// through the hashmap scenario's steady phase and fails over — the
// survivors adopt its shards and force-retire its stranded epoch
// tokens — turning the soak into an availability drill: the summary
// gains a PASS/FAIL recovery verdict beside the safety ones (crash
// failover now covers the hashmap, sharded queue and sharded stack;
// the skiplist soaks unperturbed). -partition severs the pair (1,2)
// mid-steady-phase of every scenario and heals it 50ms later, ahead of
// the crash when both are on (events land in list order) — the
// transient-fault drill: the summary's partitions line shows the sever,
// the heal and the time between them, beside PASS/FAIL verdicts that
// the retry ledgers settled (parked == redelivered + expired) and
// (crash-free) nothing leaked into the fail-stop ledger.
// -http starts the live telemetry and
// control server for the whole soak — the server outlives scenario
// boundaries, re-attaching to each structure's run in turn, so an
// operator can watch /api/status and /api/matrix, pull live
// /api/trace windows (with -trace), profile via /debug/pprof, and
// inject faults — crash, sever, heal, latency scales or clear — into
// whichever scenario is running with POST /api/fault, where they land
// through the engine's fault applier and are booked like scheduled ones. -trace additionally records the event-tracing plane at
// 1/64 sampling and prints each run's span books in the summary. Every
// verdict is one entry of workload.Report.Invariants, printed PASS or
// FAIL per structure; exit status 1 means at least one FAIL.
//
// The engine covers the four scenario targets (hashmap, sharded
// queue/stack, skiplist); the bare Harris list keeps its dedicated
// stress coverage in its package's property and destroy/churn tests.
package main

import (
	"flag"
	"fmt"
	"os"

	"gopgas/internal/comm"
	"gopgas/internal/telemetry"
	"gopgas/internal/workload"
)

func main() {
	var (
		locales   = flag.Int("locales", 8, "number of simulated locales")
		seconds   = flag.Float64("seconds", 10, "soak duration (split across structures)")
		tasks     = flag.Int("tasks", 2, "worker tasks per locale")
		backend   = flag.String("backend", "ugni", "network-atomic backend: ugni or none")
		seed      = flag.Uint64("seed", 1, "workload seed")
		structure = flag.String("structure", "", "soak only this structure (default: all)")
		slowFac   = flag.Float64("slow-factor", 0, "also inject a slow locale 0 by this factor (0 = off)")
		crash     = flag.Bool("crash", false, "crash the top locale mid-steady-phase of the hashmap scenario and fail over (availability drill)")
		partition = flag.Bool("partition", false, "sever the pair (1,2) mid-steady-phase of every scenario and heal it 50ms later (transient-fault drill)")
		traceOn   = flag.Bool("trace", false, "record the event-tracing plane (1/64 sampling) during each scenario")
		httpAddr  = flag.String("http", "", "serve live telemetry + control on this address (e.g. :8077) for the whole soak")
	)
	flag.Parse()
	if err := checkSlowFactor(*slowFac); err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		os.Exit(2)
	}

	targets := workload.Structures()
	if *structure != "" {
		targets = []workload.Structure{workload.Structure(*structure)}
	}
	perStructure := *seconds / float64(len(targets))

	var tel *workload.Telemetry
	if *httpAddr != "" {
		tel = workload.NewTelemetry()
		srv, err := telemetry.Start(*httpAddr, tel.Options())
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("telemetry listening on http://%s\n", srv.Addr())
	}

	failures := 0
	var totalOps int64
	for _, s := range targets {
		spec := soakSpec(s, *locales, *tasks, *backend, *seed, perStructure, *slowFac)
		if *partition {
			spec.Faults.Events = append(spec.Faults.Events,
				workload.Event{AfterOps: 1024, Fault: workload.Fault{Sever: []int{1, 2}}},
				workload.Event{AfterMS: 50, Fault: workload.Fault{Heal: []int{1, 2}}})
		}
		if *crash && s == workload.StructureHashmap {
			spec.Faults.Events = append(spec.Faults.Events, workload.Event{AfterOps: 2048,
				Fault: workload.Fault{Crash: &workload.CrashFault{Locale: *locales - 1, Failover: true}}})
		}
		if *traceOn {
			spec.Trace = &workload.TraceSpec{Enabled: true}
		}
		rep, err := workload.RunLive(spec, nil, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(2)
		}
		rep.WriteSummary(os.Stdout)
		totalOps += rep.TotalOps
		for _, inv := range rep.Invariants() {
			verdict := "PASS"
			if !inv.Held {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%s  %s: %s (%s)\n", verdict, s, inv.Name, inv.Detail)
		}
	}
	fmt.Printf("soak total: %d ops across %d structures\n", totalOps, len(targets))
	if failures > 0 {
		fmt.Printf("%d invariant(s) violated\n", failures)
		os.Exit(1)
	}
	fmt.Println("all invariants held")
}

// checkSlowFactor refuses a -slow-factor that is negative or NaN; 0
// is off.
func checkSlowFactor(f float64) error {
	if !(f >= 0) {
		return fmt.Errorf("-slow-factor must be >= 0, got %v", f)
	}
	return nil
}

// soakSpec builds the churn scenario for one structure: half the time
// in a steady mixed-op phase, half across destroy/recreate churn
// rounds, both with in-phase reclamation. A slowed run (slowFac > 0)
// runs at the calibrated latency profile, so the slow locale's
// charges have a price to stretch.
func soakSpec(s workload.Structure, locales, tasks int, backend string, seed uint64, seconds, slowFac float64) workload.Spec {
	var mix workload.Mix
	switch s {
	case workload.StructureQueue, workload.StructureStack:
		mix = workload.Mix{Enqueue: 5, Remove: 4, Steal: 1, Bulk: 0.05}
	case workload.StructureHashmap:
		mix = workload.Mix{Insert: 3, Get: 4, Remove: 2, Bulk: 0.05}
	default: // skiplist
		mix = workload.Mix{Insert: 3, Get: 4, Remove: 2}
	}
	var faults workload.Faults
	var scale float64
	if slowFac > 0 {
		faults.Events = []workload.Event{{Fault: workload.Fault{Scales: comm.SlowLocale(locales, 0, slowFac).Scales}}}
		scale = 1
	}
	return workload.Spec{
		Name:           "soak-" + string(s),
		Structure:      s,
		Locales:        locales,
		TasksPerLocale: tasks,
		Backend:        backend,
		Seed:           seed,
		Keyspace:       1 << 12,
		Dist:           workload.KeyDist{Kind: workload.DistZipfian, Theta: 0.99},
		LatencyScale:   scale,
		Faults:         faults,
		Phases: []workload.Phase{
			{Name: "steady", Mix: mix, Seconds: seconds / 2, ReclaimEvery: 256},
			{Name: "churn", Mix: mix, Seconds: seconds / 8, Rounds: 4, Churn: true, ReclaimEvery: 256},
		},
	}
}
