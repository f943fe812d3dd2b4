// Scenario: the workload engine as a library — a hot-set flash-crowd
// against the distributed hash map, with one slow locale injected.
//
// 90% of the traffic hammers 10% of the keyspace (a flash crowd on
// popular keys) while locale 1 runs 6x slower than its peers (a
// degraded node). The engine records, per phase, the throughput, the
// HDR-style latency percentiles, and the exact communication counter
// and matrix deltas; this example prints the summary and then uses the
// report programmatically to show what fault injection did to the tail
// and to verify the run stayed safe (no use-after-free, no double
// free) and deterministic (the digest replays under the same seed).
//
//	go run ./examples/scenario -locales 4 -ops 20000
package main

import (
	"flag"
	"fmt"
	"os"

	"gopgas/internal/comm"
	"gopgas/internal/workload"
)

func main() {
	locales := flag.Int("locales", 4, "number of simulated locales")
	tasks := flag.Int("tasks", 2, "worker tasks per locale")
	ops := flag.Int("ops", 20000, "ops per task in the run phase")
	slow := flag.Float64("slow-factor", 6, "slowdown of the degraded locale")
	flag.Parse()

	spec := workload.Spec{
		Name:           "flash-crowd",
		Structure:      workload.StructureHashmap,
		Locales:        *locales,
		TasksPerLocale: *tasks,
		Backend:        "ugni",
		Seed:           0xFACE,
		Keyspace:       1 << 14,
		Dist:           workload.KeyDist{Kind: workload.DistHotSet, HotFraction: 0.1, HotProb: 0.9},
		Faults: workload.Faults{Events: []workload.Event{
			{Fault: workload.Fault{Scales: comm.SlowLocale(*locales, 1%*locales, *slow).Scales}},
		}},
		Phases: []workload.Phase{
			{Name: "load", Mix: workload.Mix{Insert: 1}, OpsPerTask: *ops / 2},
			{Name: "run", Mix: workload.Mix{Insert: 2, Get: 7, Remove: 1, Bulk: 0.02}, OpsPerTask: *ops, ReclaimEvery: 512},
			{Name: "churn", Mix: workload.Mix{Insert: 3, Get: 5, Remove: 2}, OpsPerTask: *ops / 4, Rounds: 2, Churn: true},
		},
	}

	rep, err := workload.Run(spec, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(2)
	}
	rep.WriteSummary(os.Stdout)

	// The report is data: pull the hotspot evidence out of it.
	run := rep.Phases[1]
	fmt.Printf("\nrun phase evidence:\n")
	fmt.Printf("  tail amplification p999/p50: %.1fx\n",
		float64(run.Latency.P999NS)/float64(max(run.Latency.P50NS, 1)))
	fmt.Printf("  busiest locale absorbs %d of %d remote events (%.0f%%)\n",
		run.MaxInbound, run.RemoteOps, 100*float64(run.MaxInbound)/float64(max(run.RemoteOps, 1)))
	fmt.Printf("  replay digest: %#x (same seed => same stream)\n", run.Digest)

	if !rep.Heap.Safe() {
		fmt.Printf("SAFETY VIOLATION: %d poisoned loads, %d double frees\n",
			rep.Heap.UAFLoads, rep.Heap.UAFFrees)
		os.Exit(1)
	}
	fmt.Println("safety: all loads valid, all frees unique — reclamation held under faults")
}
