package main

import (
	"fmt"

	"gopgas/internal/workload"
)

// Load shape shared by every workload: a closed loop of 4 locales × 1
// task. Callers of a PGAS structure wait for their reply, so the next
// op of a client is issued only after the previous one completed.
const (
	locales        = 4
	tasksPerLocale = 1
	workers        = locales * tasksPerLocale

	// Hashmap workloads: the 16-bucket default would make every op an
	// O(keyspace/16) list walk and measure nothing else.
	mapKeyspace = 16384
	mapBuckets  = 4096

	// queue_churn reclaims under load: each task attempts an epoch reclaim
	// every so many ops, the cadence cmd/loadgen gives its run phase
	// (cmd/soak uses 256). A queue segment's nodes are pinned, unlinked
	// and deferred on the segment's own locale only, so one locale's
	// epoch orders all of it.
	reclaimEvery = 512

	// The hashmap workloads cannot: a task walks a remote bucket's list
	// under its own locale's epoch, and an advance that reaches the
	// locales one after the other frees a node a reader still holds in
	// one scenario of 17 to 70 at that cadence (README.md, "What the first
	// runs found"). Their run is cut into runSlices slices that do not
	// reclaim, each followed by a quiet phase of quietOps gets per task
	// with a reclaim attempt after every get: a get defers nothing (it
	// helps unlink only a marked node of its own key, and a finished write
	// leaves none in front), no task holds a reference across a phase
	// boundary, so nothing in limbo can be reached while it is freed. Limbo still stays bounded (a slice's
	// worth) and the advances and bulk frees are inside the timed run.
	runSlices = 50
	quietOps  = 8

	// Phase indices of every spec below. Every phase from phaseRun on is
	// measured; everything before it is set-up.
	phaseLoad = 0
	phaseWarm = 1
	phaseRun  = 2
)

// benchWorkload is one named scenario: the spec handed to workload.Run
// and the one-line reason it is in the set.
type benchWorkload struct {
	name string
	why  string
	spec workload.Spec
}

// phases builds load → warm → run, reclaiming under load. load fills
// the structure, warm runs 5 % of the run budget with the run mix so
// heap chunks, ctx pools and the structure's shape reach steady state;
// only run is timed.
func phases(load workload.Mix, loadOps int, run workload.Mix, runOps int) []workload.Phase {
	return []workload.Phase{
		{Name: "load", Mix: load, OpsPerTask: loadOps},
		{Name: "warm", Mix: run, OpsPerTask: runOps / 20, ReclaimEvery: reclaimEvery},
		{Name: "run", Mix: run, OpsPerTask: runOps, ReclaimEvery: reclaimEvery},
	}
}

// slicedPhases builds load → warm → (run slice → quiet reclaim) ×
// runSlices. warm is as long as in phases and leaves its garbage to the
// first quiet phase.
func slicedPhases(load workload.Mix, loadOps int, run workload.Mix, runOps int) []workload.Phase {
	slice := runOps / runSlices
	ph := []workload.Phase{
		{Name: "load", Mix: load, OpsPerTask: loadOps},
		{Name: "warm", Mix: run, OpsPerTask: runOps / 20},
	}
	for i := 0; i < runSlices; i++ {
		ph = append(ph,
			workload.Phase{Name: "run", Mix: run, OpsPerTask: slice},
			workload.Phase{Name: "reclaim", Mix: workload.Mix{Get: 1}, OpsPerTask: quietOps, ReclaimEvery: 1})
	}
	return ph
}

func mapSpec(name, backend string, latencyScale float64, dist workload.KeyDist, run workload.Mix, runOps int) workload.Spec {
	return workload.Spec{
		Name:           name,
		Structure:      workload.StructureHashmap,
		Locales:        locales,
		TasksPerLocale: tasksPerLocale,
		Backend:        backend,
		Keyspace:       mapKeyspace,
		Buckets:        mapBuckets,
		Dist:           dist,
		LatencyScale:   latencyScale,
		// 0.7 × keyspace inserts leave about half the keys present.
		Phases: slicedPhases(workload.Mix{Insert: 1}, mapKeyspace*7/10/workers, run, runOps),
	}
}

// workloads is the fixed set. The run budgets are sized so one run
// phase lasts about 5.5 s on the 2-core reference host; the harness
// repeats whole scenarios until the requested seconds are measured.
func workloads() []benchWorkload {
	uniform := workload.KeyDist{Kind: workload.DistUniform}
	hot := workload.KeyDist{Kind: workload.DistHotSet, HotFraction: 0.01, HotProb: 0.9}

	readNIC := mapSpec("map_read_nic", "ugni", 0, uniform,
		workload.Mix{Get: 90, Insert: 5, Remove: 5}, 3_200_000)
	writeAM := mapSpec("map_write_am", "none", 0, uniform,
		workload.Mix{Insert: 45, Remove: 45, Get: 10}, 390_000)
	hotCombine := mapSpec("map_hot_combine", "none", 0, hot,
		workload.Mix{Insert: 7, Get: 2, Remove: 1}, 1_720_000)
	hotCombine.Combine = &workload.CombineSpec{Enabled: true}
	mixedNet := mapSpec("map_mixed_net", "none", 1, uniform,
		workload.Mix{Insert: 2, Get: 6, Remove: 1, Bulk: 0.02}, 130_000)

	queueMix := workload.Mix{Enqueue: 5, Remove: 5, Steal: 1, Bulk: 0.02}
	queueChurn := workload.Spec{
		Name:           "queue_churn",
		Structure:      workload.StructureQueue,
		Locales:        locales,
		TasksPerLocale: tasksPerLocale,
		Backend:        "none",
		Dist:           uniform,
		Phases:         phases(workload.Mix{Enqueue: 1}, 20_000, queueMix, 2_980_000),
	}

	return []benchWorkload{
		{"map_read_nic", "Read path at pure runtime cost: GETs and NIC atomics, no channel handoff, so gas loads, pgas charging, comm counter/matrix increments and list walks do the work; AM queues, aggregator, combiner idle.", readNIC},
		{"map_write_am", "Same map, write-heavy: every remote atomic rides amCall, a channel and a progress worker, with deferred deletes; shows AM handoff cost and catches a read optimisation that taxes writes.", writeAM},
		{"map_hot_combine", "Hot-set writes with combine on: the only workload where comm.Aggregator enqueue/flush, in-flight combining and shared.Combiner carry the ops; direct remote atomics do little.", hotCombine},
		{"queue_churn", "queue.Sharded with almost no communication: core/atomics CAS/DCAS, gas alloc/free and epoch defer+reclaim are everything; the bypass workload for any comm-layer change.", queueChurn},
		{"map_mixed_net", "Mixed map ops under the calibrated latency profile: modelled delay is 1/3 of task time, so comm-volume cuts and Delay fidelity move it, pure-overhead wins barely do; its percentiles are user-visible.", mixedNet},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the spec with the given seed and every phase budget
// multiplied by scale (never below 64 ops per task, or the phase's own
// budget when that is smaller). scale 1 is the measured configuration;
// the package test runs at 1/1000.
func scaled(spec workload.Spec, seed uint64, scale float64) workload.Spec {
	spec.Seed = seed
	ph := make([]workload.Phase, len(spec.Phases))
	for i, p := range spec.Phases {
		p.OpsPerTask = max(min(64, p.OpsPerTask), int(float64(p.OpsPerTask)*scale))
		ph[i] = p
	}
	spec.Phases = ph
	return spec
}

// bulkSize is the engine's effective batch length of a Bulk op.
func bulkSize(ph workload.Phase) int {
	if ph.BulkSize < 1 {
		return 64
	}
	return ph.BulkSize
}

// measuredOps is how many ops the measured phases of spec attempt.
func measuredOps(spec workload.Spec) int64 {
	var perTask int
	for _, ph := range spec.Phases[phaseRun:] {
		perTask += ph.OpsPerTask
	}
	return int64(spec.Locales * spec.TasksPerLocale * perTask)
}

// expectedOpsByKind replays the measured phases' generated input
// offline, from the same (seed, phase, round, locale, task) streams the
// engine uses, and returns the op count per kind name. Comparing it
// with the report proves the engine ran the generated input.
func expectedOpsByKind(spec workload.Spec) map[string]int64 {
	spec = spec.WithDefaults()
	counts := make(map[string]int64)
	for pi := phaseRun; pi < len(spec.Phases); pi++ {
		ph := spec.Phases[pi]
		bulk := bulkSize(ph)
		for loc := 0; loc < spec.Locales; loc++ {
			for t := 0; t < spec.TasksPerLocale; t++ {
				st := workload.NewStream(spec.Seed, pi, 0, loc, t, spec.Keyspace, spec.Dist, ph.Mix, nil)
				for i := 0; i < ph.OpsPerTask; i++ {
					kind := st.NextOp()
					if kind == workload.OpBulk {
						st.NextKeys(bulk)
						st.Float() // the engine's owner draw
					} else {
						st.NextKey()
					}
					counts[kind.String()]++
				}
			}
		}
	}
	return counts
}
