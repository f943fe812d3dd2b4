package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// scenarioFor builds a small three-phase Zipfian scenario exercising
// every op kind the structure supports.
func scenarioFor(s Structure) Spec {
	var load, run Mix
	switch s {
	case StructureHashmap:
		load = Mix{Insert: 1}
		run = Mix{Insert: 2, Get: 6, Remove: 1, Bulk: 0.05}
	case StructureSkiplist:
		load = Mix{Insert: 1}
		run = Mix{Insert: 2, Get: 6, Remove: 1}
	default: // queue, stack
		load = Mix{Enqueue: 1}
		run = Mix{Enqueue: 4, Remove: 3, Steal: 1, Bulk: 0.05}
	}
	return Spec{
		Name:           "test-" + string(s),
		Structure:      s,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           0xABCD,
		Keyspace:       1 << 10,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.99},
		Phases: []Phase{
			{Name: "load", Mix: load, OpsPerTask: 300},
			{Name: "run", Mix: run, OpsPerTask: 500, BulkSize: 16},
			{Name: "churn", Mix: run, OpsPerTask: 150, Rounds: 3, Churn: true, BulkSize: 16},
		},
	}
}

// requireInvariants fails the test on any end-of-run identity the report
// breaks: the safety preamble of every scenario test.
func requireInvariants(t *testing.T, name string, rep *Report) {
	t.Helper()
	for _, inv := range rep.Invariants() {
		if !inv.Held {
			t.Fatalf("%s run: %s violated: %s", name, inv.Name, inv.Detail)
		}
	}
}

// TestScenarioPerStructure runs the acceptance scenario — a Zipfian
// mixed-op workload with a churn phase — against every structure and
// checks the report carries the full evidence set: per-phase
// throughput, latency percentiles, comm counter and matrix deltas.
func TestScenarioPerStructure(t *testing.T) {
	for _, s := range Structures() {
		t.Run(string(s), func(t *testing.T) {
			rep, err := Run(scenarioFor(s), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Phases) != 3 {
				t.Fatalf("got %d phases", len(rep.Phases))
			}
			for _, p := range rep.Phases {
				if p.Ops <= 0 || p.Seconds <= 0 || p.Throughput <= 0 {
					t.Fatalf("phase %s lacks throughput evidence: %+v", p.Name, p)
				}
				if p.Latency.Count != p.Ops {
					t.Fatalf("phase %s: latency count %d != ops %d", p.Name, p.Latency.Count, p.Ops)
				}
				if p.Latency.P50NS > p.Latency.P99NS || p.Latency.P99NS > p.Latency.P999NS ||
					p.Latency.P999NS > p.Latency.MaxNS {
					t.Fatalf("phase %s: percentiles not monotone: %+v", p.Name, p.Latency)
				}
				if len(p.Matrix) != 4 || len(p.Matrix[0]) != 4 {
					t.Fatalf("phase %s: matrix shape %dx?", p.Name, len(p.Matrix))
				}
				if p.Digest == 0 {
					t.Fatalf("phase %s: zero digest", p.Name)
				}
			}
			// Every structure but the sharded-local-only mixes performs
			// remote communication under this mix; the skiplist (single
			// home) and hashmap (remote buckets) certainly do.
			if s == StructureSkiplist || s == StructureHashmap {
				if rep.Phases[1].RemoteOps == 0 {
					t.Fatalf("%s run phase reports zero remote ops", s)
				}
			}
			requireInvariants(t, string(s), rep)
		})
	}
}

// deterministicParts strips the wall-clock fields from a report,
// leaving what one seed must reproduce exactly.
type deterministicParts struct {
	Ops       []int64
	ByKind    []map[string]int64
	Digests   []uint64
	Comm      []interface{}
	Matrices  [][][]int64
	HeapLive  int64
	HeapAlloc int64
}

func partsOf(r *Report) deterministicParts {
	var p deterministicParts
	for _, ph := range r.Phases {
		p.Ops = append(p.Ops, ph.Ops)
		p.ByKind = append(p.ByKind, ph.OpsByKind)
		p.Digests = append(p.Digests, ph.Digest)
		p.Comm = append(p.Comm, ph.Comm)
		p.Matrices = append(p.Matrices, ph.Matrix)
	}
	p.HeapLive = r.Heap.Live
	p.HeapAlloc = r.Heap.Allocs
	return p
}

// TestSeededRunBitIdentical counter-asserts the acceptance criterion:
// two invocations of one seeded scenario produce identical op streams,
// identical communication counters, identical comm matrices and
// identical heap accounting. The scenario is contention-free by
// construction (one task per locale, locale-local sharded-queue ops,
// no in-phase reclaim), so even the CAS-level counters cannot drift
// with goroutine scheduling.
func TestSeededRunBitIdentical(t *testing.T) {
	spec := Spec{
		Name:           "determinism",
		Structure:      StructureQueue,
		Locales:        4,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           0x5EED,
		Keyspace:       1 << 12,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.8},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Enqueue: 1}, OpsPerTask: 400},
			{Name: "run", Mix: Mix{Enqueue: 1, Remove: 1}, OpsPerTask: 600},
		},
	}
	a, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := partsOf(a), partsOf(b)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("seeded runs diverged:\n run A: %+v\n run B: %+v", pa, pb)
	}
	// The local-only mix must also be communication-free: the sharded
	// queue's Enqueue/Dequeue never cross a locale boundary.
	for _, ph := range a.Phases {
		if ph.RemoteOps != 0 {
			t.Fatalf("local-only phase %s performed %d remote ops", ph.Name, ph.RemoteOps)
		}
	}
}

// TestSeededCrashFailoverReplay extends the determinism criterion to
// the failure plane: two runs of one seeded scenario with the same
// phase-boundary crash schedule replay bit-identically — op counts,
// digests, comm counters and matrices (the OpsLost ledger rides in the
// comm snapshot), live-heap accounting, and the availability verdict.
// The workload is aggregated-write-only so every op ships exactly one
// routed write to its owner: reads (whose traversal lengths, and
// first-insert CAS races, whose allocation counts, vary with
// scheduling) are kept out of the asserted parts.
func TestSeededCrashFailoverReplay(t *testing.T) {
	spec := Spec{
		Name:           "crash-replay",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           0xFA11,
		Keyspace:       1 << 12,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.8},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 400},
			{Name: "degraded", Mix: Mix{Insert: 1}, OpsPerTask: 600},
		},
		Faults: Faults{Events: []Event{{Phase: 1, Fault: crash(2, true)}}},
	}
	type crashParts struct {
		deterministicParts
		OpsLost            int64
		Crashes            int
		ShardsAdopted      int64
		BytesAdopted       int64
		TokensForceRetired int64
		Recovered          bool
	}
	run := func() crashParts {
		rep, err := Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Availability == nil {
			t.Fatal("crashed run reports no availability verdict")
		}
		p := crashParts{deterministicParts: partsOf(rep)}
		// Allocation and CAS-attempt counts are schedule-dependent under
		// first-insert races; Live (the surviving key set) and everything
		// that crosses the wire are not.
		p.HeapAlloc = 0
		for i, c := range p.Comm {
			snap := c.(comm.Snapshot)
			snap.LocalAMOs, snap.CASAttempts, snap.CASRetries = 0, 0, 0
			p.Comm[i] = snap
		}
		av := rep.Availability
		p.OpsLost = av.OpsLost
		p.Crashes = av.Crashes
		p.ShardsAdopted = av.ShardsAdopted
		p.BytesAdopted = av.BytesAdopted
		p.TokensForceRetired = av.TokensForceRetired
		p.Recovered = av.Recovered
		return p
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded crash runs diverged:\n run A: %+v\n run B: %+v", a, b)
	}
	if !a.Recovered {
		t.Fatal("failover crash did not recover")
	}
	if a.Crashes != 1 || a.ShardsAdopted == 0 || a.TokensForceRetired != int64(spec.TasksPerLocale) {
		t.Fatalf("availability evidence off: %+v", a)
	}
	// With failover complete before the degraded phase spawns, the only
	// lost ops are the dead locale's own unissued budget: its one task's
	// closed-loop 600 ops. Nothing the survivors issue may be refused.
	if want := int64(spec.Phases[1].OpsPerTask); a.OpsLost != want {
		t.Fatalf("opsLost = %d, want exactly the dead locale's budget %d", a.OpsLost, want)
	}
}

// TestCachedScenarioHotspotRelief runs a hot-set get-heavy scenario
// with and without the read replication cache. The uncached run
// funnels the hot keys' gets to their owners; the cached run serves
// repeats from per-locale replicas, so its run-phase remote traffic is
// bounded by its misses. The churn phase exercises the cached driver's
// destroy/recreate path, and the usual verdicts (zero UAF, deferred ==
// reclaimed) hold with the cache's entry retirement in the mix.
func TestCachedScenarioHotspotRelief(t *testing.T) {
	base := Spec{
		Name:           "hotspot",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           7,
		Keyspace:       256,
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.05, HotProb: 0.95},
		// The calibrated profile ships a get of a remote bucket to its
		// owner: one on-statement, whatever the walk would have cost.
		LatencyScale: 1,
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 200},
			{Name: "run", Mix: Mix{Get: 1}, OpsPerTask: 2000},
			{Name: "churn", Mix: Mix{Get: 8, Insert: 1}, OpsPerTask: 100, Rounds: 2, Churn: true},
		},
	}
	uncached, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	withCache := base
	withCache.Cache = &CacheSpec{Enabled: true}
	cached, err := Run(withCache, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "uncached", uncached)
	requireInvariants(t, "cached", cached)
	ur, cr := uncached.Phases[1], cached.Phases[1]
	if ur.Comm.CacheHits != 0 {
		t.Fatalf("uncached run counted cache hits: %v", ur.Comm)
	}
	if cr.Comm.CacheHits == 0 || cr.Comm.CacheHits < 4*cr.Comm.CacheMiss {
		t.Fatalf("cached run not read-mostly-hit: %v", cr.Comm)
	}
	// Relief is asserted against the misses, which holds on every
	// schedule. The run phase is get-only, so every remote event of the
	// cached run belongs to a miss — a hit costs none, a miss at most its
	// one shipped get. Duplicate misses and set evictions from two tasks
	// racing per replica move the miss count, never this bound.
	if cr.RemoteOps > cr.Comm.CacheMiss {
		t.Fatalf("cached run: %d remote ops for %d misses (hits=%d)", cr.RemoteOps, cr.Comm.CacheMiss, cr.Comm.CacheHits)
	}
	// The uncached run pays one event per remote-bucket get, a count the
	// seed fixes; with at most a fifth of the gets missing (above), the
	// cached run stays under half of it.
	if 2*cr.RemoteOps >= ur.RemoteOps {
		t.Fatalf("cache did not relieve the hotspot: %d remote ops cached vs %d uncached (hits=%d miss=%d)",
			cr.RemoteOps, ur.RemoteOps, cr.Comm.CacheHits, cr.Comm.CacheMiss)
	}
	if cached.Phases[2].Comm.CacheInval == 0 {
		t.Fatal("churn-phase inserts produced no invalidations")
	}
}

// TestCombinedScenarioDigestInvariant runs one seeded write-heavy
// hot-set scenario with write absorption on and off. The op-stream
// digests — drawn from the seeded streams, independent of execution —
// must match exactly (absorption must not change what the workload
// asked for), the combined run's counters must show real absorption,
// and both runs must pass the usual safety verdicts.
func TestCombinedScenarioDigestInvariant(t *testing.T) {
	base := Spec{
		Name:           "write-storm",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           11,
		Keyspace:       64, // tiny keyspace: heavy per-buffer key reuse
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.1, HotProb: 0.95},
		Phases: []Phase{
			{Name: "storm", Mix: Mix{Insert: 8, Remove: 1}, OpsPerTask: 1500},
		},
	}
	plain, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	combined := base
	combined.Combine = &CombineSpec{Enabled: true}
	absorbed, err := Run(combined, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "plain", plain)
	requireInvariants(t, "combined", absorbed)
	pp, ap := plain.Phases[0], absorbed.Phases[0]
	if pp.Digest != ap.Digest {
		t.Fatalf("absorption changed the op stream: %x vs %x", pp.Digest, ap.Digest)
	}
	if pp.Comm.AggCombined != 0 {
		t.Fatalf("plain run absorbed ops: %v", pp.Comm)
	}
	if ap.Comm.AggCombined == 0 {
		t.Fatalf("combined run absorbed nothing: %v", ap.Comm)
	}
	if ap.Comm.AggOps+ap.Comm.AggCombined != ap.Comm.AggOpsEnq {
		t.Fatalf("shipped+combined != enqueued: %v", ap.Comm)
	}
}

// TestChurnReachesSteadyHeap checks that churn rounds recycle
// everything: heap live after N destroy/recreate rounds stays bounded
// by one round's working set instead of accumulating per round.
func TestChurnReachesSteadyHeap(t *testing.T) {
	base := Spec{
		Structure:      StructureSkiplist,
		Locales:        2,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           5,
		Keyspace:       1 << 14, // sparse: inserts mostly hit distinct keys
		Dist:           KeyDist{Kind: DistUniform},
	}
	perRound := 200
	run := func(rounds int) int64 {
		s := base
		s.Phases = []Phase{{Name: "churn", Mix: Mix{Insert: 1}, OpsPerTask: perRound, Rounds: rounds, Churn: true}}
		rep, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireInvariants(t, "churn", rep)
		return rep.Heap.Live
	}
	one := run(1)
	many := run(5)
	// The final round's survivors remain live in both cases; churn
	// must not stack earlier rounds on top.
	if many > one+int64(perRound) {
		t.Fatalf("heap grows with churn rounds: 1 round -> %d live, 5 rounds -> %d live", one, many)
	}
}

// TestSlowLocaleFaultInjection runs the same scenario with and without
// a slow-locale fault against the single-home skiplist (every op
// touches the home) and checks the fault slows the run down without
// changing the op stream or safety.
func TestSlowLocaleFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// LatencyScale 2 makes the injected delays dominate any host or
	// instrumentation (-race) overhead, so the slowdown ratio reflects
	// the fault plan, not CPU noise.
	base := Spec{
		Structure:      StructureSkiplist,
		Locales:        2,
		TasksPerLocale: 1,
		Backend:        "ugni",
		Seed:           77,
		Keyspace:       256,
		Home:           1,
		Dist:           KeyDist{Kind: DistUniform},
		LatencyScale:   2,
		Phases:         []Phase{{Name: "run", Mix: Mix{Insert: 1, Get: 2}, OpsPerTask: 200}},
	}
	fast, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.Faults = Faults{Events: []Event{{Fault: Fault{Scales: comm.SlowLocale(2, 1, 16).Scales}}}}
	perturbed, err := Run(slow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Phases[0].Digest != fast.Phases[0].Digest {
		t.Fatal("fault injection changed the op stream")
	}
	requireInvariants(t, "perturbed", perturbed)
	// The home is 16x slower and every op touches it; the run must be
	// several times slower (generous margin — CI hosts are noisy).
	if perturbed.Phases[0].Seconds < fast.Phases[0].Seconds*2.5 {
		t.Fatalf("slow-locale fault had no effect: %.3fs vs %.3fs",
			perturbed.Phases[0].Seconds, fast.Phases[0].Seconds)
	}
}

// TestTracedScenarioBooksBalance is the tracing plane's acceptance
// run: a seeded migration-storm scenario (rebalancing hashmap, hot
// bucket) traced at 1/64 sampling. After the run the recorder's books
// must balance per kind, the migration span count must equal the comm
// plane's adopted-bucket total (control-plane kinds are exempt from
// sampling precisely so this holds), the exported JSON must parse as
// Chrome trace-event format, and the op-stream digest must match an
// untraced run of the same seed — tracing is observation only.
func TestTracedScenarioBooksBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (paced phase)")
	}
	base := Spec{
		Name:           "migration-storm",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           17,
		Keyspace:       16,
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.07, HotProb: 0.95},
		Rebalance:      &RebalanceSpec{Enabled: true, Ratio: 1.5, IntervalMS: 1},
		Phases: []Phase{
			{Name: "storm", Mix: Mix{Insert: 6, Get: 3, Remove: 1},
				OpsPerTask: 300, TargetRate: 3000},
		},
	}
	plain, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Trace = &TraceSpec{Enabled: true, SampleRate: 64}
	rep, err := Run(traced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases[0].Digest != plain.Phases[0].Digest {
		t.Fatalf("tracing changed the op stream: %x vs %x", rep.Phases[0].Digest, plain.Phases[0].Digest)
	}
	requireInvariants(t, "traced", rep)
	tr := rep.Trace
	if tr == nil {
		t.Fatal("traced run produced no trace report")
	}
	if tr.SampleRate != 64 {
		t.Fatalf("sample rate %d, want 64", tr.SampleRate)
	}
	if !tr.Balanced {
		t.Fatalf("span books unbalanced: spans=%v", tr.Spans)
	}
	if len(rep.TraceEvents) == 0 || tr.Events != len(rep.TraceEvents) {
		t.Fatalf("event accounting: report says %d, drained %d", tr.Events, len(rep.TraceEvents))
	}
	var migrated int64
	for _, p := range rep.Phases {
		migrated += p.Comm.MigAdopted
	}
	if migrated == 0 {
		t.Fatalf("storm never migrated: %v", rep.Phases[0].Comm)
	}
	if tr.Spans["migrate"] != migrated {
		t.Fatalf("migrate spans %d != MigAdopted %d", tr.Spans["migrate"], migrated)
	}
	// (No per-kind floor for sampled kinds like dispatch/flush: at 1/64
	// sampling a short storm can legitimately record zero of either, and
	// the balance + total-event checks above already cover the plane.)
	// The export must load as Chrome trace-event JSON: an object with a
	// traceEvents array whose entries carry ph/pid/ts.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, rep.TraceEvents); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			PID int     `json:"pid"`
			TS  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(rep.TraceEvents) {
		t.Fatalf("export lost events: %d JSON entries for %d events", len(doc.TraceEvents), len(rep.TraceEvents))
	}
}

// TestOpenLoopPacing checks TargetRate holds the issue rate near the
// target instead of running closed-loop.
func TestOpenLoopPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	spec := Spec{
		Structure:      StructureQueue,
		Locales:        2,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           3,
		Dist:           KeyDist{Kind: DistUniform},
		Phases: []Phase{{
			Name: "paced", Mix: Mix{Enqueue: 1},
			OpsPerTask: 100, TargetRate: 200, // 2 tasks ≈ 0.5s
		}},
	}
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Phases[0]
	// 2 tasks × 200 ops/s each = 400 ops/s aggregate target; a
	// closed-loop run would finish orders of magnitude faster.
	if p.Throughput > 800 {
		t.Fatalf("open-loop phase ran at %.0f ops/s, target 400", p.Throughput)
	}
}

// stallDriver is the queue driver with one slow op: its at-th Apply
// sleeps for stall first.
type stallDriver struct {
	queueDriver
	applied atomic.Int64
	at      int64
	stall   time.Duration
}

func (d *stallDriver) Apply(c *pgas.Ctx, tok *epoch.Token, kind OpKind, key uint64) {
	if d.applied.Add(1) == d.at {
		time.Sleep(d.stall)
	}
	d.queueDriver.Apply(c, tok, kind, key)
}

// TestOpenLoopStallShowsBacklog checks that a paced phase times each op
// from its intended slot. One op stalls for 50 intervals; the schedule
// holds, so the ~50 ops due during the stall issue late, back to back,
// and their response times count the wait — the backlog a re-anchored
// schedule would forgive (coordinated omission). Service time, from
// the actual issue, sees one slow op and nothing else.
func TestOpenLoopStallShowsBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (paced phase)")
	}
	const interval = time.Millisecond
	spec := Spec{
		Structure:      StructureQueue,
		Locales:        1,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           3,
		Dist:           KeyDist{Kind: DistUniform},
		Phases: []Phase{{
			Name: "paced", Mix: Mix{Enqueue: 1},
			OpsPerTask: 400, TargetRate: float64(time.Second / interval),
		}},
	}.WithDefaults()
	rep, err := runWith(spec, &stallDriver{at: 100, stall: 50 * interval}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "stalled", rep)
	p := rep.Phases[0]
	if p.Service == nil || p.Late == nil {
		t.Fatalf("paced phase reports no service or lateness digest: %+v", p)
	}
	t.Logf("response %+v\nservice  %+v\nlate     %+v", p.Latency, *p.Service, *p.Late)
	for name, n := range map[string]int64{"response": p.Latency.Count, "service": p.Service.Count, "late": p.Late.Count} {
		if n != p.Ops {
			t.Fatalf("%s count %d != ops %d", name, n, p.Ops)
		}
	}
	// p99 of 400 ops is the fifth slowest. About 50 ops queued behind the
	// stall, the first of them for nearly all of it.
	if p.Latency.P99NS < int64(25*interval) {
		t.Fatalf("response p99 %v hides the backlog of a %v stall", time.Duration(p.Latency.P99NS), 50*interval)
	}
	if p.Late.MaxNS < int64(25*interval) {
		t.Fatalf("generator lateness max %v, want the stall's backlog", time.Duration(p.Late.MaxNS))
	}
	if p.Service.MaxNS < int64(50*interval) {
		t.Fatalf("service max %v, want the stalled op's %v", time.Duration(p.Service.MaxNS), 50*interval)
	}
	if p.Service.P99NS >= int64(10*interval) {
		t.Fatalf("service p99 %v: more than the one stalled op was slow", time.Duration(p.Service.P99NS))
	}
}

// TestClosedLoopLatencyCoversPhase checks the chained clock: in a closed
// loop every nanosecond of a task's loop outside its reclaim attempts is
// in exactly one op's latency — the draw and the bookkeeping included.
// The phase's latency sum must equal, exactly, what the tasks add up
// from their own clock reads: each one's end read less its start read
// and its reclaim time. Reclaim attempts run, so a segment that kept its
// reclaim time, or a sum recorded as latency × ops, breaks the identity.
func TestClosedLoopLatencyCoversPhase(t *testing.T) {
	spec := Spec{
		Structure:      StructureHashmap,
		Locales:        2,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           9,
		Keyspace:       1 << 10,
		Dist:           KeyDist{Kind: DistUniform},
		// Gets on an empty map: nothing is allocated or deferred however
		// many ops the deadline lets through.
		Phases: []Phase{{Name: "timed", Mix: Mix{Get: 1}, Seconds: 0.2, ReclaimEvery: 64}},
	}
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Phases[0]
	if p.Latency.Count != p.Ops {
		t.Fatalf("latency count %d != ops %d", p.Latency.Count, p.Ops)
	}
	if p.Ops < 2*segmentOps*int64(spec.Phases[0].ReclaimEvery) {
		t.Fatalf("%d ops: too few to time segments and reclaim attempts", p.Ops)
	}
	if p.loopNS <= 0 || p.latencySumNS != p.loopNS {
		t.Fatalf("%d ops: latencies sum to %dns, the tasks' loops outside reclaim to %dns",
			p.Ops, p.latencySumNS, p.loopNS)
	}
}

// TestRebalancedScenarioDigestInvariant runs one seeded hot-bucket
// scenario with dynamic rebalancing on and off. The op-stream digests
// must match exactly (migrating ownership must not change what the
// workload asked for), the rebalanced run must actually migrate —
// with exactly balanced adopt/retire books — and both runs must pass
// the heap-safety and epoch verdicts. The phase is open-loop paced so
// it spans many controller windows regardless of host speed.
func TestRebalancedScenarioDigestInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (paced phase)")
	}
	base := Spec{
		Name:           "hot-bucket",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           17,
		Keyspace:       16, // ~1-key hot set: one bucket takes most traffic
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.07, HotProb: 0.95},
		Phases: []Phase{
			{Name: "storm", Mix: Mix{Insert: 6, Get: 3, Remove: 1},
				OpsPerTask: 300, TargetRate: 3000}, // ≈100ms of windows
		},
	}
	static, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := base
	moved.Rebalance = &RebalanceSpec{Enabled: true, Ratio: 1.5, IntervalMS: 1}
	rebalanced, err := Run(moved, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "static", static)
	requireInvariants(t, "rebalanced", rebalanced)
	sp, rp := static.Phases[0], rebalanced.Phases[0]
	if sp.Digest != rp.Digest {
		t.Fatalf("rebalancing changed the op stream: %x vs %x", sp.Digest, rp.Digest)
	}
	if sp.Comm.MigRetired != 0 || sp.Comm.MigAdopted != 0 {
		t.Fatalf("static run booked migrations: %v", sp.Comm)
	}
	if rp.Comm.MigRetired == 0 {
		t.Fatalf("rebalanced run never migrated: %v", rp.Comm)
	}
	if rp.Comm.MigAdopted != rp.Comm.MigRetired {
		t.Fatalf("books unbalanced: adopted %d retired %d", rp.Comm.MigAdopted, rp.Comm.MigRetired)
	}
}

// TestAllFeaturesScenarioBooksBalance runs the combination the spec
// used to reject piecewise: the read cache, write absorption and
// dynamic rebalancing all on, and a locale crashing mid-storm with
// failover. Every write — absorbed, re-routed past a migration, or
// landing on an adopter — invalidates the replicas from the locale that
// applied it, so the run must recover, stay heap-safe and balance its
// epoch and migration books; and none of the machinery may change what
// the workload asked for: the op-stream digests equal those of the
// plain run under the same fault plan. The storm is open-loop paced so
// it spans many controller windows and the crash lands long before any
// task on the dying locale could finish its budget (a finished task
// would contribute its digest, an abandoned one does not).
func TestAllFeaturesScenarioBooksBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (paced phase)")
	}
	plain := Spec{
		Name:           "all-features",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           0xA11F,
		Keyspace:       16, // ~1-key hot set: one bucket takes most traffic
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.07, HotProb: 0.95},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 64},
			{Name: "storm", Mix: Mix{Insert: 5, Get: 4, Remove: 1, Bulk: 0.05},
				OpsPerTask: 300, TargetRate: 3000, BulkSize: 8}, // ≈100ms of windows
			{Name: "after", Mix: Mix{Insert: 1, Get: 3}, OpsPerTask: 200},
		},
		Faults: Faults{Events: []Event{{Phase: 1, AfterOps: 400, Fault: crash(2, true)}}},
	}
	all := plain
	all.Cache = &CacheSpec{Enabled: true, Slots: 32}
	all.Combine = &CombineSpec{Enabled: true}
	all.Rebalance = &RebalanceSpec{Enabled: true, Ratio: 1.5, IntervalMS: 1}

	reports := map[string]*Report{}
	for name, spec := range map[string]Spec{"plain": plain, "all-features": all} {
		rep, err := Run(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if av := rep.Availability; av == nil || !av.Recovered || av.Crashes != 1 || av.ShardsAdopted == 0 {
			t.Fatalf("%s run did not recover from its crash: %+v", name, av)
		}
		requireInvariants(t, name, rep)
		reports[name] = rep
	}
	var hits, invals, shipped, combined, enqueued, adopted, retired int64
	for i, ph := range reports["all-features"].Phases {
		if want := reports["plain"].Phases[i].Digest; ph.Digest != want {
			t.Fatalf("phase %q: the feature stack changed the op stream: %x vs %x", ph.Name, ph.Digest, want)
		}
		hits += ph.Comm.CacheHits
		invals += ph.Comm.CacheInval
		shipped += ph.Comm.AggOps
		combined += ph.Comm.AggCombined
		enqueued += ph.Comm.AggOpsEnq
		adopted += ph.Comm.MigAdopted
		retired += ph.Comm.MigRetired
	}
	if hits == 0 || invals == 0 {
		t.Fatalf("cache never engaged: %d hits, %d invalidations", hits, invals)
	}
	// The dying locale's tasks abandon their buffers unflushed, so the
	// crash leaves enqueued ahead of shipped+combined by design.
	if combined == 0 || shipped+combined > enqueued {
		t.Fatalf("absorption books: shipped %d + combined %d vs enqueued %d", shipped, combined, enqueued)
	}
	if adopted == 0 || adopted != retired {
		t.Fatalf("migration books: adopted %d retired %d", adopted, retired)
	}
}

// TestPartitionScenarioBooksSettle runs a three-phase combined-write
// hashmap scenario with a scheduled partition: pair (1,2) severs at the
// degraded phase boundary and heals at the next. Writes refused by the
// severed link park in the retry plane and redeliver at the heal, so
// the settlement identity OpsParked == OpsRedelivered + OpsExpired
// holds, nothing lands in the fail-stop ledger, and the trace plane
// records exactly one partition and one heal instant (control-plane
// kinds are exempt from sampling).
func TestPartitionScenarioBooksSettle(t *testing.T) {
	spec := Spec{
		Name:           "partition-settle",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           0x5E7E,
		Keyspace:       1 << 10,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.8},
		Combine:        &CombineSpec{Enabled: true},
		Trace:          &TraceSpec{Enabled: true, SampleRate: 64},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 300},
			{Name: "degraded", Mix: Mix{Insert: 1}, OpsPerTask: 400},
			{Name: "healed", Mix: Mix{Insert: 1}, OpsPerTask: 300},
		},
		Faults: Faults{
			Events: []Event{{Phase: 1, Fault: sever(1, 2)}, {Phase: 2, Fault: heal(1, 2)}},
			// A deadline far past the run keeps the deterministic
			// settlement shape: every parked op waits for the heal.
			Retry: &RetrySpec{DeadlineMS: 600_000},
		},
	}
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "partitioned", rep)
	av := rep.Availability
	if av == nil {
		t.Fatal("partitioned run reports no availability verdict")
	}
	if av.Partitions != 1 || av.Heals != 1 {
		t.Fatalf("lifecycle accounting: %d sever(s), %d heal(s), want 1 and 1", av.Partitions, av.Heals)
	}
	if av.TimeToHealNS <= 0 {
		t.Fatalf("time-to-heal not measured: %d", av.TimeToHealNS)
	}
	if av.OpsParked == 0 {
		t.Fatal("degraded phase never parked a refused op")
	}
	if av.OpsExpired != 0 {
		t.Fatalf("ops expired under a deadline far past the run: %d", av.OpsExpired)
	}
	if !av.RetryBalanced() {
		t.Fatalf("retry books unsettled: parked=%d redelivered=%d expired=%d",
			av.OpsParked, av.OpsRedelivered, av.OpsExpired)
	}
	if av.OpsLost != 0 {
		t.Fatalf("partition leaked into the fail-stop ledger: opsLost=%d", av.OpsLost)
	}
	if !av.Recovered {
		t.Fatal("partition-only run must count as recovered")
	}
	tr := rep.Trace
	if tr == nil {
		t.Fatal("traced run produced no trace report")
	}
	if tr.Instants["partition"] != 1 || tr.Instants["heal"] != 1 {
		t.Fatalf("lifecycle instants not traced: %v", tr.Instants)
	}
}

// TestSeededPartitionHealReplay extends the determinism criterion to
// the partition plane: two runs of one seeded scenario with the same
// phase-boundary sever/heal schedule replay bit-identically, retry
// ledgers included. The workload is aggregated-write-only (one task per
// locale) so the set of ops refused by the severed pair — and therefore
// the parked and redelivered books — is a pure function of the seed.
func TestSeededPartitionHealReplay(t *testing.T) {
	spec := Spec{
		Name:           "partition-replay",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           0x9EA1,
		Keyspace:       1 << 12,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.8},
		Combine:        &CombineSpec{Enabled: true},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 400},
			{Name: "degraded", Mix: Mix{Insert: 1}, OpsPerTask: 600},
			{Name: "healed", Mix: Mix{Insert: 1}, OpsPerTask: 400},
		},
		Faults: Faults{
			Events: []Event{{Phase: 1, Fault: sever(1, 2)}, {Phase: 2, Fault: heal(1, 2)}},
			Retry:  &RetrySpec{DeadlineMS: 600_000},
		},
	}
	type partitionParts struct {
		deterministicParts
		Parked      int64
		Redelivered int64
		Expired     int64
		OpsLost     int64
		Heals       int
	}
	run := func() partitionParts {
		rep, err := Run(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Availability == nil {
			t.Fatal("partitioned run reports no availability verdict")
		}
		p := partitionParts{deterministicParts: partsOf(rep)}
		p.HeapAlloc = 0
		for i, c := range p.Comm {
			snap := c.(comm.Snapshot)
			snap.LocalAMOs, snap.CASAttempts, snap.CASRetries = 0, 0, 0
			p.Comm[i] = snap
		}
		av := rep.Availability
		p.Parked = av.OpsParked
		p.Redelivered = av.OpsRedelivered
		p.Expired = av.OpsExpired
		p.OpsLost = av.OpsLost
		p.Heals = av.Heals
		return p
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded partition runs diverged:\n run A: %+v\n run B: %+v", a, b)
	}
	if a.Parked == 0 || a.Parked != a.Redelivered || a.Expired != 0 || a.OpsLost != 0 {
		t.Fatalf("retry ledger shape off: parked=%d redelivered=%d expired=%d lost=%d",
			a.Parked, a.Redelivered, a.Expired, a.OpsLost)
	}
	if a.Heals != 1 {
		t.Fatalf("heals = %d, want 1", a.Heals)
	}
}

// TestMidPhaseSeverTimedHeal covers the two partition clocks no other Go
// test reaches: the sever lands mid-phase at an issued-op mark and the
// heal comes due on the wall clock, 20ms later, while the same
// time-based phase is still running. The mix mostly buffers its writes
// and flushes them on every bulk op, so both severed endpoints ship
// toward each other many times inside the window; the retry deadline and
// ledger capacity are far past anything the run can reach, so every
// parked op must wait for the heal and none may expire.
func TestMidPhaseSeverTimedHeal(t *testing.T) {
	spec := Spec{
		Name:           "mid-sever-timed-heal",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           0x71ED,
		Keyspace:       1 << 10,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.8},
		Combine:        &CombineSpec{Enabled: true},
		Trace:          &TraceSpec{Enabled: true, SampleRate: 64},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 300},
			{Name: "storm", Mix: Mix{Insert: 1, Bulk: 0.05}, Seconds: 0.25, BulkSize: 8},
		},
		Faults: Faults{
			Events: []Event{{Phase: 1, AfterOps: 1000, Fault: sever(1, 2)}, {Phase: 1, AfterMS: 20, Fault: heal(1, 2)}},
			Retry:  &RetrySpec{DeadlineMS: 600_000, Capacity: 1 << 20},
		},
	}
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "partitioned", rep)
	av := rep.Availability
	if av == nil {
		t.Fatal("partitioned run reports no availability verdict")
	}
	if av.Partitions != 1 || av.Heals != 1 {
		t.Fatalf("lifecycle accounting: %d sever(s), %d heal(s), want 1 and 1", av.Partitions, av.Heals)
	}
	if av.TimeToHealNS < 20_000_000 {
		t.Fatalf("healed %dns after the sever, before the 20ms the schedule asks for", av.TimeToHealNS)
	}
	if av.OpsParked == 0 {
		t.Fatal("the severed window never parked a refused op")
	}
	if av.OpsExpired != 0 {
		t.Fatalf("ops expired under a deadline far past the run: %d", av.OpsExpired)
	}
	if !av.RetryBalanced() {
		t.Fatalf("retry books unsettled: parked=%d redelivered=%d expired=%d",
			av.OpsParked, av.OpsRedelivered, av.OpsExpired)
	}
	if av.OpsLost != 0 {
		t.Fatalf("partition leaked into the fail-stop ledger: opsLost=%d", av.OpsLost)
	}
	if tr := rep.Trace; tr == nil || tr.Instants["partition"] != 1 || tr.Instants["heal"] != 1 {
		t.Fatalf("lifecycle instants not traced: %+v", tr)
	}
}

// TestTimedHealNeverDue severs at the last phase's boundary with a
// wall-clock heal ten minutes out: the run ends first, so the heal must
// never land — not during the run and, the part -race checks, not after
// Run has handed the report back. Everything parked behind the pair
// expires at the final drain and the books still settle.
func TestTimedHealNeverDue(t *testing.T) {
	spec := Spec{
		Name:           "heal-never-due",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           0x0DD,
		Keyspace:       1 << 10,
		Dist:           KeyDist{Kind: DistZipfian, Theta: 0.8},
		Combine:        &CombineSpec{Enabled: true},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 300},
			{Name: "severed", Mix: Mix{Insert: 1}, OpsPerTask: 400},
		},
		Faults: Faults{
			Events: []Event{{Phase: 1, Fault: sever(1, 2)}, {Phase: 1, AfterMS: 600_000, Fault: heal(1, 2)}},
			Retry:  &RetrySpec{DeadlineMS: 600_000},
		},
	}
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "partitioned", rep)
	if rep.Availability == nil {
		t.Fatal("partitioned run reports no availability verdict")
	}
	av := *rep.Availability
	if av.Partitions != 1 || av.Heals != 0 || av.TimeToHealNS != 0 {
		t.Fatalf("lifecycle accounting: %d sever(s), %d heal(s), timeToHeal=%d, want 1, 0 and 0",
			av.Partitions, av.Heals, av.TimeToHealNS)
	}
	if av.OpsParked == 0 || av.OpsRedelivered != 0 || av.OpsExpired != av.OpsParked {
		t.Fatalf("a pair severed to the end must expire everything it parked: parked=%d redelivered=%d expired=%d",
			av.OpsParked, av.OpsRedelivered, av.OpsExpired)
	}
	if av.OpsLost != 0 {
		t.Fatalf("partition leaked into the fail-stop ledger: opsLost=%d", av.OpsLost)
	}
	if *rep.Availability != av {
		t.Fatalf("the report changed after Run returned: %+v, was %+v", *rep.Availability, av)
	}
}

// TestQueueStackCrashFailover runs the crash-failover drill against the
// sharded queue and stack: locale 2 dies at the degraded-phase boundary
// and its segment drains onto the survivors through the shared salvage
// path. The availability verdict must show the adoption evidence (one
// chunk per survivor, the dead locale's enqueued payload in bytes), the
// migration books must balance, and the only lost ops are the dead
// locale's own unissued closed-loop budget — the survivors' steals skip
// the unreachable victim instead of burning refusals.
func TestQueueStackCrashFailover(t *testing.T) {
	for _, st := range []Structure{StructureQueue, StructureStack} {
		t.Run(string(st), func(t *testing.T) {
			spec := Spec{
				Name:           "crash-" + string(st),
				Structure:      st,
				Locales:        4,
				TasksPerLocale: 2,
				Backend:        "none",
				Seed:           0xDEAD,
				Keyspace:       1 << 10,
				Dist:           KeyDist{Kind: DistUniform},
				Phases: []Phase{
					{Name: "load", Mix: Mix{Enqueue: 1}, OpsPerTask: 400},
					{Name: "degraded", Mix: Mix{Enqueue: 2, Remove: 1, Steal: 1}, OpsPerTask: 300},
				},
				Faults: Faults{Events: []Event{{Phase: 1, Fault: crash(2, true)}}},
			}
			rep, err := Run(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireInvariants(t, "failover", rep)
			av := rep.Availability
			if av == nil {
				t.Fatal("crashed run reports no availability verdict")
			}
			if !av.Recovered {
				t.Fatalf("failover did not recover: %+v", av)
			}
			// The load phase enqueues locale-locally, so the dead segment
			// holds exactly its own tasks' budget; the drain ships it in one
			// chunk per survivor.
			if want := int64(spec.Locales - 1); av.ShardsAdopted != want {
				t.Fatalf("shards adopted = %d, want %d", av.ShardsAdopted, want)
			}
			if want := int64(spec.TasksPerLocale*spec.Phases[0].OpsPerTask) * 16; av.BytesAdopted != want {
				t.Fatalf("bytes adopted = %d, want %d", av.BytesAdopted, want)
			}
			if want := int64(spec.TasksPerLocale); av.TokensForceRetired != want {
				t.Fatalf("tokens force-retired = %d, want %d", av.TokensForceRetired, want)
			}
			if want := int64(spec.TasksPerLocale * spec.Phases[1].OpsPerTask); av.OpsLost != want {
				t.Fatalf("opsLost = %d, want exactly the dead locale's budget %d", av.OpsLost, want)
			}
			final := rep.Phases[len(rep.Phases)-1].Comm
			if final.MigAdopted != final.MigRetired {
				t.Fatalf("migration books unbalanced: adopted %d retired %d", final.MigAdopted, final.MigRetired)
			}
		})
	}
}

// TestDelayWaitMatchesModelled is the delay account's end-to-end
// acceptance: under the calibrated latency profile the wall time tasks
// spend inside delays equals the nanoseconds the model charged them —
// overshoot is carried, not paid on top of every charge (which reads
// 1.4–1.7 here). What the account does not carry, by design, is a stall
// longer than its clamp — a descheduled vCPU, another test binary on
// the CPU — nor the credit a task still holds when it ends. Both are
// counted (comm.Pacer.Dropped, Credit), so every slice of the run must
// balance exactly: waited − dropped − final credit == modelled +
// perturbation. The last slice runs with locale 3 slowed, so there the
// perturbation is the scale's excess, not zero.
func TestDelayWaitMatchesModelled(t *testing.T) {
	const slices = 40
	spec := Spec{
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 1,
		Backend:        "none",
		Seed:           11,
		Keyspace:       4096,
		Buckets:        1024,
		Dist:           KeyDist{Kind: DistUniform},
		LatencyScale:   1,
		Phases:         []Phase{{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 700}},
	}
	for i := 0; i <= slices; i++ {
		spec.Phases = append(spec.Phases, Phase{Name: "run", Mix: Mix{Insert: 2, Get: 6, Remove: 1}, OpsPerTask: 100})
	}
	spec.Phases[slices+1].Name = "scaled"
	spec.Faults.Events = []Event{{Phase: slices + 1, Fault: Fault{Scales: comm.SlowLocale(4, 3, 2).Scales}}}
	rep, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	for i, ph := range rep.Phases[1:] {
		if ph.ModelledNS == 0 {
			t.Fatal("a scale-1 phase reports no modelled nanoseconds")
		}
		if scaled := i == slices; (ph.PerturbNS > 0) != scaled {
			t.Errorf("slice %d (%s): perturbation %dns", i, ph.Name, ph.PerturbNS)
		}
		charged := ph.ModelledNS + ph.PerturbNS
		if paid := ph.DelayWaitNS - ph.unpacedNS; paid != charged {
			t.Errorf("slice %d: waited %dns − %dns uncharged overshoot = %dns, want exactly the %dns modelled + %dns perturbation",
				i, ph.DelayWaitNS, ph.unpacedNS, paid, ph.ModelledNS, ph.PerturbNS)
		}
		ratios = append(ratios, float64(ph.DelayWaitNS)/float64(charged))
	}
	sort.Float64s(ratios)
	n := len(ratios)
	t.Logf("delay_wait_ns/(modelled_ns + perturb_ns) over %d slices: min %.4f, lower quartile %.4f, median %.4f, max %.4f",
		n, ratios[0], ratios[n/4], ratios[n/2], ratios[n-1])
}
