// Command benchsmoke runs the measurement-plane hot-path benchmarks —
// the exact bodies behind BenchmarkDispatchHotPath,
// BenchmarkHeapLoadParallel, BenchmarkAMOActiveMessage (serial and, on a
// multi-CPU host, parallel) and BenchmarkDelayPaced (one task and four
// side by side), shared via internal/bench/hotpath — with
// testing.Benchmark and writes a machine-readable JSON record: the
// perf-trajectory artifact CI uploads as BENCH_5.json, so regressions
// of the harness itself are visible across PRs.
//
// With -absorption it instead runs the BENCH_6 write-absorption pair —
// WriteStormHotKey with in-flight combining off (baseline) and on
// (current) — and writes the comparative BENCH_6.json shape with a
// per-benchmark speedup map.
//
// With -rebalance it runs the BENCH_7 moving-hot-set pair —
// MovingHotStorm with ownership static (baseline) and dynamically
// rebalanced (current) — each arm measured twice: serial (GOMAXPROCS
// pinned to 1) and, when the host has more than one CPU, parallel
// (GOMAXPROCS at the CPU count), so the record carries both the
// per-op overhead and the contended point.
//
// With -trace it runs the BENCH_8 tracing-overhead pairs — the
// dispatch storm untraced (baseline) against the same storm with a
// recorder attached idle and attached sampling at 1/64 (current) — and
// writes the comparative BENCH_8.json shape.
//
// Usage:
//
//	benchsmoke [-absorption | -rebalance | -trace] [-out FILE] [-benchtime D] [-label S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"gopgas/internal/bench/hotpath"
)

// Result is one benchmark's record.
type Result struct {
	Name      string  `json:"name"`
	Locales   int     `json:"locales"`
	N         int     `json:"n"`
	NSPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	AllocsOp  float64 `json:"allocs_per_op"`
	BytesOp   float64 `json:"bytes_per_op"`
}

// Report is the BENCH_5.json shape: the perf-trajectory point for this
// PR's hot paths. GOMAXPROCS matters when comparing records: RunParallel
// uses that many worker goroutines, so a single-core container measures
// serial per-op overhead, not cross-core cache-line contention.
type Report struct {
	Label      string   `json:"label,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Environment pins the toolchain facts a comparative record needs.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CompareReport is the BENCH_6.json shape: two arms of the same
// workload measured in one process, plus the per-benchmark wall-clock
// speedup of current over baseline.
type CompareReport struct {
	PR          int                `json:"pr"`
	Title       string             `json:"title"`
	Note        string             `json:"note"`
	Environment Environment        `json:"environment"`
	Baseline    Report             `json:"baseline"`
	Current     Report             `json:"current"`
	Speedup     map[string]float64 `json:"speedup"`
}

// namedBench pairs a benchmark body with its report name.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// withProcs pins GOMAXPROCS around a benchmark body: RunParallel uses
// GOMAXPROCS workers, so the same body measures serial per-op overhead
// at 1 and cross-core contention at the CPU count.
func withProcs(n int, fn func(*testing.B)) func(*testing.B) {
	return func(b *testing.B) {
		old := runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
		fn(b)
	}
}

// procPoints expands one benchmark body into its serial point and —
// when the host has more than one CPU — its parallel point, named
// uniquely so the speedup map keys never collide.
func procPoints(name string, fn func(*testing.B)) []namedBench {
	out := []namedBench{{name + "/serial", withProcs(1, fn)}}
	if n := runtime.NumCPU(); n > 1 {
		out = append(out, namedBench{name + "/parallel", withProcs(n, fn)})
	}
	return out
}

// run measures each benchmark and returns its records, echoing a
// progress line per benchmark to stderr.
func run(tag string, benches []namedBench) []Result {
	var out []Result
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		nsOp := float64(r.T.Nanoseconds()) / float64(r.N)
		res := Result{
			Name:      bench.name,
			Locales:   hotpath.Locales,
			N:         r.N,
			NSPerOp:   nsOp,
			OpsPerSec: 1e9 / nsOp,
			AllocsOp:  float64(r.AllocsPerOp()),
			BytesOp:   float64(r.AllocedBytesPerOp()),
		}
		out = append(out, res)
		fmt.Fprintf(os.Stderr, "%-12s %-18s N=%-9d %10.1f ns/op %14.0f ops/s %6.1f allocs/op\n",
			tag, res.Name, res.N, res.NSPerOp, res.OpsPerSec, res.AllocsOp)
	}
	return out
}

func main() {
	var (
		out        = flag.String("out", "", "write JSON here (default stdout)")
		benchtime  = flag.Duration("benchtime", time.Second, "per-benchmark target duration")
		label      = flag.String("label", "", "free-form label recorded in the report")
		absorption = flag.Bool("absorption", false, "run the BENCH_6 write-absorption pair and emit the comparative shape")
		rebalanceF = flag.Bool("rebalance", false, "run the BENCH_7 moving-hot-set pair and emit the comparative shape")
		traceF     = flag.Bool("trace", false, "run the BENCH_8 tracing-overhead pairs and emit the comparative shape")
	)
	flag.Parse()
	if *benchtime <= 0 {
		fmt.Fprintf(os.Stderr, "benchsmoke: -benchtime must be > 0, got %v\n", *benchtime)
		os.Exit(2)
	}
	modes := 0
	for _, on := range []bool{*absorption, *rebalanceF, *traceF} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "benchsmoke: -absorption, -rebalance and -trace are mutually exclusive")
		os.Exit(2)
	}
	// testing.Benchmark honours the package-level benchtime flag that
	// testing.Init registers.
	testing.Init()
	if err := flag.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
		os.Exit(1)
	}

	env := Environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var record any
	if *traceF {
		baseline := Report{
			Label: "untraced", GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("untraced", []namedBench{
				{"DispatchHotPath/idle", hotpath.DispatchHotPath},
				{"DispatchHotPath/sampled", hotpath.DispatchHotPath},
			}),
		}
		current := Report{
			Label: "traced", GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("traced", []namedBench{
				{"DispatchHotPath/idle", hotpath.DispatchHotPathTracerIdle},
				{"DispatchHotPath/sampled", hotpath.DispatchHotPathTraced},
			}),
		}
		if *label != "" {
			current.Label = *label
		}
		speedup := make(map[string]float64, len(baseline.Results))
		for i, b := range baseline.Results {
			speedup[b.Name] = math.Round(100*b.NSPerOp/current.Results[i].NSPerOp) / 100
		}
		record = CompareReport{
			PR:    8,
			Title: "Event-tracing plane + live HTTP telemetry",
			Note: "Synchronous remote on-statement storm at 8 locales, zero latency profile — the BENCH_5 dispatch " +
				"body — measured untraced (baseline, no recorder attached: one nil check) against two traced arms: " +
				"idle (a recorder attached with recording disabled, paying one inlined atomic flag load — the cost a " +
				"soak server carries while nobody is tracing, expected at parity) and sampled (recording enabled at " +
				"the 1-in-64 default, where a sampled-out dispatch pays one atomic tick and a sampled-in one writes " +
				"two fixed-size events into the per-locale lock-free ring). The rings are never drained mid-run, so " +
				"the sampled arm's steady state includes the wrap-around drop path — the recorder drops and counts " +
				"rather than block, and every arm stays at 0 allocs/op. Speedup below 1 is the overhead ratio. " +
				"Measured with cmd/benchsmoke -trace (testing.Benchmark over internal/bench/hotpath, the same bodies " +
				"as BenchmarkDispatchHotPath{,TracerIdle,Traced}). CI regenerates this record fresh on every run and " +
				"uploads it as the BENCH_8.json artifact.",
			Environment: env,
			Baseline:    baseline,
			Current:     current,
			Speedup:     speedup,
		}
	} else if *rebalanceF {
		baseline := Report{
			Label: "static", GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("static", procPoints("MovingHotStorm", hotpath.MovingHotStormStatic)),
		}
		current := Report{
			Label: "rebalanced", GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("rebalanced", procPoints("MovingHotStorm", hotpath.MovingHotStormRebalanced)),
		}
		if *label != "" {
			current.Label = *label
		}
		speedup := make(map[string]float64, len(baseline.Results))
		for i, b := range baseline.Results {
			speedup[b.Name] = math.Round(100*b.NSPerOp/current.Results[i].NSPerOp) / 100
		}
		record = CompareReport{
			PR:    7,
			Title: "Dynamic hot-shard rebalancing with epoch-coherent ownership migration",
			Note: "Moving-hot-set upsert storm at 8 locales, zero latency profile, plain aggregated path (no " +
				"in-flight absorption — that is BENCH_6's subject): each writer hammers one hot key homed on locale 0 " +
				"through the owner-table-routed view, and the hot set jumps to fresh buckets every 2048 writes. The " +
				"baseline arm leaves ownership static, so every window ships to locale 0 and replays behind its " +
				"combiner; the current arm steps a rebalance.Controller every 512 writes, which migrates each window's " +
				"hot buckets to their writers through the epoch-coherent handoff, turning the steady-state write " +
				"local. Each arm is measured serial (GOMAXPROCS=1) and, when the host allows, parallel " +
				"(GOMAXPROCS=NumCPU). The serial point is an overhead check and lands near parity by construction: " +
				"under zero injected latency the local apply (epoch pin + combiner + list write) costs about as much " +
				"as the enqueue+ship+replay it replaces, so rebalancing is roughly free serially even while it cuts " +
				"the shipped-op count ~20x. The wins rebalancing exists for are the bounded busiest-inbound column " +
				"(ablation A10, loadgen maxInbound) and the parallel point, where the static arm serializes every " +
				"writer behind locale 0's combiner. Measured with cmd/benchsmoke -rebalance (testing.Benchmark over " +
				"internal/bench/hotpath, the same bodies as BenchmarkMovingHotStorm{Static,Rebalanced}). CI " +
				"regenerates this record fresh on every run and uploads it as the BENCH_7.json artifact.",
			Environment: env,
			Baseline:    baseline,
			Current:     current,
			Speedup:     speedup,
		}
	} else if *absorption {
		baseline := Report{
			Label: "uncombined", GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("uncombined", []namedBench{{"WriteStormHotKey", hotpath.WriteStormHotKeyUncombined}}),
		}
		current := Report{
			Label: "combined", GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("combined", []namedBench{{"WriteStormHotKey", hotpath.WriteStormHotKeyCombined}}),
		}
		if *label != "" {
			current.Label = *label
		}
		speedup := make(map[string]float64, len(baseline.Results))
		for i, b := range baseline.Results {
			speedup[b.Name] = math.Round(100*b.NSPerOp/current.Results[i].NSPerOp) / 100
		}
		record = CompareReport{
			PR:    6,
			Title: "Write absorption: mergeable aggregated ops + owner-side flat combining",
			Note: "Aggregated hot-key upsert storm at 8 locales, zero latency profile, 64-write flush windows over " +
				"8 hot keys homed on locale 0. The baseline arm ships every enqueued write; the current arm absorbs " +
				"repeat writes to a key in flight, so each window ships at most the hot-key count. Both arms drain " +
				"through the owner's flat combiner. Measured with cmd/benchsmoke -absorption (testing.Benchmark over " +
				"internal/bench/hotpath, the same bodies as BenchmarkWriteStormHotKey{Uncombined,Combined}). CI " +
				"regenerates this record fresh on every run and uploads it as the BENCH_6.json artifact.",
			Environment: env,
			Baseline:    baseline,
			Current:     current,
			Speedup:     speedup,
		}
	} else {
		benches := []namedBench{
			{"DispatchHotPath", hotpath.DispatchHotPath},
			{"HeapLoadParallel", hotpath.HeapLoadParallel},
		}
		benches = append(benches, procPoints("AMOActiveMessage", hotpath.AMOActiveMessage)...)
		benches = append(benches,
			namedBench{"DelayPaced/serial", withProcs(1, hotpath.DelayPaced)},
			namedBench{"DelayPaced/parallel4", hotpath.DelayPacedParallel})
		record = Report{
			Label: *label, GoVersion: env.GoVersion, GOMAXPROCS: env.GOMAXPROCS,
			Results: run("hotpath", benches),
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(record); err != nil {
		fmt.Fprintf(os.Stderr, "benchsmoke: %v\n", err)
		os.Exit(1)
	}
}
