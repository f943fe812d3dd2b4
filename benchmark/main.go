// Command benchmark is the repository's one end-to-end and per-layer
// benchmark. See README.md in this directory for the workloads, the
// metrics and how to read them.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh                       every workload, both passes, one JSON document
//	bash benchmark/run.sh -workload W           one workload, both passes
//	bash benchmark/run.sh -workload W -trace 0  end-to-end pass; last line is the result object
//	bash benchmark/run.sh -workload W -trace 1  per-layer pass (untraced + traced run, ladder)
//	bash benchmark/run.sh -compare A.json B.json
//
// -seed N (default 1) seeds every generated input, -seconds S (default
// 20) is how long the end-to-end pass measures, -out FILE also writes
// the JSON document to FILE.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// traceDir is where the traced run leaves its span files; the root
// .gitignore names it.
const traceDir = "benchmark/out"

// The whole invocation must end within 180 s: a measuring child (≈7 s
// for a scenario, ≈25 s for the ladder) is killed after childTimeout,
// and the end-to-end pass starts no repetition after passBudget.
const (
	childTimeout = 60 * time.Second
	passBudget   = 100 * time.Second
)

// minReps is the fewest scenario repetitions the end-to-end pass
// reports on, however slow the host.
const minReps = 3

// maxCrashes is how many measuring children of one pass may die and be
// replaced before the pass itself fails. A child would die if the
// library's poisoned heap caught a use after free (README.md, "What the
// first runs found"); the scenario's ops then count as failed.
const maxCrashes = 5

// harness measures one (mode, workload, seed) at a time through run.
// The command's harness spawns a child process per call, so heap and
// GC state never leak from one measurement into the next; the package
// test's calls the measuring functions in-process at a small scale.
type harness struct {
	// scale multiplies every op budget and call count; 1 is the
	// measured configuration.
	scale float64
	run   func(mode string, w benchWorkload, seed uint64) (childResult, error)
	// ladder caches the ladder's result: its rungs do not depend on
	// the workload, so one invocation measures them once.
	ladder map[string]rungStats
}

// metricValue is one reported metric.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	// Bound is set on end-to-end metrics only.
	Bound float64 `json:"bound,omitempty"`
	// Reps holds the per-repetition values behind an end-to-end midmean
	// (-compare derives the spread from them); Min and Max the extremes
	// of a ladder rung's repeats.
	Reps []float64 `json:"reps,omitempty"`
	Min  float64   `json:"min,omitempty"`
	Max  float64   `json:"max,omitempty"`
}

// passResult is the outcome of one pass (end-to-end or per-layer) over
// one workload.
type passResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Crashed   int                    `json:"crashed,omitempty"` // children that died and were replaced
	Broken    []string               `json:"broken,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment records what a result must be compared under.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// workloadDoc is one workload's entry in the full document.
type workloadDoc struct {
	Why      string      `json:"why"`
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// document is what one full invocation prints.
type document struct {
	Env       environment            `json:"env"`
	Workloads map[string]workloadDoc `json:"workloads"`
}

// benchProcs is the GOMAXPROCS every measurement runs at: locales are
// simulated nodes, not load-generator threads, so OS threads running
// Go code never exceed the host's CPUs.
func benchProcs() int { return min(runtime.NumCPU(), locales) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "seconds the end-to-end pass measures per workload")
	traceFlag := fs.Int("trace", -1, "0: end-to-end pass only, 1: per-layer pass only (both print the result object as the last line)")
	out := fs.String("out", "", "also write the JSON document to this file")
	compare := fs.Bool("compare", false, "compare two result documents: -compare A.json B.json")
	child := fs.String("child", "", "internal: measure one mode in this process (e2e, traced or ladder)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || fs.NArg() != 0 || *traceFlag < -1 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs())

	selected := workloads()
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []benchWorkload{w}
	}
	if *child != "" {
		return runChild(*child, selected[0], *seed, stdout, stderr)
	}

	doc := document{
		Env: environment{
			GoVersion: runtime.Version(), GOMAXPROCS: benchProcs(), NProc: runtime.NumCPU(),
			Commit: commit(), Seed: *seed, Seconds: *seconds,
		},
		Workloads: map[string]workloadDoc{},
	}
	h := &harness{scale: 1, run: spawnChild}
	ok := true
	var last *passResult
	for _, w := range selected {
		entry := workloadDoc{Why: w.why}
		if *traceFlag != 1 {
			fmt.Fprintf(stderr, "benchmark: %s end-to-end\n", w.name)
			entry.EndToEnd = h.measureEndToEnd(w, *seed, *seconds)
			last = entry.EndToEnd
			ok = ok && report(stderr, w.name, last)
		}
		if *traceFlag != 0 {
			fmt.Fprintf(stderr, "benchmark: %s per-layer\n", w.name)
			entry.PerLayer = h.measureLayers(w, *seed)
			last = entry.PerLayer
			ok = ok && report(stderr, w.name, last)
		}
		doc.Workloads[w.name] = entry
	}

	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *name != "" && *traceFlag >= 0 {
		// One workload, one pass: the last line is the result object.
		if err := json.NewEncoder(stdout).Encode(resultLine(last)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	} else {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// report prints the identities a pass broke and says whether it passed.
func report(stderr io.Writer, workload string, p *passResult) bool {
	for _, b := range p.Broken {
		fmt.Fprintf(stderr, "benchmark: %s: CHECK FAILED: %s\n", workload, b)
	}
	return p.Correct
}

// resultLine is the single-pass result object: correct, attempted,
// failed, and each metric's value and unit.
func resultLine(p *passResult) map[string]any {
	metrics := make(map[string]any, len(p.Metrics))
	for name, mv := range p.Metrics {
		metrics[name] = map[string]any{"value": mv.Value, "unit": mv.Unit}
	}
	return map[string]any{"correct": p.Correct, "attempted": p.Attempted, "failed": p.Failed, "metrics": metrics}
}

// finish validates a pass against its metric table and settles its
// verdict: any broken identity fails every op the pass attempted. A
// replaced child leaves the pass correct, with its ops in Failed.
func finish(p *passResult, defs []metricDef, values map[string]float64, extra map[string]metricValue) *passResult {
	if err := checkComplete(defs, values); err != nil {
		p.Broken = append(p.Broken, err.Error())
	}
	p.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		mv := extra[d.Name]
		mv.Value, mv.Unit, mv.Better, mv.Bound = values[d.Name], d.Unit, d.Better, d.Bound
		p.Metrics[d.Name] = mv
	}
	p.Correct = len(p.Broken) == 0
	if !p.Correct {
		p.Failed = p.Attempted
	}
	return p
}

// absorb folds one child's verdict into the pass and checks that the
// engine ran the generated input: the child's per-kind op counts must
// equal the offline replay of the same streams.
func (p *passResult) absorb(mode string, r childResult, want map[string]int64) {
	p.Attempted += r.Attempted
	p.Failed += r.Failed
	for _, b := range r.Broken {
		p.Broken = append(p.Broken, mode+": "+b)
	}
	if !equalCounts(r.OpsByKind, want) {
		p.Broken = append(p.Broken, fmt.Sprintf("%s: ops by kind %v != replay of the generated input %v", mode, r.OpsByKind, want))
	}
}

// measure runs one child of pass p and absorbs its result. A child
// that died costs the pass that scenario's ops as failed and is
// replaced, up to maxCrashes times; ok is false when the pass cannot
// go on.
func (h *harness) measure(p *passResult, mode string, w benchWorkload, seed uint64, want map[string]int64) (childResult, bool) {
	for {
		r, err := h.run(mode, w, seed)
		if err == nil {
			p.absorb(mode, r, want)
			return r, true
		}
		ops := measuredOps(scaled(w.spec, 0, h.scale))
		p.Attempted += ops
		p.Failed += ops
		var died *exec.ExitError
		if !errors.As(err, &died) {
			p.Broken = append(p.Broken, err.Error())
			return r, false
		}
		if p.Crashed++; p.Crashed > maxCrashes {
			p.Broken = append(p.Broken, fmt.Sprintf("%d children died, the last: %v", p.Crashed, err))
			return r, false
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v; its %d ops count as failed, measuring again\n", w.name, err, ops)
	}
}

func equalCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// measureEndToEnd repeats the whole scenario — boot, load, warm, run —
// until the run phases add up to the requested seconds (and at least
// minReps times), and reports the midmean of each metric, so set-up
// time is taken over several set-ups too.
func (h *harness) measureEndToEnd(w benchWorkload, seed uint64, seconds float64) *passResult {
	p := &passResult{}
	want := expectedOpsByKind(scaled(w.spec, seed, h.scale))
	reps := map[string][]float64{}
	deadline := time.Now().Add(passBudget)
	for measured, n := 0.0, 0; (measured < seconds || n < minReps) && time.Now().Before(deadline); n++ {
		r, ok := h.measure(p, "e2e", w, seed, want)
		if !ok {
			break
		}
		for _, d := range endToEnd {
			reps[d.Name] = append(reps[d.Name], r.Metrics[d.Name])
		}
		measured += r.RunSeconds
	}
	values := map[string]float64{}
	extra := map[string]metricValue{}
	for name, vs := range reps {
		values[name] = midmean(vs)
		extra[name] = metricValue{Reps: vs}
	}
	return finish(p, endToEnd, values, extra)
}

// measureLayers makes the per-layer pass: one untraced scenario for
// the counter-based metrics, the same scenario replayed through the
// traced loop, and the ladder.
func (h *harness) measureLayers(w benchWorkload, seed uint64) *passResult {
	p := &passResult{}
	want := expectedOpsByKind(scaled(w.spec, seed, h.scale))
	values := map[string]float64{}
	extra := map[string]metricValue{}

	// One untraced and one traced scenario, then the ladder.
	children := map[string]childResult{}
	for _, mode := range []string{"e2e", "traced"} {
		r, ok := h.measure(p, mode, w, seed, want)
		if !ok {
			return finish(p, perLayer, values, extra)
		}
		children[mode] = r
	}
	plain, traced := children["e2e"], children["traced"]
	if h.ladder == nil {
		r, err := h.run("ladder", w, seed)
		if err != nil {
			p.Broken = append(p.Broken, err.Error())
			return finish(p, perLayer, values, extra)
		}
		h.ladder = r.Ladder
	}

	for _, d := range perLayer {
		if v, ok := plain.Metrics[d.Name]; ok {
			values[d.Name] = v
		}
		if v, ok := traced.Metrics[d.Name]; ok {
			values[d.Name] = v
		}
		if st, ok := h.ladder[d.Name]; ok {
			values[d.Name] = st.Median
			extra[d.Name] = metricValue{Min: st.Min, Max: st.Max}
		}
	}
	values["trace.overhead_pct"] = 100 * ratio(plain.Metrics["ops_per_s"]-traced.Metrics["ops_per_s"], plain.Metrics["ops_per_s"])
	if v := values["gas.uaf_total"]; v != 0 {
		p.Broken = append(p.Broken, fmt.Sprintf("gas.uaf_total is %v, not 0", v))
	}
	if v := values["epoch.reclaimed_share"]; plain.Metrics["epoch.deferred_per_op"] > 0 && v != 1 {
		p.Broken = append(p.Broken, fmt.Sprintf("epoch.reclaimed_share is %v, not 1", v))
	}
	return finish(p, perLayer, values, extra)
}

// spawnChild re-executes this binary to measure one mode in a fresh
// process and decodes the result it prints.
func spawnChild(mode string, w benchWorkload, seed uint64) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, fmt.Errorf("child %s: %w", mode, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name, "-seed", fmt.Sprint(seed))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return res, fmt.Errorf("child %s %s: no result within %v", mode, w.name, childTimeout)
		}
		return res, fmt.Errorf("child %s %s: %w", mode, w.name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("child %s %s: decoding result: %w", mode, w.name, err)
	}
	return res, nil
}

// inProcess returns a harness that measures in the calling process
// with every budget multiplied by scale, leaving span files in outDir.
func inProcess(scale float64, outDir string) *harness {
	return &harness{scale: scale, run: func(mode string, w benchWorkload, seed uint64) (childResult, error) {
		switch mode {
		case "e2e":
			return runE2E(w, seed, scale), nil
		case "traced":
			return runTraced(w, seed, scale, outDir), nil
		case "ladder":
			return childResult{Ladder: runLadder(benchProcs(), scale)}, nil
		}
		return childResult{}, fmt.Errorf("unknown child mode %q", mode)
	}}
}

// runChild is the child side of spawnChild.
func runChild(mode string, w benchWorkload, seed uint64, stdout, stderr io.Writer) int {
	res, err := inProcess(1, traceDir).run(mode, w, seed)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return 0
}

// commit names the measured source: the git HEAD when the checkout is
// a repository, "unknown" otherwise.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
