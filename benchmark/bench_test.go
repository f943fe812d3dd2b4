package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"gopgas/internal/workload"
)

// benchmarkJSON mirrors the BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkPass asserts that a pass emitted exactly the declared metrics,
// each once, finite, with the declared unit and direction.
func checkPass(t *testing.T, label string, p *passResult, want map[string][2]string) {
	t.Helper()
	if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d broken=%v", label, p.Correct, p.Attempted, p.Failed, p.Broken)
	}
	if len(p.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", label, len(p.Metrics), len(want))
	}
	for name, decl := range want {
		mv, ok := p.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s declared in BENCHMARK.json but not emitted", label, name)
			continue
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s: metric %s is not finite: %v", label, name, mv.Value)
		}
		if mv.Unit != decl[0] || mv.Better != decl[1] {
			t.Errorf("%s: metric %s is (%q, %q), BENCHMARK.json says (%q, %q)", label, name, mv.Unit, mv.Better, decl[0], decl[1])
		}
	}
}

// TestBenchmarkMatchesContract runs every workload at 1/1000 scale and
// the ladder at its minimum call count, and holds the output against
// BENCHMARK.json and the metric table.
func TestBenchmarkMatchesContract(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}

	e2eWant := map[string][2]string{}
	for i, m := range decl.EndToEnd {
		e2eWant[m.Name] = [2]string{m.Unit, m.Better}
		if i >= len(endToEnd) || endToEnd[i].Name != m.Name || endToEnd[i].Bound != m.Bound {
			t.Errorf("end_to_end[%d] %s bound %v does not echo the metric table", i, m.Name, m.Bound)
		}
	}
	layerWant := map[string][2]string{}
	for _, m := range decl.PerLayer {
		layerWant[m.Name] = [2]string{m.Unit, m.Better}
	}
	if len(e2eWant) != len(decl.EndToEnd) || len(layerWant) != len(decl.PerLayer) {
		t.Error("BENCHMARK.json declares a metric name twice")
	}
	for name := range e2eWant {
		if _, dup := layerWant[name]; dup || !nameRE.MatchString(name) {
			t.Errorf("bad or reused metric name %q", name)
		}
	}
	for name := range layerWant {
		if !nameRE.MatchString(name) {
			t.Errorf("bad metric name %q", name)
		}
	}
	if _, ok := e2eWant["setup_s"]; !ok {
		t.Error("end_to_end lacks setup_s")
	}

	all := workloads()
	if len(all) != len(decl.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(all), len(decl.Workloads))
	}
	h := inProcess(0.001, t.TempDir())
	doc := document{Workloads: map[string]workloadDoc{}}
	for i, w := range all {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark (or the why differs)", i, d.Name, w.name)
		}
		entry := workloadDoc{EndToEnd: h.measureEndToEnd(w, 1, 0.001), PerLayer: h.measureLayers(w, 1)}
		checkPass(t, w.name+" end-to-end", entry.EndToEnd, e2eWant)
		checkPass(t, w.name+" per-layer", entry.PerLayer, layerWant)
		if len(entry.EndToEnd.Metrics["ops_per_s"].Reps) < minReps {
			t.Errorf("%s: fewer than %d repetitions behind the end-to-end pass", w.name, minReps)
		}
		doc.Workloads[w.name] = entry
	}
	if code := compareDocuments(doc, doc, io.Discard); code != 0 {
		t.Errorf("-compare of a document against itself returned %d", code)
	}
}

// TestCompareVerdicts checks every verdict and exit code on hand-made
// documents.
func TestCompareVerdicts(t *testing.T) {
	mk := func(opsPerS float64, reps []float64) document {
		p := &passResult{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			p.Metrics[d.Name] = metricValue{Value: 1}
		}
		p.Metrics["ops_per_s"] = metricValue{Value: opsPerS, Reps: reps}
		return document{Workloads: map[string]workloadDoc{"queue_churn": {EndToEnd: p}}}
	}
	bound := endToEnd[0].Bound // ops_per_s
	base := mk(100, []float64{99, 100, 100, 101, 100})

	incorrect := mk(100, nil)
	incorrect.Workloads["queue_churn"].EndToEnd.Correct = false
	lostOps := mk(100, nil)
	lostOps.Workloads["queue_churn"].EndToEnd.Failed = 1
	noMetric := mk(100, nil)
	delete(noMetric.Workloads["queue_churn"].EndToEnd.Metrics, "mem_peak_mb")

	for _, tc := range []struct {
		name string
		b    document
		want int
	}{
		{"a drop of half the bound", mk(100*(1-bound/2), nil), 0},
		{"a drop of twice the bound", mk(100*(1-2*bound), nil), 1},
		{"a wide spread (UNRESOLVED, not a regression)", mk(100, []float64{40, 70, 100, 130, 160}), 0},
		{"a pass that failed an output check", incorrect, 1},
		{"a pass that lost ops", lostOps, 1},
		{"a workload missing from B", document{Workloads: map[string]workloadDoc{}}, 2},
		{"a metric missing from B", noMetric, 2},
	} {
		if code := compareDocuments(base, tc.b, io.Discard); code != tc.want {
			t.Errorf("%s returned %d, want %d", tc.name, code, tc.want)
		}
	}
	if code := compareDocuments(document{}, document{}, io.Discard); code != 2 {
		t.Errorf("two empty documents returned %d, want 2", code)
	}
}

// TestHashmapReclaimsOnlyWhenQuiet guards the shape that keeps the
// hashmap workloads clear of the library's epoch race: a hashmap phase
// that attempts reclaims issues nothing but gets, which never defer.
func TestHashmapReclaimsOnlyWhenQuiet(t *testing.T) {
	for _, w := range workloads() {
		if w.spec.Structure != workload.StructureHashmap {
			continue
		}
		reclaims := 0
		for i, ph := range w.spec.Phases {
			if ph.ReclaimEvery == 0 {
				continue
			}
			reclaims++
			if ph.Mix != (workload.Mix{Get: 1}) {
				t.Errorf("%s: phase %d (%s) reclaims under mix %+v", w.name, i, ph.Name, ph.Mix)
			}
		}
		if reclaims != runSlices {
			t.Errorf("%s: %d reclaiming phases, want %d", w.name, reclaims, runSlices)
		}
	}
}

// TestCrashedChildIsReplaced checks the accounting of measuring
// children that die: up to maxCrashes are replaced and their ops
// reported as failed; one more fails the pass.
func TestCrashedChildIsReplaced(t *testing.T) {
	w := workloads()[0]
	ops := measuredOps(scaled(w.spec, 1, 0.001))
	for _, tc := range []struct {
		crashes int
		correct bool
	}{{1, true}, {maxCrashes, true}, {maxCrashes + 1, false}} {
		h := inProcess(0.001, "")
		run, left := h.run, tc.crashes
		h.run = func(mode string, w benchWorkload, seed uint64) (childResult, error) {
			if left > 0 {
				left--
				return childResult{}, &exec.ExitError{}
			}
			return run(mode, w, seed)
		}
		p := h.measureEndToEnd(w, 1, 0.001)
		if p.Correct != tc.correct || p.Crashed != tc.crashes {
			t.Errorf("%d crashes: correct=%v crashed=%d broken=%v", tc.crashes, p.Correct, p.Crashed, p.Broken)
		}
		if tc.correct && (p.Failed != int64(tc.crashes)*ops || p.Attempted != p.Failed+minReps*ops) {
			t.Errorf("%d crashes: attempted=%d failed=%d, one scenario is %d ops", tc.crashes, p.Attempted, p.Failed, ops)
		}
	}
}

func TestSpreadAndMidmean(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := midmean([]float64{100, 3, 1, 2, 4}); got != 3 {
		t.Errorf("midmean = %v, want 3", got)
	}
	if got := midmean([]float64{2, 4}); got != 3 {
		t.Errorf("midmean of two = %v, want 3", got)
	}
}
