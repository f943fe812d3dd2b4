package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
	"gopgas/internal/telemetry"
)

// The fault provider's crash action is comm-plane only and
// irreversible: the locale stops answering immediately, and clearing
// or replacing latency faults afterward must not resurrect it — its
// shards may already have been adopted elsewhere.
func TestTelemetryFaultCrash(t *testing.T) {
	sys := pgas.NewSystem(pgas.Config{Locales: 4, Backend: comm.BackendNone})
	defer sys.Shutdown()
	tel := NewTelemetry()
	tel.attach("crash-test", sys, nil)
	defer tel.detach()
	fault := tel.Options().Fault

	if err := fault(telemetry.FaultRequest{Crash: true, CrashLocale: 0}); err == nil {
		t.Fatal("crash of locale 0 accepted")
	}
	if err := fault(telemetry.FaultRequest{Crash: true, CrashLocale: 2}); err != nil {
		t.Fatalf("crash of locale 2 rejected: %v", err)
	}
	if sys.Alive(2) {
		t.Fatal("locale 2 still alive after crash")
	}

	// Latency faults layer on and clear off without touching liveness.
	if err := fault(telemetry.FaultRequest{Scales: []float64{1, 8}}); err != nil {
		t.Fatalf("slow-locale fault rejected: %v", err)
	}
	if err := fault(telemetry.FaultRequest{Clear: true}); err != nil {
		t.Fatalf("clear rejected: %v", err)
	}
	if sys.Alive(2) {
		t.Fatal("clearing latency faults resurrected the crashed locale")
	}
	if !sys.Alive(1) || !sys.Alive(3) {
		t.Fatal("crash leaked onto other locales")
	}

	// An empty request is rejected with a message naming the actions.
	if err := fault(telemetry.FaultRequest{}); err == nil || !strings.Contains(err.Error(), "crash") {
		t.Fatalf("empty fault request: %v", err)
	}
}

// The handler's latency forms replace only the latency half of the
// plan, under the same lock as Sever and Heal: a sever/heal loop racing
// a latency-swap loop never sees its sever undone by a swap that read
// the plan before it, so every heal finds its pair severed and the pair
// ends reachable.
func TestLatencySwapKeepsFaultPlan(t *testing.T) {
	sys := pgas.NewSystem(pgas.Config{Locales: 4, Backend: comm.BackendNone})
	defer sys.Shutdown()
	tel := NewTelemetry()
	tel.attach("swap-race", sys, nil)
	defer tel.detach()
	fault := tel.Options().Fault

	const rounds = 20_000
	done := make(chan struct{})
	swapErrs := make(chan error, 1)
	go func() {
		defer close(swapErrs)
		swaps := []telemetry.FaultRequest{
			{Scales: []float64{1, 2, 1, 1}},
			{Scales: []float64{1, 1, 1, 4}},
			{Clear: true},
		}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := fault(swaps[i%len(swaps)]); err != nil {
				swapErrs <- err
				return
			}
		}
	}()
	failed := 0
	for i := 0; i < rounds; i++ {
		if err := fault(telemetry.FaultRequest{Sever: true, SeverA: 1, SeverB: 2}); err != nil {
			t.Fatalf("sever %d: %v", i, err)
		}
		if err := fault(telemetry.FaultRequest{Heal: true, HealA: 1, HealB: 2}); err != nil {
			failed++
		}
	}
	close(done)
	if err := <-swapErrs; err != nil {
		t.Fatalf("latency swap: %v", err)
	}
	if failed != 0 {
		t.Errorf("%d of %d heals found their pair already healed by a latency swap", failed, rounds)
	}
	if !sys.Reachable(1, 2) {
		t.Error("pair (1, 2) still severed after the last heal")
	}
}

// TestRunLiveServesTelemetry drives the full live plane: a scenario
// runs under RunLive with the HTTP server attached, and the test acts
// as the operator — polling status until the run is live, reading the
// matrix and histogram mid-run, injecting a fault over POST, and
// draining a trace window. The run must still finish with balanced
// span books (the books count decisions, so windowed HTTP drains can't
// unbalance them) and the server must report unattached after it.
func TestRunLiveServesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (wall-clock phase)")
	}
	tel := NewTelemetry()
	srv, err := telemetry.Start("127.0.0.1:0", tel.Options())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, []byte) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	spec := Spec{
		Name:           "live",
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           23,
		Keyspace:       256,
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.1, HotProb: 0.9},
		Trace:          &TraceSpec{Enabled: true, SampleRate: 16},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 200},
			{Name: "run", Mix: Mix{Insert: 2, Get: 7, Remove: 1}, Seconds: 2},
		},
	}
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := RunLive(spec, nil, tel)
		done <- result{rep, err}
	}()

	// Poll until the run is attached. Attach precedes every phase, so
	// breaking on Running (not on visible op progress, which lags a
	// worker's first chunk flush) leaves the whole multi-second run as
	// budget for the mid-run probes below — waiting for ops here is
	// what once let a loaded host expire the run mid-probe.
	var status struct {
		Scenario string `json:"scenario"`
		Running  bool   `json:"running"`
		Ops      int64  `json:"ops"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("run never reported live over /api/status")
		}
		code, body := get("/api/status")
		if code != http.StatusOK {
			t.Fatalf("/api/status: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &status); err != nil {
			t.Fatalf("/api/status not JSON: %v", err)
		}
		if status.Running {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.Scenario != "live" {
		t.Fatalf("status names scenario %q", status.Scenario)
	}

	code, body := get("/api/matrix")
	if code != http.StatusOK {
		t.Fatalf("/api/matrix: %d %s", code, body)
	}
	var matrix struct {
		Matrix [][]int64 `json:"matrix"`
	}
	if err := json.Unmarshal(body, &matrix); err != nil || len(matrix.Matrix) != spec.Locales {
		t.Fatalf("/api/matrix payload (err=%v): %s", err, body)
	}

	code, body = get("/api/hist")
	if code != http.StatusOK {
		t.Fatalf("/api/hist: %d %s", code, body)
	}
	var hist struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		t.Fatalf("/api/hist not JSON: %v", err)
	}

	// Inject a fault mid-run; the run must absorb it and keep going.
	resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", srv.Addr()),
		"application/json", bytes.NewBufferString(`{"scales":[1,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/fault mid-run: %d", resp.StatusCode)
	}

	// Crash a locale over HTTP mid-run: its tasks abandon fail-stop and
	// the run must still finish cleanly — refusals drain to the ledger
	// instead of stalling quiescence. Locale 0 is rejected (it hosts the
	// global epoch word).
	resp, err = http.Post(fmt.Sprintf("http://%s/api/fault", srv.Addr()),
		"application/json", bytes.NewBufferString(`{"crash":true,"crash_locale":1}`))
	if err != nil {
		t.Fatal(err)
	}
	crashBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/fault crash: %d %s", resp.StatusCode, crashBody)
	}
	resp, err = http.Post(fmt.Sprintf("http://%s/api/fault", srv.Addr()),
		"application/json", bytes.NewBufferString(`{"crash":true,"crash_locale":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("crash of locale 0 returned %d, want 422", resp.StatusCode)
	}

	// Drain a live trace window: events stream out as trace-event JSON.
	code, body = get("/api/trace?window=64")
	if code != http.StatusOK {
		t.Fatalf("/api/trace: %d %s", code, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/api/trace not trace-event JSON: %v", err)
	}

	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.rep.Trace == nil || !res.rep.Trace.Balanced {
		t.Fatalf("live-drained run lost book balance: %+v", res.rep.Trace)
	}
	if !res.rep.Heap.Safe() || !res.rep.Epoch.Balanced() {
		t.Fatalf("live run failed safety verdicts: heap %+v epoch %+v", res.rep.Heap, res.rep.Epoch)
	}

	// Detached: status must flip to not-running with the server still
	// up, and the live histogram must show the workers streamed samples
	// (ops survives detach — only the System pointer is cleared).
	code, body = get("/api/status")
	if code != http.StatusOK {
		t.Fatalf("/api/status after run: %d", code)
	}
	if err := json.Unmarshal(body, &status); err != nil || status.Running {
		t.Fatalf("server still reports a running scenario after detach: %s", body)
	}
	if status.Ops == 0 {
		t.Fatal("no live latency samples ever reached the telemetry bridge")
	}
}

// TestRunLiveOpsExact: a closed loop times one op in segmentOps and
// records it with its segment's weight, so the live bridge's op count
// and histogram still count every op. A 5-op phase, in which a task
// whose offset is 5 or more never times an op, then a timed phase with
// reclaim attempts: /api/status ops and the live histogram's count must
// each equal the phases' ops, and each phase's latency count its ops.
func TestRunLiveOpsExact(t *testing.T) {
	tel := NewTelemetry()
	spec := Spec{
		Name:           "live-exact",
		Structure:      StructureHashmap,
		Locales:        2,
		TasksPerLocale: 2,
		Backend:        "none",
		Seed:           31,
		Keyspace:       256,
		Dist:           KeyDist{Kind: DistUniform},
		Phases: []Phase{
			{Name: "short", Mix: Mix{Insert: 1}, OpsPerTask: 5},
			{Name: "run", Mix: Mix{Insert: 2, Get: 7, Remove: 1}, Seconds: 0.1, ReclaimEvery: 100},
		},
	}
	rep, err := RunLive(spec, nil, tel)
	if err != nil {
		t.Fatal(err)
	}
	var ops int64
	for _, p := range rep.Phases {
		if p.Latency.Count != p.Ops {
			t.Errorf("phase %s: latency count %d != ops %d", p.Name, p.Latency.Count, p.Ops)
		}
		ops += p.Ops
	}
	opts := tel.Options()
	status := opts.Status().(LiveStatus)
	hist := opts.Hist().(LatencySummary)
	if status.Ops != ops || hist.Count != ops {
		t.Fatalf("live ops %d, live histogram count %d, want the phases' %d", status.Ops, hist.Count, ops)
	}
}

// TestModelledIsPricedBooks: every counted event is charged its kind's
// price, so Report.Invariants holds "modelled_ns == Σ counted events ×
// price" in every phase of an unscaled run — among them a walked ugni
// hashmap at LatencyScale 0.05, whose losing inserts free their nodes
// remotely — while a phase with a latency scale in force, from the
// spec's Faults.Scales or POSTed to /api/fault mid-phase, is recorded
// Scaled and exempt, every other invariant still holding.
func TestModelledIsPricedBooks(t *testing.T) {
	walked := Spec{
		Structure:      StructureHashmap,
		Locales:        4,
		TasksPerLocale: 2,
		Backend:        "ugni",
		Seed:           1,
		Keyspace:       64,
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.1, HotProb: 0.9},
		LatencyScale:   0.05,
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 300},
			{Name: "run", Mix: Mix{Insert: 3, Get: 4, Remove: 3}, OpsPerTask: 600},
		},
	}
	slowed := walked
	slowed.Faults = Faults{Scales: comm.SlowLocale(4, 3, 4).Scales}
	live := walked
	live.Phases = []Phase{walked.Phases[0], {Name: "run", Mix: walked.Phases[1].Mix, Seconds: 0.5}}
	for _, tc := range []struct {
		name   string
		spec   Spec
		post   string // posted to /api/fault once the second phase runs
		scaled []bool
	}{
		{"walked-ugni", walked, "", []bool{false, false}},
		{"spec-scales", slowed, "", []bool{true, true}},
		{"live-scales", live, `{"scales":[1,4]}`, []bool{false, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rep *Report
			var err error
			if tc.post == "" {
				rep, err = Run(tc.spec, nil)
			} else {
				rep, err = runPostingMidPhase(t, tc.spec, tc.post)
			}
			if err != nil {
				t.Fatal(err)
			}
			requireInvariants(t, tc.name, rep)
			for i, p := range rep.Phases {
				if p.ModelledNS == 0 || p.Scaled != tc.scaled[i] {
					t.Fatalf("phase %q: modelled %dns, scaled %v, want charges and scaled %v",
						p.Name, p.ModelledNS, p.Scaled, tc.scaled[i])
				}
			}
		})
	}
}

// runPostingMidPhase runs spec live and POSTs body to /api/fault once
// the live op count passes the first phase's ops, so mid-way through
// the second phase, which must be timed.
func runPostingMidPhase(t *testing.T, spec Spec, body string) (*Report, error) {
	tel := NewTelemetry()
	srv, err := telemetry.Start("127.0.0.1:0", tel.Options())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := RunLive(spec, nil, tel)
		done <- result{rep, err}
	}()
	first := int64(spec.Phases[0].OpsPerTask * spec.Locales * spec.TasksPerLocale)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second phase never showed ops on the live bridge")
		}
		tel.mu.Lock()
		ops := tel.hist.Count()
		tel.mu.Unlock()
		if ops > first {
			break
		}
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", srv.Addr()), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/fault %s mid-phase: %d", body, resp.StatusCode)
	}
	res := <-done
	return res.rep, res.err
}
