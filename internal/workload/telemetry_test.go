package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
	"gopgas/internal/telemetry"
)

// liveRun is a scenario running under RunLive with a telemetry server
// attached, as an operator would drive one.
type liveRun struct {
	tel  *Telemetry
	srv  *telemetry.Server
	done chan struct{}
	rep  *Report
	err  error
}

// startLive starts spec under RunLive behind a telemetry server and
// returns once the run has attached to the bridge.
func startLive(t *testing.T, spec Spec) *liveRun {
	t.Helper()
	lr := &liveRun{tel: NewTelemetry(), done: make(chan struct{})}
	srv, err := telemetry.Start("127.0.0.1:0", lr.tel.Options())
	if err != nil {
		t.Fatal(err)
	}
	lr.srv = srv
	t.Cleanup(func() { srv.Close() })
	go func() {
		defer close(lr.done)
		lr.rep, lr.err = RunLive(spec, nil, lr.tel)
	}()
	for deadline := time.Now().Add(10 * time.Second); lr.sys() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the run never attached to the bridge")
		}
	}
	return lr
}

// sys is the attached run's System, nil before and after the run.
func (lr *liveRun) sys() *pgas.System {
	lr.tel.mu.Lock()
	defer lr.tel.mu.Unlock()
	return lr.tel.sys
}

// post POSTs body to /api/fault and returns the status code.
func (lr *liveRun) post(t *testing.T, body string) int {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", lr.srv.Addr()), "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// awaitOps returns once the live bridge counts more than n ops.
func (lr *liveRun) awaitOps(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); lr.tel.Options().Status().(LiveStatus).Ops <= n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the live bridge never counted more than %d ops", n)
		}
	}
}

// wait returns the run's report once it has finished.
func (lr *liveRun) wait(t *testing.T) *Report {
	t.Helper()
	<-lr.done
	if lr.err != nil {
		t.Fatal(lr.err)
	}
	return lr.rep
}

// pacedQueue is a queue scenario whose middle phase runs seconds long at
// a paced, light rate, with every op on the task's own locale: no op is
// ever refused toward a crashed locale, so what a crash loses is the
// budget of the op-count phases after it, exactly.
func pacedQueue(seconds float64) Spec {
	return Spec{
		Name: "paced-queue", Structure: StructureQueue, Locales: 4, TasksPerLocale: 2,
		Backend: "none", Seed: 5,
		Phases: []Phase{
			{Name: "load", Mix: Mix{Enqueue: 1}, OpsPerTask: 100},
			{Name: "run", Mix: Mix{Enqueue: 1, Remove: 1}, Seconds: seconds, TargetRate: 2000},
			{Name: "tail", Mix: Mix{Enqueue: 1, Remove: 1}, OpsPerTask: 100},
		},
	}
}

// A live crash is fail-stop and irreversible: locale 0 is refused (it
// hosts the global epoch word), and so is failover on a run whose spec
// set its driver up without one; the crash that lands is booked, and
// neither installing nor clearing latency scales afterward resurrects
// the locale — its shards may already have been adopted elsewhere.
func TestTelemetryFaultCrash(t *testing.T) {
	lr := startLive(t, pacedQueue(2))
	sys := lr.sys()
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"crash":{"locale":0}}`, http.StatusUnprocessableEntity},
		{`{"crash":{"locale":2,"failover":true}}`, http.StatusUnprocessableEntity},
		{`{}`, http.StatusBadRequest},
		{`{"crash":{"locale":2}}`, http.StatusOK},
		{`{"scales":[1,8]}`, http.StatusOK},
		{`{"clear":true}`, http.StatusOK},
	} {
		if code := lr.post(t, c.body); code != c.code {
			t.Fatalf("%s: status %d, want %d", c.body, code, c.code)
		}
	}
	// Clients posting at once each hear back about their own fault.
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []string{`{"scales":[1,1,4,1]}`, `{"clear":true}`, `{"crash":{"locale":0}}`}[i%3]
			if err := lr.tel.Options().Fault(strings.NewReader(body)); (err != nil) != (i%3 == 2) {
				t.Errorf("%s: %v", body, err)
			}
		}()
	}
	wg.Wait()
	if _, dead := liveness(sys); !reflect.DeepEqual(dead, []int{2}) {
		t.Fatalf("dead locales %v after the crash and the latency swaps, want [2]", dead)
	}
	rep := lr.wait(t)
	requireInvariants(t, "live crash", rep)
	if a := rep.Availability; a == nil || a.Crashes != 1 || a.Wedged != 1 || a.Recovered {
		t.Fatalf("availability %+v, want the one no-failover crash booked", a)
	}
}

// TestLiveFaultsLandLikeScheduledOnes drives /api/fault through a fault
// lifecycle and, SNIPPETS-§2 style, compares the complete fault state —
// status code, severed pairs, dead locales, latency scales — after every
// post: a malformed body is a 400 and a refused fault a 422, neither
// moving anything; a landed one has moved exactly its part when the 200
// arrives. The crash it posts, with failover, leaves the same books and
// the same invariant verdicts as the run's own scheduled copy of it,
// which then finds the locale dead and records nothing; a post after the
// run detached is a 422.
func TestLiveFaultsLandLikeScheduledOnes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (a 3 s paced phase)")
	}
	spec := pacedQueue(3)
	spec.Faults.Events = []Event{{Phase: 2, Fault: crash(2, true)}}
	lr := startLive(t, spec)
	lr.awaitOps(t, 800) // the load phase's ops: post in the paced phase
	type state struct {
		Code    int
		Severed [][2]int
		Dead    []int
		Scales  []float64
	}
	sys := lr.sys()
	for _, s := range []struct {
		body string
		want state
	}{
		{`{"crash":true,"crash_locale":1}`, state{Code: 400}},
		{`{"sever":[1,3],"heal":[1,3]}`, state{Code: 400}},
		{`{"sever":[1,3],"sevr":true}`, state{Code: 400}},
		{`{"sever":[1,3]} {"heal":[1,3]}`, state{Code: 400}},
		{`{"scales":[]}`, state{Code: 400}},
		{`{"clear":false}`, state{Code: 400}},
		{`{"crash":{"locale":0}}`, state{Code: 422}},
		{`{"heal":[1,3]}`, state{Code: 422}},
		{`{"sever":[1,4]}`, state{Code: 422}},
		{`{"sever":[3,1]}`, state{Code: 200, Severed: [][2]int{{1, 3}}}},
		{`{"scales":[1,2,1,1]}`, state{Code: 200, Severed: [][2]int{{1, 3}}, Scales: []float64{1, 2, 1, 1}}},
		{`{"heal":[1,3]}`, state{Code: 200, Scales: []float64{1, 2, 1, 1}}},
		{`{"heal":[1,3]}`, state{Code: 422, Scales: []float64{1, 2, 1, 1}}},
		{`{"clear":true}`, state{Code: 200}},
		{`{"crash":{"locale":2,"failover":true}}`, state{Code: 200, Dead: []int{2}}},
	} {
		got := state{Code: lr.post(t, s.body), Scales: sys.Perturbation().Scales}
		got.Severed, got.Dead = liveness(sys)
		if !reflect.DeepEqual(got, s.want) {
			t.Fatalf("after %s:\n got %+v\nwant %+v", s.body, got, s.want)
		}
	}
	live := lr.wait(t)
	if code := lr.post(t, `{"clear":true}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("a post after the run detached: %d, want 422", code)
	}
	scheduled, err := Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	type books struct {
		Crashes            int
		Recovered          bool
		TokensForceRetired int64
		OpsLost            int64
		Verdicts           map[string]bool
	}
	booksOf := func(rep *Report) books {
		a := rep.Availability
		b := books{a.Crashes, a.Recovered, a.TokensForceRetired, a.OpsLost, map[string]bool{}}
		for _, inv := range rep.Invariants() {
			b.Verdicts[inv.Name] = inv.Held
		}
		return b
	}
	got, want := booksOf(live), booksOf(scheduled)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live crash books\n %+v\nscheduled crash books\n %+v", got, want)
	}
	requireInvariants(t, "live faults", live)
	if want.Crashes != 1 || !want.Recovered || want.TokensForceRetired != int64(spec.TasksPerLocale) || want.OpsLost != 2*100 {
		t.Fatalf("scheduled crash books %+v, want one recovered crash losing the tail's budget", want)
	}
}

// The crash a live post lands is booked like a scheduled one, so the
// invariants judge it: with combining on, a dying locale's tasks abandon
// their buffers, and the aggregator identity must be held in its crash
// form. Before live faults went through the applier, this run reported
// no availability section and, most runs, a violated identity.
func TestLiveCrashBooksAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (wall-clock phase)")
	}
	spec := Spec{
		Name: "live-crash", Structure: StructureHashmap, Locales: 4, TasksPerLocale: 2,
		Backend: "none", Seed: 11, Keyspace: 256,
		Dist:    KeyDist{Kind: DistHotSet, HotFraction: 0.1, HotProb: 0.9},
		Combine: &CombineSpec{Enabled: true},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 200},
			{Name: "run", Mix: Mix{Insert: 2, Get: 7, Remove: 1}, Seconds: 1},
		},
	}
	rep, err := runPostingMidPhase(t, spec, `{"crash":{"locale":2}}`)
	if err != nil {
		t.Fatal(err)
	}
	requireInvariants(t, "live crash", rep)
	if a := rep.Availability; a == nil || a.Crashes != 1 || a.Wedged != 1 {
		t.Fatalf("availability %+v, want the live crash booked", a)
	}
}

// A fault is one JSON value: a body with anything after it is a bad
// request, decoded by no run, while the same value alone decodes (and,
// with no run attached, is refused).
func TestFaultRejectsTrailingData(t *testing.T) {
	fault := NewTelemetry().Options().Fault
	for _, body := range []string{
		`{"heal":[2,3]} {"crash":{"locale":1}} junk`,
		`{"scales":[1,8]}}`,
	} {
		if err := fault(strings.NewReader(body)); !errors.Is(err, telemetry.ErrBadRequest) {
			t.Errorf("%s: %v, want a bad request", body, err)
		}
	}
	if err := fault(strings.NewReader(`{"heal":[2,3]}`)); !errors.Is(err, errNotRunning) {
		t.Errorf("the value alone: %v, want it refused for want of a run", err)
	}
}

// A fault names only known fields: a retired field or a typo beside a
// valid form is a bad request, while the bodies the CI telemetry smoke
// posts decode.
func TestFaultRejectsUnknownFields(t *testing.T) {
	fault := NewTelemetry().Options().Fault
	for _, body := range []string{`{"slow_factor":4}`, `{"scales":[1,4],"sevr":true}`, `{"crash":{"locale":1,"phase":2}}`} {
		if err := fault(strings.NewReader(body)); !errors.Is(err, telemetry.ErrBadRequest) {
			t.Errorf("%s: %v, want a bad request", body, err)
		}
	}
	for _, body := range []string{`{"crash":{"locale":1}}`, `{"sever":[2,3]}`, `{"heal":[2,3]}`} {
		if err := fault(strings.NewReader(body)); !errors.Is(err, errNotRunning) {
			t.Errorf("%s: %v, want it refused for want of a run", body, err)
		}
	}
}

// A scale JSON can carry but the ledger cannot hold is a bad request;
// one <= 0 still means nominal, and maxScale itself is a scale.
func TestDecodeFaultBoundsScales(t *testing.T) {
	for _, tc := range []struct {
		body string
		bad  bool
	}{
		{`{"scales":[1e300]}`, true},
		{`{"scales":[1,1000001]}`, true},
		{`{"scales":[1,1e6]}`, false},
		{`{"scales":[0,-1e300]}`, false},
	} {
		_, err := decodeFault(strings.NewReader(tc.body))
		if bad := errors.Is(err, telemetry.ErrBadRequest); bad != tc.bad || !bad && err != nil {
			t.Errorf("%s: %v, want a bad request %v", tc.body, err, tc.bad)
		}
	}
}

// FuzzFaultEvent hands arbitrary bodies to the Fault provider of a
// bridge whose run lands every post. The oracle is a strict decode —
// one JSON value of known fields — holding exactly one well-formed form:
// such a body reaches the run exactly once, as its decode, and lands;
// any other is a bad request the run never sees.
func FuzzFaultEvent(f *testing.F) {
	for _, body := range []string{
		`{"scales":[1,8]}`,
		`{"slow_factor":-1}`,
		`{}`,
		`{"crash":{"locale":1}}`,
		`{"crash":{"locale":0}}`,
		`{"crash":{"locale":2,"failover":true}}`,
		`{"sever":[2,3]}`,
		`{"heal":[2,3]}`,
		`{"clear":true}`,
		`{"heal":[2,3]} {"crash":{"locale":1}} junk`,
		`{"scales":[1,4],"sevr":true}`,
		// Two forms, an empty or false one, a pair that is not one.
		`{"sever":[1,2],"heal":[1,2]}`,
		`{"scales":[]}`,
		`{"clear":false}`,
		`{"sever":[1,2,3]}`,
		`{"crash":true,"crash_locale":1}`,
		// Scales at, beyond and far beyond the bound.
		`{"scales":[1,1e6]}`,
		`{"scales":[1,1000001]}`,
		`{"scales":[1e300]}`,
		`{"scales":[-1e300,0]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tel := NewTelemetry()
		posts, gone := tel.attach("fuzz", nil, nil), tel.gone
		seen := make(chan Fault, 1)
		go func() {
			select {
			case p := <-posts:
				seen <- p.fault
				p.landed <- nil
			case <-gone:
			}
		}()
		err := tel.Options().Fault(bytes.NewReader(body))
		tel.detach()

		var want Fault
		oracle := json.Unmarshal(body, &want)
		if oracle == nil {
			strict := json.NewDecoder(bytes.NewReader(body))
			strict.DisallowUnknownFields()
			oracle = strict.Decode(new(Fault))
		}
		forms := 0
		for _, set := range []bool{want.Crash != nil, want.Sever != nil, want.Heal != nil, want.Scales != nil, want.Clear} {
			if set {
				forms++
			}
		}
		wellFormed := oracle == nil && forms == 1 &&
			(want.Sever == nil || len(want.Sever) == 2) && (want.Heal == nil || len(want.Heal) == 2) &&
			(want.Scales == nil || len(want.Scales) > 0) && !slices.ContainsFunc(want.Scales, func(x float64) bool { return x > maxScale })
		select {
		case got := <-seen:
			if !wellFormed || err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("the run saw %+v (provider error %v) from a body whose decode is %+v, well-formed %v", got, err, want, wellFormed)
			}
		default:
			if wellFormed || !errors.Is(err, telemetry.ErrBadRequest) {
				t.Fatalf("the run saw nothing (provider error %v) from a body whose decode is %+v, well-formed %v", err, want, wellFormed)
			}
		}
	})
}

// TestRunLiveServesTelemetry drives the full live plane: a scenario
// runs under RunLive with the HTTP server attached, and the test acts
// as the operator — reading status, the matrix and histogram mid-run,
// injecting faults over POST, and draining a trace window. The run must
// still finish with balanced span books (the books count decisions, so
// windowed HTTP drains can't unbalance them), every invariant held and
// the live crash booked, and the server must report unattached after it.
func TestRunLiveServesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive (wall-clock phase)")
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
	// startLive returns once the run is attached, which precedes every
	// phase, so the whole multi-second run is budget for the mid-run
	// probes below.
	lr := startLive(t, spec)
	get := func(path string) (int, []byte) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", lr.srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	var status struct {
		Scenario string `json:"scenario"`
		Running  bool   `json:"running"`
		Ops      int64  `json:"ops"`
	}
	code, body := get("/api/status")
	if code != http.StatusOK {
		t.Fatalf("/api/status: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("/api/status not JSON: %v", err)
	}
	if !status.Running || status.Scenario != "live" {
		t.Fatalf("status reads scenario %q, running %v", status.Scenario, status.Running)
	}

	code, body = get("/api/matrix")
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
	if code := lr.post(t, `{"scales":[1,4]}`); code != http.StatusOK {
		t.Fatalf("/api/fault mid-run: %d", code)
	}
	// Crash a locale over HTTP mid-run: its tasks abandon fail-stop and
	// the run must still finish cleanly — refusals drain to the ledger
	// instead of stalling quiescence. Locale 0 is refused (it hosts the
	// global epoch word).
	if code := lr.post(t, `{"crash":{"locale":1}}`); code != http.StatusOK {
		t.Fatalf("/api/fault crash: %d", code)
	}
	if code := lr.post(t, `{"crash":{"locale":0}}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("crash of locale 0 returned %d, want 422", code)
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

	rep := lr.wait(t)
	if rep.Trace == nil || !rep.Trace.Balanced {
		t.Fatalf("live-drained run lost book balance: %+v", rep.Trace)
	}
	requireInvariants(t, "live", rep)
	if a := rep.Availability; a == nil || a.Crashes != 1 {
		t.Fatalf("availability %+v, want the live crash booked", a)
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
// price" in every phase of every run — among them a walked ugni hashmap
// at LatencyScale 0.05, whose losing inserts free their nodes remotely
// — and a latency scale's excess is booked apart: perturb_ns is
// non-zero in exactly the phases where a scale was in force, from the
// spec's events or POSTed to /api/fault mid-phase.
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
	slowed.Faults = Faults{Events: []Event{{Fault: Fault{Scales: comm.SlowLocale(4, 3, 4).Scales}}}}
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
				if p.ModelledNS == 0 || (p.PerturbNS > 0) != tc.scaled[i] || p.PerturbNS < 0 {
					t.Fatalf("phase %q: modelled %dns, perturb %dns, want charges and perturb > 0 %v, else 0",
						p.Name, p.ModelledNS, p.PerturbNS, tc.scaled[i])
				}
			}
		})
	}
}

// runPostingMidPhase runs spec live and POSTs body to /api/fault once
// the live op count passes the first phase's ops, so mid-way through
// the second phase, which must be timed.
func runPostingMidPhase(t *testing.T, spec Spec, body string) (*Report, error) {
	lr := startLive(t, spec)
	lr.awaitOps(t, int64(spec.Phases[0].OpsPerTask*spec.Locales*spec.TasksPerLocale))
	if code := lr.post(t, body); code != http.StatusOK {
		t.Fatalf("/api/fault %s mid-phase: %d", body, code)
	}
	<-lr.done
	return lr.rep, lr.err
}
