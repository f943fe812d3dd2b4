package workload

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func validSpec() Spec {
	return Spec{
		Structure: StructureHashmap,
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 10},
			{Name: "run", Mix: Mix{Insert: 1, Get: 8, Remove: 1}, OpsPerTask: 10},
		},
	}.WithDefaults()
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown structure", func(s *Spec) { s.Structure = "btree" }, "unknown structure"},
		{"zero locales", func(s *Spec) { s.Locales = -1 }, "locales"},
		{"zero tasks", func(s *Spec) { s.TasksPerLocale = -1 }, "tasks_per_locale"},
		{"bad backend", func(s *Spec) { s.Backend = "tcp" }, "backend"},
		{"bad home", func(s *Spec) { s.Home = 99 }, "home"},
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"empty mix", func(s *Spec) { s.Phases[0].Mix = Mix{} }, "empty op mix"},
		{"unsupported kind", func(s *Spec) { s.Phases[0].Mix = Mix{Steal: 1} }, "does not support"},
		{"ops and seconds", func(s *Spec) { s.Phases[0].Seconds = 2 }, "exactly one"},
		{"neither ops nor seconds", func(s *Spec) { s.Phases[0].OpsPerTask = 0 }, "exactly one"},
		{"negative weight", func(s *Spec) { s.Phases[0].Mix.Get = -1 }, "negatively"},
		{"theta too big", func(s *Spec) { s.Dist = KeyDist{Kind: DistZipfian, Theta: 1.5} }, "theta"},
		{"bad hot fraction", func(s *Spec) { s.Dist = KeyDist{Kind: DistHotSet, HotFraction: 2, HotProb: 0.5} }, "hot_fraction"},
		{"unknown dist", func(s *Spec) { s.Dist.Kind = "pareto" }, "distribution"},
		{"negative latency scale", func(s *Spec) { s.LatencyScale = -1 }, "latency_scale"},
		{"huge latency scale", func(s *Spec) { s.LatencyScale = 1e300 }, "latency_scale"},
		{"NaN latency scale", func(s *Spec) { s.LatencyScale = math.NaN() }, "latency_scale"},
		{"infinite latency scale", func(s *Spec) { s.LatencyScale = math.Inf(1) }, "latency_scale"},
		{"mix summing to +Inf", func(s *Spec) { s.Phases[1].Mix = Mix{Insert: 1e308, Get: 1e308} }, "sum to +Inf"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutation %q accepted", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Dist = KeyDist{Kind: DistZipfian, Theta: 0.9}
	s.Faults = Faults{Events: []Event{{Fault: Fault{Scales: []float64{1, 4}}}}}
	s.Phases[1].Churn = true
	s.Phases[1].Rounds = 3

	path := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Structure != s.Structure || back.Dist != s.Dist ||
		!reflect.DeepEqual(back.Faults, s.Faults) ||
		len(back.Phases) != len(s.Phases) || back.Phases[1] != s.Phases[1] {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, s)
	}
}

// goldenSpec populates every Spec knob, including the cache field —
// the serialization surface the golden round-trip protects.
func goldenSpec() Spec {
	return Spec{
		Name:           "golden",
		Structure:      StructureHashmap,
		Locales:        8,
		TasksPerLocale: 2,
		Backend:        "ugni",
		Seed:           42,
		Keyspace:       512,
		Buckets:        64,
		Home:           1,
		Dist:           KeyDist{Kind: DistHotSet, HotFraction: 0.05, HotProb: 0.95},
		LatencyScale:   0.5,
		Faults: Faults{
			Events: []Event{
				{Phase: 0, Fault: Fault{Scales: []float64{1, 1, 1, 4}}},
				{Phase: 1, AfterOps: 50, Fault: sever(1, 2)},
				{Phase: 1, AfterOps: 250, Fault: crash(3, false)},
				{Phase: 2, Fault: heal(1, 2)},
			},
			Retry: &RetrySpec{DeadlineMS: 500, Capacity: 1024},
		},
		Cache:     &CacheSpec{Enabled: true, Slots: 128},
		Combine:   &CombineSpec{Enabled: false},
		Rebalance: &RebalanceSpec{Enabled: false, Ratio: 1.75, IntervalMS: 3, MaxMoves: 2, Cooldown: 2},
		Trace:     &TraceSpec{Enabled: true, SampleRate: 32, BufferSize: 4096},
		Phases: []Phase{
			{Name: "load", Mix: Mix{Insert: 1}, OpsPerTask: 100},
			{Name: "run", Mix: Mix{Insert: 1, Get: 18, Remove: 1, Bulk: 0.5},
				OpsPerTask: 400, BulkSize: 32, TargetRate: 5000, ReclaimEvery: 64},
			{Name: "churn", Mix: Mix{Get: 1}, OpsPerTask: 50, Rounds: 3, Churn: true},
		},
	}
}

// writeSpecFile serializes s into a fresh temp file and returns its
// path (the format LoadSpec reads back).
func writeSpecFile(t *testing.T, s Spec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Serialize → parse → deep-equal: the full spec surface (every knob
// populated, cache included) survives the JSON round trip bit-exactly,
// and the strict parser rejects unknown keys at any nesting depth.
func TestSpecGoldenRoundTrip(t *testing.T) {
	s := goldenSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("golden spec invalid: %v", err)
	}
	path := writeSpecFile(t, s)
	back, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("golden round trip drifted:\n got %+v\nwant %+v", back, s)
	}

	// A second trip through the parsed copy must be byte-identical:
	// serialization is deterministic, so specs diff cleanly in VCS.
	raw1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(writeSpecFile(t, back))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw1) != string(raw2) {
		t.Fatalf("re-serialization not byte-identical:\n%s\nvs\n%s", raw1, raw2)
	}

	// A disabled-cache spec omits the field entirely (pointer +
	// omitempty), keeping cacheless specs clean; same for combine.
	s2 := s
	s2.Cache = nil
	s2.Combine = nil
	s2.Rebalance = nil
	s2.Trace = nil
	var buf strings.Builder
	if err := s2.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"cache\"") {
		t.Fatalf("nil cache serialized:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "\"combine\"") {
		t.Fatalf("nil combine serialized:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "\"rebalance\"") {
		t.Fatalf("nil rebalance serialized:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "\"trace\"") {
		t.Fatalf("nil trace serialized:\n%s", buf.String())
	}
}

// The cache composes with everything the hashmap's one write path
// carries: each combination Validate used to reject as "mutually
// exclusive" — the cache with combine, with rebalance, with crash
// failover, and all of them at once — is a legal spec that survives
// the JSON round trip bit-exactly.
func TestSpecComposedFeaturesRoundTrip(t *testing.T) {
	combine := func(s *Spec) { s.Combine.Enabled = true }
	rebalance := func(s *Spec) { s.Rebalance.Enabled = true }
	failover := func(s *Spec) { s.Faults.Events[2].Crash.Failover = true }
	cases := []struct {
		name   string
		enable []func(*Spec)
	}{
		{"cache+combine", []func(*Spec){combine}},
		{"cache+rebalance", []func(*Spec){rebalance}},
		{"cache+failover", []func(*Spec){failover}},
		{"cache+combine+rebalance+failover", []func(*Spec){combine, rebalance, failover}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := goldenSpec() // cache on; combine, rebalance and failover off
			for _, on := range tc.enable {
				on(&s)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("composed spec rejected: %v", err)
			}
			back, err := LoadSpec(writeSpecFile(t, s))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, s)
			}
			if err := back.WithDefaults().Validate(); err != nil {
				t.Fatalf("reloaded composed spec rejected: %v", err)
			}
		})
	}
}

// Strict parsing applies inside nested objects too: a typo'd cache or
// combine knob fails loudly instead of silently running the default.
func TestLoadSpecRejectsUnknownNestedFields(t *testing.T) {
	cases := map[string]string{
		"cache":     `{"structure": "hashmap", "cache": {"enabld": true}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`,
		"combine":   `{"structure": "hashmap", "combine": {"enbaled": true}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`,
		"rebalance": `{"structure": "hashmap", "rebalance": {"ratioo": 2}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`,
		"trace":     `{"structure": "hashmap", "trace": {"sample_rte": 8}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`,
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nested.json")
			if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSpec(path); err == nil {
				t.Fatal("unknown nested field accepted")
			}
		})
	}
}

func TestValidateCache(t *testing.T) {
	s := validSpec()
	s.Cache = &CacheSpec{Enabled: true}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("cached hashmap spec rejected: %v", err)
	}
	if s.Cache.Slots != 256 {
		t.Fatalf("default cache slots = %d, want 256", s.Cache.Slots)
	}
	q := validSpec()
	q.Structure = StructureQueue
	q.Phases = []Phase{{Name: "run", Mix: Mix{Enqueue: 1}, OpsPerTask: 10}}
	q.Cache = &CacheSpec{Enabled: true}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "cache") {
		t.Fatalf("cache on queue accepted (err=%v)", err)
	}
	bad := validSpec()
	bad.Cache = &CacheSpec{Enabled: true, Slots: -1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "slots") {
		t.Fatalf("negative cache slots accepted (err=%v)", err)
	}
}

func TestValidateCombine(t *testing.T) {
	s := validSpec()
	s.Combine = &CombineSpec{Enabled: true}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("combined hashmap spec rejected: %v", err)
	}
	q := validSpec()
	q.Structure = StructureQueue
	q.Phases = []Phase{{Name: "run", Mix: Mix{Enqueue: 1}, OpsPerTask: 10}}
	q.Combine = &CombineSpec{Enabled: true}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "combine") {
		t.Fatalf("combine on queue accepted (err=%v)", err)
	}
	// A disabled combine spec is inert: legal anywhere, cache included.
	both := validSpec()
	both.Cache = &CacheSpec{Enabled: true, Slots: 16}
	both.Combine = &CombineSpec{Enabled: false}
	if err := both.WithDefaults().Validate(); err != nil {
		t.Fatalf("disabled combine rejected: %v", err)
	}
}

func TestValidateRebalance(t *testing.T) {
	s := validSpec()
	s.Rebalance = &RebalanceSpec{Enabled: true}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("rebalanced hashmap spec rejected: %v", err)
	}
	if s.Rebalance.Ratio != 2 || s.Rebalance.IntervalMS != 2 || s.Rebalance.MaxMoves != 4 || s.Rebalance.Cooldown != 1 {
		t.Fatalf("rebalance defaults = %+v", s.Rebalance)
	}
	q := validSpec()
	q.Structure = StructureQueue
	q.Phases = []Phase{{Name: "run", Mix: Mix{Enqueue: 1}, OpsPerTask: 10}}
	q.Rebalance = &RebalanceSpec{Enabled: true}
	if err := q.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "rebalance") {
		t.Fatalf("rebalance on queue accepted (err=%v)", err)
	}
	// The imbalance trigger must exceed 1: a ratio at or below the mean
	// would fire on perfectly balanced traffic.
	bad := validSpec()
	bad.Rebalance = &RebalanceSpec{Enabled: true, Ratio: 1}
	if err := bad.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Fatalf("ratio 1 accepted (err=%v)", err)
	}
	neg := validSpec()
	neg.Rebalance = &RebalanceSpec{Enabled: true, IntervalMS: -1}
	if err := neg.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "rebalance") {
		t.Fatalf("negative interval accepted (err=%v)", err)
	}
	// Composable with combine; disabled rebalance is inert anywhere.
	combo := validSpec()
	combo.Combine = &CombineSpec{Enabled: true}
	combo.Rebalance = &RebalanceSpec{Enabled: true}
	if err := combo.WithDefaults().Validate(); err != nil {
		t.Fatalf("combine+rebalance rejected: %v", err)
	}
	off := validSpec()
	off.Cache = &CacheSpec{Enabled: true, Slots: 16}
	off.Rebalance = &RebalanceSpec{Enabled: false}
	if err := off.WithDefaults().Validate(); err != nil {
		t.Fatalf("disabled rebalance rejected: %v", err)
	}
}

func TestValidateTrace(t *testing.T) {
	s := validSpec()
	s.Trace = &TraceSpec{Enabled: true}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("traced spec rejected: %v", err)
	}
	if s.Trace.SampleRate != 64 || s.Trace.BufferSize != 16384 {
		t.Fatalf("trace defaults = %+v, want sample 64 buffer 16384", s.Trace)
	}
	// A disabled trace spec stays untouched by WithDefaults: it must
	// serialize back exactly as written.
	off := validSpec()
	off.Trace = &TraceSpec{Enabled: false}
	if d := off.WithDefaults(); d.Trace.SampleRate != 0 || d.Trace.BufferSize != 0 {
		t.Fatalf("disabled trace gained defaults: %+v", d.Trace)
	}
	bad := validSpec()
	bad.Trace = &TraceSpec{Enabled: true, SampleRate: -1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "sample_rate") {
		t.Fatalf("negative sample rate accepted (err=%v)", err)
	}
	bad = validSpec()
	bad.Trace = &TraceSpec{Enabled: true, BufferSize: -1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "buffer_size") {
		t.Fatalf("negative buffer accepted (err=%v)", err)
	}
	bad = validSpec()
	bad.Trace = &TraceSpec{Enabled: true, BufferSize: 1 << 25}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "buffer_size") {
		t.Fatalf("oversized buffer accepted (err=%v)", err)
	}
}

func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`{"structure": "queue", "lcoales": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// A spec file holds one JSON value: anything after it — a second
// value, garbage — is an error, not silently ignored.
func TestLoadSpecRejectsTrailingData(t *testing.T) {
	const spec = `{"structure": "queue", "phases": [{"name": "run", "mix": {"enqueue": 1}, "ops_per_task": 1}]}`
	for _, tc := range []struct {
		tail string
		ok   bool
	}{
		{` {"structure":"nope"} trailing garbage`, false},
		{`junk`, false},
		{`}`, false},
		{" \n\t ", true},
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(spec+tc.tail), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); (err == nil) != tc.ok {
			t.Errorf("%q after the spec: err = %v", tc.tail, err)
		}
	}
}

// The fault plan's validation surface: every malformed event is
// rejected with a message naming what is wrong — a malformed fault in
// /api/fault's own words, a trigger out of range, a mid-phase event in a
// churn phase, and what the dry run of the timeline refuses as apply
// would — while an event with both triggers is legal (no "pick one"
// rule), as are the legal shapes after the table.
func TestValidateFaultPlan(t *testing.T) {
	events := func(evs ...Event) func(*Spec) {
		return func(s *Spec) { s.Faults.Events = evs }
	}
	churn := func(evs ...Event) func(*Spec) {
		return func(s *Spec) {
			s.Phases[1].Churn = true
			s.Phases[1].Rounds = 2
			s.Faults.Events = evs
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // "" for a spec Validate must accept
	}{
		{"crash locale zero", events(Event{Fault: crash(0, false)}), "cannot crash"},
		{"crash locale out of range", events(Event{Fault: crash(99, false)}), "out of range"},
		{"crash phase out of range", events(Event{Phase: 7, Fault: crash(1, false)}), "phase 7 out of range"},
		{"negative after_ops", events(Event{AfterOps: -5, Fault: crash(1, false)}), "after_ops"},
		{"mid-phase crash in churn", churn(Event{Phase: 1, AfterOps: 10, Fault: crash(1, false)}), "churn"},
		{"failover on skiplist", func(s *Spec) {
			s.Structure = StructureSkiplist
			s.Phases = []Phase{{Name: "run", Mix: Mix{Insert: 1}, OpsPerTask: 10}}
			s.Faults.Events = []Event{{Fault: crash(1, true)}}
		}, "hashmap, queue and stack"},
		{"partition out of range", events(Event{Fault: sever(0, 64)}), "out of range"},
		{"partition self-pair", events(Event{Fault: sever(2, 2)}), "itself"},
		{"partition phase out of range", events(Event{Phase: 9, Fault: sever(1, 2)}), "phase 9 out of range"},
		{"partition negative at_ops", events(Event{AfterOps: -1, Fault: sever(1, 2)}), "after_ops"},
		{"mid-phase sever in churn", churn(Event{Phase: 1, AfterOps: 10, Fault: sever(1, 2)}), "churn"},
		{"timed heal in churn", churn(Event{Fault: sever(1, 2)}, Event{Phase: 1, AfterMS: 5, Fault: heal(1, 2)}), "churn"},
		{"heal before sever", events(Event{Phase: 1, Fault: heal(1, 2)}, Event{Phase: 1, Fault: sever(1, 2)}),
			"heals [1 2], a pair no event before it severs"},
		{"heal of a healed pair", events(Event{Fault: sever(1, 2)}, Event{Phase: 1, Fault: heal(2, 1)}, Event{Phase: 1, Fault: heal(1, 2)}),
			"no event before it severs"},
		{"heal phase out of range", events(Event{Fault: sever(1, 2)}, Event{Phase: 9, Fault: heal(1, 2)}), "phase 9 out of range"},
		{"both heal clocks", events(Event{Fault: sever(1, 2)}, Event{Phase: 1, AfterOps: 5, AfterMS: 5, Fault: heal(1, 2)}), ""},
		{"negative heal_after_ms", events(Event{Fault: sever(1, 2)}, Event{AfterMS: -1, Fault: heal(1, 2)}), "after_ms"},
		{"second crash of one locale", events(Event{Fault: crash(1, false)}, Event{Phase: 1, Fault: crash(1, false)}), "crashes locale 1 a second time"},
		{"sever and heal in one event", events(Event{Phase: 1, Fault: Fault{Sever: []int{1, 2}, Heal: []int{1, 2}}}),
			"want exactly one of crash, sever, heal, scales or clear"},
		{"event without a fault", events(Event{Phase: 1}), "want exactly one"},
		{"sever of three locales", events(Event{Phase: 1, Fault: Fault{Sever: []int{1, 2, 3}}}), "a pair is two locales"},
		{"empty scales", events(Event{Fault: Fault{Scales: []float64{}}}), "scales has no entry"},
		{"infinite scale", events(Event{Fault: Fault{Scales: []float64{1, math.Inf(1)}}}), "scales [1 +Inf]: each must be finite and at most 1e+06"},
		{"negative retry deadline", func(s *Spec) {
			s.Faults.Retry = &RetrySpec{DeadlineMS: -1}
		}, "deadline_ms"},
		{"negative retry capacity", func(s *Spec) {
			s.Faults.Retry = &RetrySpec{Capacity: -1}
		}, "capacity"},
		{"disabled retry with knobs", func(s *Spec) {
			s.Faults.Retry = &RetrySpec{Disabled: true, DeadlineMS: 10}
		}, "disabled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := validSpec()
			c.mutate(&s)
			err := s.Validate()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("legal plan rejected: %v", err)
			case c.want == "":
			case err == nil:
				t.Fatalf("mutation %q accepted", c.name)
			case !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}

	// The legal shapes pass: a boundary failover crash, a mid-phase
	// crash in a non-churn phase, and a partition lifecycle — boundary
	// sever healed at a later phase boundary, mid-phase sever healed on
	// the wall clock, a pair that never heals, a pair severed again
	// after its heal — with latency scales set and cleared and a tuned
	// retry plane.
	ok := validSpec()
	ok.Faults = Faults{
		Events: []Event{
			{Phase: 1, Fault: crash(1, true)},
			{Phase: 0, AfterOps: 5, Fault: crash(2, false)},
			{Phase: 0, Fault: sever(1, 3)},
			{Phase: 1, Fault: heal(1, 3)},
			{Phase: 0, AfterOps: 5, Fault: sever(0, 2)},
			{Phase: 0, AfterMS: 2, Fault: heal(0, 2)},
			{Phase: 1, Fault: sever(2, 3)},
			{Phase: 1, AfterMS: 1, Fault: sever(3, 1)},
			{Phase: 0, Fault: Fault{Scales: []float64{1, 4}}},
			{Phase: 1, Fault: Fault{Clear: true}},
		},
		Retry: &RetrySpec{DeadlineMS: 100, Capacity: 64},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("legal fault plan rejected: %v", err)
	}
	if !ok.hasFailover() {
		t.Fatal("hasFailover missed the failover crash")
	}
	if validSpec().hasFailover() {
		t.Fatal("hasFailover on a crash-free spec")
	}

	// Queue and stack crash failover are legal shapes now too.
	for _, st := range []Structure{StructureQueue, StructureStack} {
		q := validSpec()
		q.Structure = st
		q.Phases = []Phase{{Name: "run", Mix: Mix{Enqueue: 1}, OpsPerTask: 10}}
		q.Faults.Events = []Event{{Fault: crash(1, true)}}
		if err := q.Validate(); err != nil {
			t.Fatalf("failover on %s rejected: %v", st, err)
		}
	}
}

// The fault plan survives the JSON round trip exactly, and a spec with
// no faults serializes without the keys at all.
func TestFaultPlanJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Faults = faultedPlan()
	path := filepath.Join(t.TempDir(), "faults.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Faults, s.Faults) {
		t.Fatalf("fault plan drifted:\n got %+v\nwant %+v", back.Faults, s.Faults)
	}

	var buf strings.Builder
	if err := validSpec().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"\"events\"", "\"retry\""} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("fault-free spec serialized %s:\n%s", key, buf.String())
		}
	}

	// An event is flat: its fault reads as /api/fault's body does, beside
	// the trigger.
	flat := filepath.Join(t.TempDir(), "flat.json")
	raw := `{"structure": "hashmap", "faults": {"events": [{"phase": 1, "after_ops": 3000, "crash": {"locale": 5, "failover": true}},
		{"phase": 1, "after_ms": 50, "heal": [1, 2]}, {"phase": 0, "scales": [1, 1, 1, 4]}]}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`
	if err := os.WriteFile(flat, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(flat)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Phase: 1, AfterOps: 3000, Fault: crash(5, true)},
		{Phase: 1, AfterMS: 50, Fault: heal(1, 2)},
		{Phase: 0, Fault: Fault{Scales: []float64{1, 1, 1, 4}}},
	}
	if !reflect.DeepEqual(loaded.Faults.Events, want) {
		t.Fatalf("flat events parsed as\n %+v\nwant\n %+v", loaded.Faults.Events, want)
	}

	// A typo'd crash knob fails loudly (strict nested parsing).
	bad := filepath.Join(t.TempDir(), "typo.json")
	raw = `{"structure": "hashmap", "faults": {"events": [{"phase": 0, "crash": {"lcoale": 1}}]}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`
	if err := os.WriteFile(bad, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(bad); err == nil {
		t.Fatal("unknown crash field accepted")
	}
}

// faultedPlan is a mid-phase partition and failover crash with a tuned
// retry plane: the sever lands at an op mark, its heal 2.5ms after it,
// and the crash at a later mark once the heal has landed.
func faultedPlan() Faults {
	return Faults{
		Events: []Event{
			{Phase: 1, AfterOps: 25, Fault: sever(1, 3)},
			{Phase: 1, AfterMS: 2.5, Fault: heal(1, 3)},
			{Phase: 1, AfterOps: 100, Fault: crash(2, true)},
		},
		Retry: &RetrySpec{DeadlineMS: 500, Capacity: 1024},
	}
}

// parkConfig lowers the retry knobs into the comm plane's units.
func TestRetrySpecParkConfig(t *testing.T) {
	// No Retry block: the defaults apply, plane enabled.
	pc := (Faults{}).parkConfig()
	if pc.Disable {
		t.Fatal("retry plane disabled by default")
	}
	pc = Faults{Retry: &RetrySpec{Disabled: true}}.parkConfig()
	if !pc.Disable {
		t.Fatal("retry.disabled did not lower to ParkConfig.Disable")
	}
	pc = Faults{Retry: &RetrySpec{DeadlineMS: 500, Capacity: 1024}}.parkConfig()
	if pc.DeadlineNS != 500_000_000 {
		t.Fatalf("deadline_ms 500 lowered to %d ns, want 500000000", pc.DeadlineNS)
	}
	if pc.Capacity != 1024 {
		t.Fatalf("capacity lowered to %d, want 1024", pc.Capacity)
	}
	// Fractional milliseconds survive the unit change.
	pc = Faults{Retry: &RetrySpec{DeadlineMS: 0.5}}.parkConfig()
	if pc.DeadlineNS != 500_000 {
		t.Fatalf("deadline_ms 0.5 lowered to %d ns, want 500000", pc.DeadlineNS)
	}
}

// FuzzSpecRoundTrip feeds arbitrary bytes through LoadSpec, WithDefaults
// and Validate. Every spec that validates must survive WriteJSON →
// LoadSpec unchanged and still validate: what a run accepts is what its
// saved spec replays.
func FuzzSpecRoundTrip(f *testing.F) {
	faulted := validSpec()
	faulted.Faults = faultedPlan()
	composed := goldenSpec()
	composed.Combine.Enabled = true
	composed.Rebalance.Enabled = true
	composed.Faults.Events[2].Crash.Failover = true
	for _, s := range []Spec{validSpec(), goldenSpec(), faulted, composed} {
		var buf strings.Builder
		if err := s.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(buf.String()))
	}
	// examples/scenario's flash crowd at its default flags.
	f.Add([]byte(`{"name": "flash-crowd", "structure": "hashmap", "locales": 4, "tasks_per_locale": 2, "backend": "ugni", "seed": 64206, "keyspace": 16384,
		"dist": {"kind": "hotset", "hot_fraction": 0.1, "hot_prob": 0.9}, "faults": {"slow_factor": 6, "slow_locale": 1},
		"phases": [{"name": "load", "mix": {"insert": 1}, "ops_per_task": 10000},
			{"name": "run", "mix": {"insert": 2, "get": 7, "remove": 1, "bulk": 0.02}, "ops_per_task": 20000, "reclaim_every": 512},
			{"name": "churn", "mix": {"insert": 3, "get": 5, "remove": 2}, "ops_per_task": 5000, "rounds": 2, "churn": true}]}`))
	f.Add([]byte(`{"structure": "queue", "phases": [{"name": "run", "mix": {"enqueue": 1, "remove": 1}, "seconds": 0.5}]}`))
	f.Add([]byte(`{"structure": "skiplist", "dist": {"kind": "zipfian"}, "faults": {"events": [{"phase": 0, "scales": [1, 2]}]}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`))
	f.Add([]byte(`{"structure": "stack", "faults": {"events": []}, "phases": [{"name": "run", "mix": {"enqueue": 1}, "ops_per_task": 1}]}`))
	// One event with both triggers: the heal waits for 100 ops and 2.5ms.
	f.Add([]byte(`{"structure": "hashmap", "faults": {"events": [{"phase": 0, "sever": [1, 2]}, {"phase": 1, "after_ops": 100, "after_ms": 2.5, "heal": [2, 1]}]},
		"phases": [{"name": "load", "mix": {"insert": 1}, "ops_per_task": 10}, {"name": "run", "mix": {"get": 1}, "ops_per_task": 10}]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		in := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(in, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSpec(in)
		if err != nil {
			return
		}
		s := loaded.WithDefaults()
		if s.Validate() != nil {
			return
		}
		back, err := LoadSpec(writeSpecFile(t, s))
		if err != nil {
			t.Fatalf("written spec does not load: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip drifted:\n got %#v\nwant %#v", back, s)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("reloaded spec rejected: %v", err)
		}
	})
}
