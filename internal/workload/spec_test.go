package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	s.Faults = Faults{Scales: []float64{1, 4}}
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
		!slices.Equal(back.Faults.Scales, s.Faults.Scales) ||
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
			Scales:     []float64{1, 1, 1, 4},
			Crashes:    []CrashSpec{{Locale: 3, Phase: 1, AfterOps: 250}},
			Partitions: []PartitionSpec{{A: 1, B: 2, Phase: 1, AtOps: 50, HealPhase: 2}},
			Retry:      &RetrySpec{DeadlineMS: 500, Capacity: 1024},
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
	failover := func(s *Spec) { s.Faults.Crashes[0].Failover = true }
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

// The fault plan's validation surface: every malformed crash or
// partition is rejected with a message naming the offending knob, and
// the legal shapes (boundary failover, mid-phase crash outside churn,
// partitions between live locales) pass.
func TestValidateFaultPlan(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"crash locale zero", func(s *Spec) {
			s.Faults.Crashes = []CrashSpec{{Locale: 0, Phase: 0}}
		}, "cannot crash"},
		{"crash locale out of range", func(s *Spec) {
			s.Faults.Crashes = []CrashSpec{{Locale: 99, Phase: 0}}
		}, "out of range"},
		{"crash phase out of range", func(s *Spec) {
			s.Faults.Crashes = []CrashSpec{{Locale: 1, Phase: 7}}
		}, "phase 7 out of range"},
		{"negative after_ops", func(s *Spec) {
			s.Faults.Crashes = []CrashSpec{{Locale: 1, Phase: 0, AfterOps: -5}}
		}, "after_ops"},
		{"mid-phase crash in churn", func(s *Spec) {
			s.Phases[1].Churn = true
			s.Phases[1].Rounds = 2
			s.Faults.Crashes = []CrashSpec{{Locale: 1, Phase: 1, AfterOps: 10}}
		}, "churn"},
		{"failover on skiplist", func(s *Spec) {
			s.Structure = StructureSkiplist
			s.Phases = []Phase{{Name: "run", Mix: Mix{Insert: 1}, OpsPerTask: 10}}
			s.Faults.Crashes = []CrashSpec{{Locale: 1, Phase: 0, Failover: true}}
		}, "hashmap, queue and stack"},
		{"partition out of range", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 0, B: 64}}
		}, "out of range"},
		{"partition self-pair", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 2, B: 2}}
		}, "itself"},
		{"partition phase out of range", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, Phase: 9}}
		}, "phase 9 out of range"},
		{"partition negative at_ops", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, AtOps: -1}}
		}, "at_ops"},
		{"mid-phase sever in churn", func(s *Spec) {
			s.Phases[1].Churn = true
			s.Phases[1].Rounds = 2
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, Phase: 1, AtOps: 10}}
		}, "churn"},
		{"heal before sever", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, Phase: 1, HealPhase: 1}}
		}, "not after its sever"},
		{"heal phase out of range", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, Phase: 0, HealPhase: 9}}
		}, "heal_phase 9 out of range"},
		{"both heal clocks", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, Phase: 0, HealPhase: 1, HealAfterMS: 5}}
		}, "one heal clock"},
		{"negative heal_after_ms", func(s *Spec) {
			s.Faults.Partitions = []PartitionSpec{{A: 1, B: 2, HealAfterMS: -1}}
		}, "heal_after_ms"},
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
			if err == nil {
				t.Fatalf("mutation %q accepted", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}

	// The legal shapes pass: a boundary failover crash, a mid-phase
	// crash in a non-churn phase, and a partition lifecycle — boundary
	// sever healed at a later phase boundary, mid-phase sever healed on
	// the wall clock, a pair that never heals — with a tuned retry
	// plane.
	ok := validSpec()
	ok.Faults = Faults{
		Crashes: []CrashSpec{{Locale: 1, Phase: 1, Failover: true}, {Locale: 2, Phase: 0, AfterOps: 5}},
		Partitions: []PartitionSpec{
			{A: 1, B: 3, Phase: 0, HealPhase: 1},
			{A: 0, B: 2, Phase: 0, AtOps: 5, HealAfterMS: 2},
			{A: 2, B: 3, Phase: 1},
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
		q.Faults.Crashes = []CrashSpec{{Locale: 1, Phase: 0, Failover: true}}
		if err := q.Validate(); err != nil {
			t.Fatalf("failover on %s rejected: %v", st, err)
		}
	}
}

// The fault plan survives the JSON round trip exactly, and a spec with
// no faults serializes without the keys at all.
func TestFaultPlanJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Faults = Faults{
		Crashes:    []CrashSpec{{Locale: 2, Phase: 1, AfterOps: 100, Failover: true}},
		Partitions: []PartitionSpec{{A: 1, B: 3, Phase: 1, AtOps: 25, HealAfterMS: 2.5}},
		Retry:      &RetrySpec{DeadlineMS: 500, Capacity: 1024},
	}
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
	for _, key := range []string{"\"crashes\"", "\"partitions\"", "\"retry\""} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("fault-free spec serialized %s:\n%s", key, buf.String())
		}
	}

	// A typo'd crash knob fails loudly (strict nested parsing).
	bad := filepath.Join(t.TempDir(), "typo.json")
	raw := `{"structure": "hashmap", "faults": {"crashes": [{"lcoale": 1}]}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`
	if err := os.WriteFile(bad, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(bad); err == nil {
		t.Fatal("unknown crash field accepted")
	}
}

func TestFaultsPerturbation(t *testing.T) {
	p := Faults{Scales: []float64{1, 9, 0}}.perturbation()
	if p.ScaleFor(1) != 9 || p.ScaleFor(0) != 1 || p.ScaleFor(2) != 1 || p.ScaleFor(3) != 1 {
		t.Fatalf("scales not honoured: %+v", p)
	}
	if (Faults{}).perturbation().Enabled() {
		t.Fatal("empty fault plan must be disabled")
	}
	// Partitions are schedule-driven now: the boot perturbation must NOT
	// pre-sever the pair — the engine severs it at its scheduled phase.
	p = Faults{Partitions: []PartitionSpec{{A: 1, B: 3, Phase: 1}}}.perturbation()
	if p.Enabled() {
		t.Fatal("scheduled partitions must not lower into the boot perturbation")
	}
	if !p.Reachable(1, 3) || !p.Reachable(3, 1) {
		t.Fatal("pair refused before its scheduled sever")
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
	faulted.Faults = Faults{
		Crashes:    []CrashSpec{{Locale: 2, Phase: 1, AfterOps: 100, Failover: true}},
		Partitions: []PartitionSpec{{A: 1, B: 3, Phase: 1, AtOps: 25, HealAfterMS: 2.5}},
		Retry:      &RetrySpec{DeadlineMS: 500, Capacity: 1024},
	}
	composed := goldenSpec()
	composed.Combine.Enabled = true
	composed.Rebalance.Enabled = true
	composed.Faults.Crashes[0].Failover = true
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
	f.Add([]byte(`{"structure": "skiplist", "dist": {"kind": "zipfian"}, "faults": {"scales": [1, 2]}, "phases": [{"name": "run", "mix": {"get": 1}, "ops_per_task": 1}]}`))
	f.Add([]byte(`{"structure": "stack", "faults": {"crashes": []}, "phases": [{"name": "run", "mix": {"enqueue": 1}, "ops_per_task": 1}]}`))

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
