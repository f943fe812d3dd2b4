package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"gopgas/internal/comm"
)

// Structure names a scenario target.
type Structure string

const (
	StructureHashmap  Structure = "hashmap"  // hashmap.Map
	StructureQueue    Structure = "queue"    // queue.Sharded
	StructureStack    Structure = "stack"    // stack.Sharded
	StructureSkiplist Structure = "skiplist" // skiplist.List (single home)
)

// Structures lists every scenario target, for CLIs and sweeps.
func Structures() []Structure {
	return []Structure{StructureHashmap, StructureQueue, StructureStack, StructureSkiplist}
}

// DistKind selects a key distribution.
type DistKind string

const (
	// DistUniform draws keys uniformly from the keyspace.
	DistUniform DistKind = "uniform"
	// DistZipfian draws ranks from a Zipfian distribution with skew
	// Theta (YCSB's default regime; rank r is drawn with probability
	// ∝ 1/(r+1)^Theta) and uses the rank as the key, so key 0 is the
	// hottest.
	DistZipfian DistKind = "zipfian"
	// DistHotSet sends HotProb of the traffic to the first
	// HotFraction of the keyspace and spreads the rest uniformly.
	DistHotSet DistKind = "hotset"
)

// KeyDist is a declarative key distribution.
type KeyDist struct {
	Kind DistKind `json:"kind"`
	// Theta is the Zipfian skew, in (0, 1); 0 selects the YCSB
	// default 0.99. Only meaningful for DistZipfian.
	Theta float64 `json:"theta,omitempty"`
	// HotFraction is the fraction of the keyspace that is hot, in
	// (0, 1); 0 selects 0.1. Only meaningful for DistHotSet.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// HotProb is the probability an op targets the hot set, in
	// (0, 1]; 0 selects 0.9. Only meaningful for DistHotSet.
	HotProb float64 `json:"hot_prob,omitempty"`
}

// Mix is the op-kind weighting of a phase. Weights are relative (they
// need not sum to 1); a zero weight disables the kind. Which kinds a
// structure supports is the Driver's contract — Validate rejects a
// mix that weights an unsupported kind.
type Mix struct {
	Insert  float64 `json:"insert,omitempty"`  // map/skiplist keyed insert
	Get     float64 `json:"get,omitempty"`     // map/skiplist keyed lookup
	Remove  float64 `json:"remove,omitempty"`  // keyed remove, or dequeue/pop
	Enqueue float64 `json:"enqueue,omitempty"` // queue enqueue / stack push
	Steal   float64 `json:"steal,omitempty"`   // TryDequeueAny / TryPopAny
	Bulk    float64 `json:"bulk,omitempty"`    // bulk insert/enqueue/push toward a drawn owner
}

func (m Mix) weights() [numOps]float64 {
	return [numOps]float64{
		OpInsert: m.Insert, OpGet: m.Get, OpRemove: m.Remove,
		OpEnqueue: m.Enqueue, OpSteal: m.Steal, OpBulk: m.Bulk,
	}
}

// total returns the sum of all weights.
func (m Mix) total() float64 {
	var t float64
	for _, w := range m.weights() {
		t += w
	}
	return t
}

// Phase is one stage of a scenario (the classic shape is load → run →
// churn). Exactly one of OpsPerTask (closed-loop, deterministic) or
// Seconds (time-based, for soaks) must be set.
type Phase struct {
	Name string `json:"name"`
	Mix  Mix    `json:"mix"`

	// OpsPerTask is the closed-loop op budget of each task. A
	// closed-loop phase replays identically under one seed.
	OpsPerTask int `json:"ops_per_task,omitempty"`

	// Seconds runs each task until the deadline instead — the soak
	// arrival model. Op counts then depend on wall time.
	Seconds float64 `json:"seconds,omitempty"`

	// TargetRate, when positive, paces each task at this many ops/sec
	// (open-loop arrival): op i of a task is due i/TargetRate seconds
	// after its start, a task sleeps to a slot that is ahead and
	// catches up on ones that have passed, and latency is timed from
	// the slot. 0 is closed-loop (as fast as the simulated system
	// allows).
	TargetRate float64 `json:"target_rate,omitempty"`

	// Rounds repeats the phase body; 0 means 1.
	Rounds int `json:"rounds,omitempty"`

	// Churn destroys and recreates the structure between rounds,
	// exercising Destroy/registry recycling under the scenario's mix.
	Churn bool `json:"churn,omitempty"`

	// BulkSize is the batch length of Bulk ops; 0 means 64.
	BulkSize int `json:"bulk_size,omitempty"`

	// ReclaimEvery makes each task attempt an epoch reclaim every N
	// ops; 0 never reclaims inside the phase (deferred nodes are
	// cleared between phases). Reclaim elections race across locales,
	// so a phase that wants counter-exact replays leaves this 0.
	ReclaimEvery int `json:"reclaim_every,omitempty"`
}

// rounds returns the effective round count.
func (p Phase) rounds() int {
	if p.Rounds < 1 {
		return 1
	}
	return p.Rounds
}

// bulkSize returns the effective bulk batch length.
func (p Phase) bulkSize() int {
	if p.BulkSize < 1 {
		return 64
	}
	return p.BulkSize
}

// Faults is the scenario's fault-injection plan: a timeline of the
// faults /api/fault posts, and the retry plane's knobs. Latency scales
// move delays only, counters staying exact; crashes and partitions move
// only the OpsLost ledger and the retry plane's parked books.
type Faults struct {
	// Events is the fault timeline. It lands sorted stably by phase, so
	// one phase's events land in list order, and each waits for the one
	// before it. An event is due once its phase has been reached, the
	// phase's tasks have issued at least AfterOps ops system-wide, and
	// AfterMS has passed since the later of the phase's start and the
	// landing of the event before it. An event the phase leaves pending
	// lands at the next phase's first boundary step, ahead of that
	// phase's own events; what the last phase leaves pending never lands,
	// and everything parked behind a pair still severed then expires at
	// the final drain. So a heal listed after a mid-phase sever with
	// after_ms 50 heals the pair 50ms after it went down.
	Events []Event `json:"events,omitempty"`

	// Retry tunes the partition retry plane; nil runs the documented
	// defaults. Disabled reverts partitions to fail-stop accounting
	// (refused ops drain to the lost ledger — the ablation baseline).
	Retry *RetrySpec `json:"retry,omitempty"`
}

// Event is one scheduled fault: a Fault in /api/fault's form, flat in
// the event's JSON, and its trigger — {"phase":1,"after_ops":3000,
// "crash":{"locale":5,"failover":true}}, {"phase":1,"after_ms":50,
// "heal":[1,2]} or {"phase":0,"scales":[1,1,1,4]}. A trigger of 0 is the
// phase's boundary step, which replays exactly; a positive one lands
// mid-phase from the round's clock, at a racing op count or wall time,
// trading bit-identical replay for mid-storm realism. A crash lands
// once: later ops toward the dead locale are refused into the OpsLost
// ledger, its tasks issue nothing further (their unissued closed-loop
// budget counts lost), and with failover (hashmap, queue and stack) the
// survivors adopt its shards and its stranded epoch tokens are
// force-retired; without it every later epoch advance fails on a pin
// that never releases. A severed pair's ops park in the retry plane
// (see Retry) until a heal redelivers them, or they expire.
type Event struct {
	Phase    int     `json:"phase"`
	AfterOps int64   `json:"after_ops,omitempty"`
	AfterMS  float64 `json:"after_ms,omitempty"`
	Fault
}

// RetrySpec tunes the partition retry plane (comm.ParkConfig).
type RetrySpec struct {
	// Disabled turns the retry plane off: partition refusals drain to
	// the lost-ops ledger exactly like crash refusals.
	Disabled bool `json:"disabled,omitempty"`
	// DeadlineMS bounds how long an op may stay parked; 0 means the
	// comm default (2s).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// Capacity bounds each per-destination parked-op buffer; 0 means
	// the comm default (4096). Overflow parks-then-expires.
	Capacity int `json:"capacity,omitempty"`
}

// parkConfig lowers the retry knob to the comm layer.
func (f Faults) parkConfig() comm.ParkConfig {
	var p comm.ParkConfig
	if r := f.Retry; r != nil {
		p.Disable = r.Disabled
		p.DeadlineNS = int64(r.DeadlineMS * 1e6)
		p.Capacity = r.Capacity
	}
	return p
}

// hasFailover reports whether any scheduled crash requests failover
// (which puts the hashmap driver's writes on the fire-and-forget path,
// the one serialized against the adoption's migrations): a live crash
// may ask for failover only on such a run.
func (s Spec) hasFailover() bool {
	return slices.ContainsFunc(s.Faults.Events, func(e Event) bool { return e.Crash != nil && e.Crash.Failover })
}

// latency is the run's latency profile: LatencyScale × the calibrated
// default, where scale 0 is the zero profile (no injected delay).
func (s Spec) latency() comm.LatencyProfile {
	return comm.DefaultProfile().Scale(s.LatencyScale)
}

// CacheSpec configures the hot-key read replication cache
// (hashmap.Map.Cached). When enabled, every Get is served through a
// per-locale replica and every mutation — synchronous, or applied on
// its bucket's owner — ends in a broadcast invalidation; the run's comm
// evidence gains the CacheHits/CacheMiss/CacheInval counters.
// Composable with combine, rebalance and crash failover.
type CacheSpec struct {
	// Enabled turns the cache on. Only the hashmap structure supports
	// it; Validate rejects other structures.
	Enabled bool `json:"enabled"`
	// Slots is the per-locale replica size (rounded up to a power of
	// two); 0 means 256.
	Slots int `json:"slots,omitempty"`
}

// CombineSpec configures write absorption: the aggregator's in-flight
// merge policy (comm.AggConfig.Combine) plus the hashmap driver's
// routing of Insert/Remove through the combinable UpsertAgg/RemoveAgg
// path, which also drains writes through the owner's flat combiner.
// The run's comm evidence gains AggOpsEnq/AggCombined and the CAS
// attempt/retry counters quantify the owner-side relief.
type CombineSpec struct {
	// Enabled turns write absorption on. Only the hashmap structure
	// supports it; Validate rejects the others.
	Enabled bool `json:"enabled"`
}

// RebalanceSpec configures dynamic hot-shard rebalancing: the driver
// issues hashmap writes fire-and-forget toward each bucket's live
// owner and runs a rebalance.Controller beside the workers, migrating
// the hottest buckets off any locale whose windowed inbound traffic
// exceeds the imbalance ratio. The run's comm evidence gains the
// MigAdopted/MigRetired/MigBytes/MigReroutes counters.
type RebalanceSpec struct {
	// Enabled turns rebalancing on. Only the hashmap structure supports
	// it; Validate rejects the others. Composable with combine (the
	// writes stay absorbable in flight) and with the cache.
	Enabled bool `json:"enabled"`
	// Ratio is the imbalance trigger (busiest inbound column vs the
	// per-locale mean, per window); must be > 1 when set, 0 means 2.
	Ratio float64 `json:"ratio,omitempty"`
	// IntervalMS is the controller's window length in milliseconds;
	// 0 means 2.
	IntervalMS int `json:"interval_ms,omitempty"`
	// MaxMoves caps migrations per window; 0 means 4.
	MaxMoves int `json:"max_moves,omitempty"`
	// Cooldown is how many windows a source rests after migrating;
	// 0 means 1.
	Cooldown int `json:"cooldown,omitempty"`
}

// TraceSpec configures the event-tracing plane (internal/trace): when
// enabled, the run records begin/end spans for dispatch, flush,
// combine, epoch and migration lifecycles into per-locale lock-free
// rings, and the report gains a trace section (span books, drops).
// Counters and digests are never affected — tracing is observation
// only.
type TraceSpec struct {
	// Enabled turns the recorder on.
	Enabled bool `json:"enabled"`
	// SampleRate records 1 in N high-frequency events (dispatch, flush,
	// combine, deferral); control-plane events (epoch advances,
	// migrations, reroutes) always record. 0 means 64; 1 records
	// everything.
	SampleRate int `json:"sample_rate,omitempty"`
	// BufferSize is the per-locale ring capacity in events, rounded up
	// to a power of two; 0 means 16384.
	BufferSize int `json:"buffer_size,omitempty"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Name           string    `json:"name"`
	Structure      Structure `json:"structure"`
	Locales        int       `json:"locales"`
	TasksPerLocale int       `json:"tasks_per_locale"`
	// Backend is the network-atomic regime, "ugni" or "none".
	Backend string `json:"backend"`
	// Seed drives every task's op/key stream. 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Keyspace is the number of distinct keys; 0 means 1<<16.
	Keyspace uint64 `json:"keyspace,omitempty"`
	// Buckets sizes the hashmap; 0 means 4 per locale.
	Buckets int `json:"buckets,omitempty"`
	// Home is the owning locale of single-home structures (skiplist).
	Home int     `json:"home,omitempty"`
	Dist KeyDist `json:"dist"`
	// LatencyScale scales the calibrated comm.DefaultProfile: 1 is the
	// calibrated network, 0 disables injected latency entirely (fast
	// and exact — the unit-test regime).
	LatencyScale float64 `json:"latency_scale,omitempty"`
	Faults       Faults  `json:"faults,omitempty"`
	// Cache enables the hashmap's read replication layer; nil (or
	// Enabled false) runs the plain owner-computed path.
	Cache *CacheSpec `json:"cache,omitempty"`
	// Combine enables write absorption on the hashmap's write path;
	// nil (or Enabled false) runs writes one-for-one.
	Combine *CombineSpec `json:"combine,omitempty"`
	// Rebalance enables dynamic hot-shard rebalancing on the hashmap;
	// nil (or Enabled false) keeps ownership static.
	Rebalance *RebalanceSpec `json:"rebalance,omitempty"`
	// Trace enables the event-tracing plane; nil (or Enabled false)
	// keeps every instrumented hot path at its nil-check cost.
	Trace  *TraceSpec `json:"trace,omitempty"`
	Phases []Phase    `json:"phases"`
}

// WithDefaults returns a copy of s with zero-valued knobs replaced by
// their documented defaults. Run applies it; callers only need it to
// inspect the effective scenario.
func (s Spec) WithDefaults() Spec {
	if s.Name == "" {
		s.Name = string(s.Structure)
	}
	if s.Locales == 0 {
		s.Locales = 4
	}
	if s.TasksPerLocale == 0 {
		s.TasksPerLocale = 1
	}
	if s.Backend == "" {
		s.Backend = "none"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Keyspace == 0 {
		s.Keyspace = 1 << 16
	}
	if s.Buckets == 0 {
		s.Buckets = 4 * s.Locales
	}
	if s.Dist.Kind == "" {
		s.Dist.Kind = DistUniform
	}
	if s.Dist.Kind == DistZipfian && s.Dist.Theta == 0 {
		s.Dist.Theta = 0.99
	}
	if s.Dist.Kind == DistHotSet {
		if s.Dist.HotFraction == 0 {
			s.Dist.HotFraction = 0.1
		}
		if s.Dist.HotProb == 0 {
			s.Dist.HotProb = 0.9
		}
	}
	if s.Cache != nil {
		cp := *s.Cache // don't mutate the caller's spec through the pointer
		if cp.Enabled && cp.Slots == 0 {
			cp.Slots = 256
		}
		s.Cache = &cp
	}
	if s.Combine != nil {
		cp := *s.Combine
		s.Combine = &cp
	}
	if s.Rebalance != nil {
		cp := *s.Rebalance
		if cp.Enabled {
			if cp.Ratio == 0 {
				cp.Ratio = 2
			}
			if cp.IntervalMS == 0 {
				cp.IntervalMS = 2
			}
			if cp.MaxMoves == 0 {
				cp.MaxMoves = 4
			}
			if cp.Cooldown == 0 {
				cp.Cooldown = 1
			}
		}
		s.Rebalance = &cp
	}
	if s.Faults.Retry != nil {
		cp := *s.Faults.Retry
		s.Faults.Retry = &cp
	}
	// An empty list is no list: WriteJSON omits it, so keep it nil and
	// the spec equals what its saved JSON loads back as.
	if len(s.Faults.Events) == 0 {
		s.Faults.Events = nil
	}
	if s.Trace != nil {
		cp := *s.Trace
		if cp.Enabled {
			if cp.SampleRate == 0 {
				cp.SampleRate = 64
			}
			if cp.BufferSize == 0 {
				cp.BufferSize = 16384
			}
		}
		s.Trace = &cp
	}
	return s
}

// Validate rejects malformed scenarios with a descriptive error. It
// expects defaults to have been applied (Run does both).
func (s Spec) Validate() error {
	drv, err := NewDriver(s.Structure)
	if err != nil {
		return err
	}
	if s.Locales < 1 {
		return fmt.Errorf("workload: locales must be >= 1, got %d", s.Locales)
	}
	if s.TasksPerLocale < 1 {
		return fmt.Errorf("workload: tasks_per_locale must be >= 1, got %d", s.TasksPerLocale)
	}
	if _, err := comm.ParseBackend(s.Backend); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if s.Keyspace < 1 {
		return fmt.Errorf("workload: keyspace must be >= 1, got %d", s.Keyspace)
	}
	if s.Buckets < 1 {
		return fmt.Errorf("workload: buckets must be >= 1, got %d", s.Buckets)
	}
	if s.Home < 0 || s.Home >= s.Locales {
		return fmt.Errorf("workload: home %d out of range [0, %d)", s.Home, s.Locales)
	}
	if !(s.LatencyScale >= 0 && s.LatencyScale <= maxScale) {
		return fmt.Errorf("workload: latency_scale must be in [0, %g], got %v", float64(maxScale), s.LatencyScale)
	}
	switch s.Dist.Kind {
	case DistUniform:
	case DistZipfian:
		if s.Dist.Theta <= 0 || s.Dist.Theta >= 1 {
			return fmt.Errorf("workload: zipfian theta must be in (0, 1), got %v", s.Dist.Theta)
		}
	case DistHotSet:
		if s.Dist.HotFraction <= 0 || s.Dist.HotFraction >= 1 {
			return fmt.Errorf("workload: hot_fraction must be in (0, 1), got %v", s.Dist.HotFraction)
		}
		if s.Dist.HotProb <= 0 || s.Dist.HotProb > 1 {
			return fmt.Errorf("workload: hot_prob must be in (0, 1], got %v", s.Dist.HotProb)
		}
	default:
		return fmt.Errorf("workload: unknown key distribution %q", s.Dist.Kind)
	}
	if ca := s.Cache; ca != nil {
		if ca.Enabled && s.Structure != StructureHashmap {
			return fmt.Errorf("workload: cache is only supported by the hashmap structure, not %q", s.Structure)
		}
		if ca.Slots < 0 {
			return fmt.Errorf("workload: cache slots must be >= 0, got %d", ca.Slots)
		}
	}
	if co := s.Combine; co != nil && co.Enabled && s.Structure != StructureHashmap {
		return fmt.Errorf("workload: combine is only supported by the hashmap structure, not %q", s.Structure)
	}
	if rb := s.Rebalance; rb != nil && rb.Enabled {
		if s.Structure != StructureHashmap {
			return fmt.Errorf("workload: rebalance is only supported by the hashmap structure, not %q", s.Structure)
		}
		if rb.Ratio <= 1 {
			return fmt.Errorf("workload: rebalance ratio must be > 1, got %v", rb.Ratio)
		}
		if rb.IntervalMS < 0 || rb.MaxMoves < 0 || rb.Cooldown < 0 {
			return fmt.Errorf("workload: rebalance knobs must be >= 0")
		}
	}
	if tr := s.Trace; tr != nil {
		if tr.SampleRate < 0 {
			return fmt.Errorf("workload: trace sample_rate must be >= 0, got %d", tr.SampleRate)
		}
		if tr.BufferSize < 0 {
			return fmt.Errorf("workload: trace buffer_size must be >= 0, got %d", tr.BufferSize)
		}
		if tr.BufferSize > 1<<24 {
			return fmt.Errorf("workload: trace buffer_size must be <= %d, got %d", 1<<24, tr.BufferSize)
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: scenario has no phases")
	}
	for i, p := range s.Phases {
		where := fmt.Sprintf("phase %d (%q)", i, p.Name)
		if (p.OpsPerTask > 0) == (p.Seconds > 0) {
			return fmt.Errorf("workload: %s must set exactly one of ops_per_task and seconds", where)
		}
		if p.OpsPerTask < 0 || p.Seconds < 0 || p.TargetRate < 0 || p.Rounds < 0 || p.BulkSize < 0 || p.ReclaimEvery < 0 {
			return fmt.Errorf("workload: %s has a negative knob", where)
		}
		for k, w := range p.Mix.weights() {
			if w < 0 {
				return fmt.Errorf("workload: %s weights %s negatively", where, OpKind(k))
			}
			if w > 0 && !drv.Supports(OpKind(k)) {
				return fmt.Errorf("workload: %s weights %s, which %s does not support", where, OpKind(k), s.Structure)
			}
		}
		if t := p.Mix.total(); !(t > 0) || math.IsInf(t, 1) {
			return fmt.Errorf("workload: %s has an empty op mix or one that overflows: its weights sum to %v", where, t)
		}
	}
	for i, e := range s.Faults.Events {
		if err := s.checkEvent(e); err != nil {
			return fmt.Errorf("workload: event %d: %w", i, err)
		}
	}
	if err := s.dryRun(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if r := s.Faults.Retry; r != nil {
		if r.DeadlineMS < 0 {
			return fmt.Errorf("workload: retry deadline_ms must be >= 0, got %v", r.DeadlineMS)
		}
		if r.Capacity < 0 {
			return fmt.Errorf("workload: retry capacity must be >= 0, got %d", r.Capacity)
		}
		if r.Disabled && (r.DeadlineMS > 0 || r.Capacity > 0) {
			return fmt.Errorf("workload: retry is disabled but tunes the plane it turned off")
		}
	}
	return nil
}

// checkEvent refuses an event on its own: a phase out of range, a
// negative trigger, a mid-phase trigger in a churn phase, a fault that
// is malformed or out of range, and failover on a structure that has
// none.
func (s Spec) checkEvent(e Event) error {
	if e.Phase < 0 || e.Phase >= len(s.Phases) {
		return fmt.Errorf("phase %d out of range [0, %d)", e.Phase, len(s.Phases))
	}
	if e.AfterOps < 0 || e.AfterMS < 0 {
		return fmt.Errorf("after_ops and after_ms must be >= 0, got %d and %v", e.AfterOps, e.AfterMS)
	}
	if (e.AfterOps > 0 || e.AfterMS > 0) && s.Phases[e.Phase].Churn {
		return fmt.Errorf("mid-phase in churn phase %d; a fault cannot race Destroy/Setup", e.Phase)
	}
	if err := e.wellFormed(); err != nil {
		return err
	}
	if err := e.check(s.Locales); err != nil {
		return err
	}
	if e.Crash != nil && e.Crash.Failover {
		switch s.Structure {
		case StructureHashmap, StructureQueue, StructureStack:
		default:
			return fmt.Errorf("crash failover is only supported by the hashmap, queue and stack structures, not %q", s.Structure)
		}
	}
	return nil
}

// dryRun walks the timeline in landing order and refuses what apply
// would: a heal of a pair no earlier event severed, and a second crash
// of one locale. Events land strictly in that order, so an event that
// lands finds every event before it landed, as here.
func (s Spec) dryRun() error {
	severed, dead := map[[2]int]bool{}, map[int]bool{}
	for _, e := range timeline(s.Faults.Events) {
		switch {
		case e.Sever != nil:
			severed[pairOf(e.Sever)] = true
		case e.Heal != nil:
			if !severed[pairOf(e.Heal)] {
				return fmt.Errorf("phase %d heals %v, a pair no event before it severs", e.Phase, e.Heal)
			}
			delete(severed, pairOf(e.Heal))
		case e.Crash != nil:
			if dead[e.Crash.Locale] {
				return fmt.Errorf("phase %d crashes locale %d a second time", e.Phase, e.Crash.Locale)
			}
			dead[e.Crash.Locale] = true
		}
	}
	return nil
}

// LoadSpec reads a Spec from a JSON file, rejecting unknown fields so
// a typo'd knob fails loudly instead of silently running the default.
func LoadSpec(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	var s Spec
	if err := decodeStrict(f, &s); err != nil {
		return Spec{}, fmt.Errorf("workload: parsing %s: %w", path, err)
	}
	return s, nil
}

// decodeStrict decodes one JSON value from r into v: every field known,
// and nothing after the value.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return errors.New("data after the value")
	}
	return nil
}

// WriteJSON writes the spec as indented JSON (the format LoadSpec
// reads back).
func (s Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
