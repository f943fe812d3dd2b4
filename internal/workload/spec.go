package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// Faults is the scenario's fault-injection plan. The latency half
// (scales, slow locale) lowers to a comm.Perturbation installed at
// boot: latency scales, counters exact. The liveness half — crashes and
// partitions, applied by the engine's schedule at their scheduled point
// — moves only the OpsLost ledger and the retry plane's parked books.
type Faults struct {
	// Scales is a per-locale latency multiplier plan; entries <= 0 mean
	// nominal. comm.SlowLocale builds the "slow locale" plan, in which
	// every delay touching one locale is scaled.
	Scales []float64 `json:"scales,omitempty"`

	// Crashes schedules fail-stop locale crashes (per-locale, at a
	// phase boundary or mid-phase op count), optionally with shard
	// failover and token force-retirement. The run's report gains an
	// availability verdict once a crash, scheduled or live, lands.
	Crashes []CrashSpec `json:"crashes,omitempty"`

	// Partitions schedules transient network partitions: unordered
	// locale pairs severed at a scheduled point and optionally healed
	// later. Both endpoints stay alive; execution-plane ops between
	// them park in the retry plane (see Retry) and redeliver on heal,
	// or expire. The run's report gains an availability verdict once a
	// sever, scheduled or live, lands.
	Partitions []PartitionSpec `json:"partitions,omitempty"`

	// Retry tunes the partition retry plane; nil runs the documented
	// defaults. Disabled reverts partitions to fail-stop accounting
	// (refused ops drain to the lost ledger — the ablation baseline).
	Retry *RetrySpec `json:"retry,omitempty"`
}

// CrashSpec schedules one fail-stop locale crash. After the crash,
// every operation whose destination is the dead locale is refused into
// the OpsLost ledger, the dead locale's tasks issue nothing further
// (their unissued closed-loop budget is also counted lost), and
// quiescence excludes it.
type CrashSpec struct {
	// Locale is the locale to kill. Locale 0 hosts the global epoch
	// word and the orchestrating main task, so valid crash locales are
	// [1, locales).
	Locale int `json:"locale"`
	// Phase is the phase index at whose start the crash applies.
	Phase int `json:"phase"`
	// AfterOps, when positive, applies the crash mid-phase instead:
	// once the phase's tasks have issued this many ops system-wide, the
	// round's clock kills the locale. Mid-phase crashes land at a racing
	// op count, so — like ReclaimEvery — they trade bit-identical
	// replay for mid-storm realism; phase-boundary crashes (AfterOps 0)
	// replay bit-identically.
	AfterOps int64 `json:"after_ops,omitempty"`
	// Failover recovers from the crash: the survivors adopt the dead
	// locale's shards through the epoch-coherent migration path and its
	// stranded epoch tokens are force-retired (hashmap only). Without
	// it the crash is left unrecovered — the wedged-reclamation regime
	// where every epoch advance fails on a pin that will never release.
	Failover bool `json:"failover,omitempty"`
}

// PartitionSpec schedules one transient partition of the unordered
// pair (a, b). The sever lands at the start of phase Phase — or, with
// AtOps > 0, mid-phase once the phase's tasks have issued that many
// ops system-wide (a racing op count, like mid-phase crashes). The
// heal, when scheduled, comes from exactly one of two clocks: at the
// start of phase HealPhase, or HealAfterMS of wall time after the
// sever. With neither set the pair stays severed to the end of the
// run, and everything still parked behind it expires at the final
// drain.
type PartitionSpec struct {
	A int `json:"a"`
	B int `json:"b"`
	// Phase is the phase index at whose start (or within which, with
	// AtOps) the sever applies.
	Phase int `json:"phase"`
	// AtOps, when positive, severs mid-phase at a system-wide issued-op
	// mark instead of the phase boundary.
	AtOps int64 `json:"at_ops,omitempty"`
	// HealPhase, when positive, heals the pair at the start of that
	// phase; it must come after Phase. (Phase 0 can never be a heal
	// point — nothing is severed before it starts.)
	HealPhase int `json:"heal_phase,omitempty"`
	// HealAfterMS, when positive, heals the pair this many wall-clock
	// milliseconds after the sever lands. Mutually exclusive with
	// HealPhase.
	HealAfterMS float64 `json:"heal_after_ms,omitempty"`
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
	return slices.ContainsFunc(s.Faults.Crashes, func(cr CrashSpec) bool { return cr.Failover })
}

// latency is the run's latency profile: LatencyScale × the calibrated
// default, where scale 0 is the zero profile (no injected delay).
func (s Spec) latency() comm.LatencyProfile {
	return comm.DefaultProfile().Scale(s.LatencyScale)
}

// perturbation lowers the fault plan's boot-time half to the comm
// layer: the latency scales. The liveness half — crashes, and now
// partitions too — is applied by the engine at its scheduled point,
// not here.
func (f Faults) perturbation() comm.Perturbation {
	return comm.Perturbation{Scales: f.Scales}
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
	if len(s.Faults.Scales) == 0 {
		s.Faults.Scales = nil
	}
	if len(s.Faults.Crashes) == 0 {
		s.Faults.Crashes = nil
	}
	if len(s.Faults.Partitions) == 0 {
		s.Faults.Partitions = nil
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
	if s.LatencyScale < 0 {
		return fmt.Errorf("workload: latency_scale must be >= 0, got %v", s.LatencyScale)
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
		if p.Mix.total() <= 0 {
			return fmt.Errorf("workload: %s has an empty op mix", where)
		}
	}
	for i, cr := range s.Faults.Crashes {
		if err := (Fault{Crash: &CrashFault{Locale: cr.Locale}}).check(s.Locales); err != nil {
			return fmt.Errorf("workload: crash %d %w", i, err)
		}
		if cr.Phase < 0 || cr.Phase >= len(s.Phases) {
			return fmt.Errorf("workload: crash %d phase %d out of range [0, %d)", i, cr.Phase, len(s.Phases))
		}
		if cr.AfterOps < 0 {
			return fmt.Errorf("workload: crash %d after_ops must be >= 0, got %d", i, cr.AfterOps)
		}
		if cr.AfterOps > 0 && s.Phases[cr.Phase].Churn {
			return fmt.Errorf("workload: crash %d is mid-phase (after_ops > 0) in churn phase %d; a crash cannot race Destroy/Setup", i, cr.Phase)
		}
		if cr.Failover {
			switch s.Structure {
			case StructureHashmap, StructureQueue, StructureStack:
			default:
				return fmt.Errorf("workload: crash failover is only supported by the hashmap, queue and stack structures, not %q", s.Structure)
			}
		}
	}
	for i, pr := range s.Faults.Partitions {
		if err := (Fault{Sever: []int{pr.A, pr.B}}).check(s.Locales); err != nil {
			return fmt.Errorf("workload: partition %d %w", i, err)
		}
		if pr.Phase < 0 || pr.Phase >= len(s.Phases) {
			return fmt.Errorf("workload: partition %d phase %d out of range [0, %d)", i, pr.Phase, len(s.Phases))
		}
		if pr.AtOps < 0 {
			return fmt.Errorf("workload: partition %d at_ops must be >= 0, got %d", i, pr.AtOps)
		}
		if pr.AtOps > 0 && s.Phases[pr.Phase].Churn {
			return fmt.Errorf("workload: partition %d is mid-phase (at_ops > 0) in churn phase %d; a sever cannot race Destroy/Setup", i, pr.Phase)
		}
		if pr.HealAfterMS < 0 {
			return fmt.Errorf("workload: partition %d heal_after_ms must be >= 0, got %v", i, pr.HealAfterMS)
		}
		if pr.HealPhase != 0 {
			if pr.HealAfterMS > 0 {
				return fmt.Errorf("workload: partition %d sets both heal_phase and heal_after_ms; pick one heal clock", i)
			}
			if pr.HealPhase <= pr.Phase {
				return fmt.Errorf("workload: partition %d heals at phase %d, not after its sever at phase %d", i, pr.HealPhase, pr.Phase)
			}
			if pr.HealPhase >= len(s.Phases) {
				return fmt.Errorf("workload: partition %d heal_phase %d out of range [0, %d)", i, pr.HealPhase, len(s.Phases))
			}
		}
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
