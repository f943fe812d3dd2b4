package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"gopgas/internal/comm"
	"gopgas/internal/trace"
)

// Report is the machine-readable record of one scenario run: the spec
// that produced it (with defaults applied), one entry per phase, and
// the end-of-run verdicts Invariants judges. It serializes as JSON —
// the artifact CI uploads from every loadgen smoke.
type Report struct {
	Spec   Spec          `json:"spec"`
	Phases []PhaseReport `json:"phases"`

	TotalOps     int64   `json:"total_ops"`
	TotalSeconds float64 `json:"total_seconds"`

	Heap  HeapReport  `json:"heap"`
	Epoch EpochReport `json:"epoch"`

	// Availability is present when a liveness fault landed, scheduled
	// or live: the lost-ops ledger, the failover work performed, the
	// recovery cost and the partition books.
	Availability *AvailabilityReport `json:"availability,omitempty"`

	// Trace is present when the spec enabled tracing: the recorder's
	// end-of-run accounting plus per-kind span counts.
	Trace *TraceReport `json:"trace,omitempty"`

	// TraceEvents holds the drained events for exporters (loadgen
	// -trace-out); they are bulky and reproducible from the trace plane,
	// so they stay out of the JSON report.
	TraceEvents []trace.Event `json:"-"`
}

// TraceReport is the tracing plane's run verdict. Spans counts
// recording decisions per kind from the recorder's books — begin/end
// bookkeeping that is exact even when the ring dropped events — so
// Balanced must hold on every quiesced run regardless of buffer
// pressure. Dropped is the TraceDropped counter: events the ring
// rejected under wrap-around rather than block a hot path.
type TraceReport struct {
	SampleRate int              `json:"sample_rate"`
	Events     int              `json:"events"`
	Dropped    int64            `json:"dropped"`
	Spans      map[string]int64 `json:"spans,omitempty"`
	Instants   map[string]int64 `json:"instants,omitempty"`
	Balanced   bool             `json:"balanced"`
}

// AvailabilityReport is the fault plan's verdict. Recovery succeeded
// when Recovered holds and the run's Heap.Safe() and Epoch.Balanced()
// verdicts still pass — a crash may lose workload ops (the ledger
// counts them) but never a deferred deletion or heap safety. The
// partition half settles through the retry-plane books instead:
// RetryBalanced must hold on every drained run.
type AvailabilityReport struct {
	// Crashes is how many crashes landed, scheduled or live; Wedged how
	// many of them asked for no failover, the deliberately unrecovered
	// arm.
	Crashes int `json:"crashes"`
	Wedged  int `json:"wedged,omitempty"`
	// OpsLost is the end-of-run lost-ops ledger: operations refused
	// toward dead destinations, plus the closed-loop budget the dead
	// locales' tasks never issued. (Partition refusals park instead —
	// they only land here when the retry plane is disabled.)
	OpsLost int64 `json:"ops_lost"`
	// ShardsAdopted / BytesAdopted / TokensForceRetired total the
	// failover work across all crashes.
	ShardsAdopted      int64 `json:"shards_adopted"`
	BytesAdopted       int64 `json:"bytes_adopted"`
	TokensForceRetired int64 `json:"tokens_force_retired"`
	// RecoverNS is the wall time spent adopting shards and
	// force-retiring tokens, summed across crashes (the time-to-recover
	// metric; 0 when no crash asked for failover).
	RecoverNS int64 `json:"recover_ns"`
	// Partitions / Heals count the severs and heals that landed,
	// scheduled or live; TimeToHealNS sums severed-to-healed wall time
	// across the healed pairs (the time-to-heal metric).
	Partitions   int   `json:"partitions,omitempty"`
	Heals        int   `json:"heals,omitempty"`
	TimeToHealNS int64 `json:"time_to_heal_ns,omitempty"`
	// The retry-plane settlement books: every op parked behind a
	// severed pair settles exactly once, redelivered on heal or
	// expired.
	OpsParked      int64 `json:"ops_parked,omitempty"`
	OpsRedelivered int64 `json:"ops_redelivered,omitempty"`
	OpsExpired     int64 `json:"ops_expired,omitempty"`
	// Recovered reports that every applied crash asked for and
	// completed failover. A no-failover crash leaves it false — the
	// deliberately wedged arm.
	Recovered bool `json:"recovered"`
}

// RetryBalanced reports the retry plane's settlement invariant: after
// the run's final drain, every parked op was redelivered or expired.
func (a AvailabilityReport) RetryBalanced() bool {
	return a.OpsParked == a.OpsRedelivered+a.OpsExpired
}

// EpochReport is the end-of-run reclamation verdict, captured after
// the final clear: every deferred deletion must have been physically
// reclaimed, or the epoch machinery leaked. AdvanceFail counts won
// elections blocked by a pinned token — the wedge signature: a crash
// without force-retirement strands pins, and every election after the
// first advance fails on them.
type EpochReport struct {
	Deferred    int64 `json:"deferred"`
	Reclaimed   int64 `json:"reclaimed"`
	Advances    int64 `json:"advances"`
	AdvanceFail int64 `json:"advance_fail"`
}

// Balanced reports whether every deferred object was reclaimed.
func (e EpochReport) Balanced() bool { return e.Reclaimed == e.Deferred }

// PhaseReport is the evidence one phase produced. Throughput and the
// latency percentiles are wall-clock (they include the injected
// simulated latencies, so they reflect simulated op cost); Ops,
// OpsByKind, Comm, Matrix and Digest are exact and — for closed-loop
// contention-free phases — identical across runs of one seed.
type PhaseReport struct {
	Name   string `json:"name"`
	Rounds int    `json:"rounds"`

	// Ops counts driver calls (a Bulk batch counts once; its keys are
	// all folded into Digest).
	Ops       int64            `json:"ops"`
	OpsByKind map[string]int64 `json:"ops_by_kind"`

	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_ops_per_sec"`

	// ModelledNS is what the latency model charged during the phase at
	// nominal prices (pgas.System.DelayTotals, summed over tasks),
	// PerturbNS what latency scales added to those charges (negative
	// below a scale of 1), and DelayWaitNS the wall time tasks waited for
	// both. Seconds × tasks − DelayWaitNS is the runtime's own cost. All
	// are zero, and omitted, under the zero latency profile.
	ModelledNS  int64 `json:"modelled_ns,omitempty"`
	PerturbNS   int64 `json:"perturb_ns,omitempty"`
	DelayWaitNS int64 `json:"delay_wait_ns,omitempty"`

	// unpacedNS is what the workers' delay accounts waited beyond their
	// charges: the overshoot their clamps dropped plus the credit they
	// ended with (pgas.Ctx.DelayAccount). When the workers' accounts are
	// the only ones charged, DelayWaitNS − unpacedNS == ModelledNS +
	// PerturbNS.
	unpacedNS int64

	// Latency digests the wall latency histogram (HDR-style log
	// buckets, <=~3% quantization). A closed loop times one op in 16,
	// weighted by its segment: count and mean are exact, the max is the
	// largest timed op. In a paced phase (TargetRate) it is response
	// time, timed from each op's intended slot on the fixed issue
	// schedule, so the ops a stall held up count its backlog; Service
	// then times each op from its actual issue, and Late is how far
	// behind its slot the generator issued it; a closed loop omits both.
	Latency LatencySummary  `json:"latency"`
	Service *LatencySummary `json:"service,omitempty"`
	Late    *LatencySummary `json:"late,omitempty"`

	// latencySumNS is Latency's exact sum. In a closed loop it equals
	// loopNS, what the tasks add up from their own clock reads: each
	// one's end less its start and its reclaim time.
	latencySumNS, loopNS int64

	// Comm is the communication counter delta of the phase; RemoteOps
	// is its locale-boundary-crossing total.
	Comm      comm.Snapshot `json:"comm"`
	RemoteOps int64         `json:"remote_ops"`

	// Matrix is the (source, destination) locale-pair event delta;
	// MaxInbound is its busiest destination column (the hotspot
	// metric).
	Matrix     [][]int64 `json:"matrix"`
	MaxInbound int64     `json:"max_inbound"`

	// Digest is the order-insensitive fingerprint of every (kind, key)
	// the phase's tasks drew — the replay witness.
	Digest uint64 `json:"digest"`
}

// HeapReport is the end-of-run gas-heap verdict: the UAF counters
// must be zero on any healthy run (the heaps poison freed slots), and
// Live is what remains allocated after the final epoch clear.
type HeapReport struct {
	Live      int64 `json:"live"`
	Allocs    int64 `json:"allocs"`
	Frees     int64 `json:"frees"`
	UAFLoads  int64 `json:"uaf_loads"`
	UAFStores int64 `json:"uaf_stores"`
	UAFFrees  int64 `json:"uaf_frees"`
}

// Safe reports whether the run completed without a detected
// use-after-free (load or store) or double free.
func (h HeapReport) Safe() bool {
	return h.UAFLoads == 0 && h.UAFStores == 0 && h.UAFFrees == 0
}

// Invariant is one end-of-run identity a report is held to: its name,
// whether it held, and the part of the report the verdict was read from.
type Invariant struct {
	Name   string
	Held   bool
	Detail string
}

// Invariants lists, each once, every end-of-run identity that applies to
// the run: the one list loadgen, soak and the tests judge a report by.
// Which apply is read from the books of the faults that landed,
// scheduled or live: a run with a crash that did not ask for failover
// (the deliberately wedged arm) is not held to recovery.
func (r *Report) Invariants() []Invariant {
	var inv []Invariant
	add := func(name string, held bool, evidence any) {
		inv = append(inv, Invariant{name, held, fmt.Sprintf("%+v", evidence)})
	}
	add("heap safe", r.Heap.Safe(), r.Heap)
	add("deferred == reclaimed", r.Epoch.Balanced(), r.Epoch)

	a := r.Availability
	var agg struct{ Shipped, Combined, Enqueued int64 }
	var mig struct{ Adopted, Retired int64 }
	var delay struct{ WaitNS, ModelledNS, PerturbNS int64 }
	var remote struct{ Events, Matrix int64 }
	var priced struct{ ModelledNS, PricedNS int64 }
	prices := r.Spec.latency().Prices()
	remoteHeld, pricedHeld := true, true
	for _, p := range r.Phases {
		var m int64
		for _, row := range p.Matrix {
			for _, n := range row {
				m += n
			}
		}
		remoteHeld = remoteHeld && m == p.RemoteOps
		remote.Events += p.RemoteOps
		remote.Matrix += m
		agg.Shipped += p.Comm.AggOps
		agg.Combined += p.Comm.AggCombined
		agg.Enqueued += p.Comm.AggOpsEnq
		mig.Adopted += p.Comm.MigAdopted
		mig.Retired += p.Comm.MigRetired
		delay.WaitNS += p.DelayWaitNS
		delay.ModelledNS += p.ModelledNS
		delay.PerturbNS += p.PerturbNS
		want := prices.Modelled(p.Comm)
		pricedHeld = pricedHeld && p.ModelledNS == want
		priced.ModelledNS += p.ModelledNS
		priced.PricedNS += want
	}
	// A dying locale's tasks abandon their buffers unflushed, so a crash
	// may leave enqueued ahead of shipped + combined, never behind.
	sent := agg.Shipped + agg.Combined
	add("shipped + combined == enqueued", sent == agg.Enqueued || a != nil && a.Crashes > 0 && sent < agg.Enqueued, agg)
	add("adopted == retired", mig.Adopted == mig.Retired, mig)
	// A phase's remote events and its matrix are sums over the same cells
	// from the same read; they differ only if a count site books outside
	// its (source, destination, kind) cell. Judged per phase.
	add("remote events == Σ matrix", remoteHeld, remote)
	// Every counted event is charged its kind's price and nothing else is
	// charged, so a phase's modelled ns is its books priced (comm.Prices),
	// exactly; a latency scale's excess books apart. Judged per phase.
	add("modelled_ns == Σ counted events × price", pricedHeld, priced)
	// Judged over the whole run: a wait that straddles a phase boundary
	// is charged in one phase and finished in the next.
	add("delay_wait_ns >= modelled_ns + perturb_ns", delay.WaitNS >= delay.ModelledNS+delay.PerturbNS, delay)
	if a != nil {
		if a.Crashes > 0 && a.Wedged == 0 {
			add("crash failover recovered", a.Recovered, *a)
		}
		add("parked == redelivered + expired", a.RetryBalanced(), *a)
		if a.Partitions > 0 && a.Crashes == 0 {
			add("crash-free partition lost nothing", a.OpsLost == 0, *a)
		}
	}
	if t := r.Trace; t != nil {
		add("trace books balanced", t.Balanced, *t)
	}
	return inv
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteSummary renders the human-readable run digest: one line per
// phase plus the safety verdict.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "scenario %q: %s on %d locales × %d tasks, backend=%s, dist=%s\n",
		r.Spec.Name, r.Spec.Structure, r.Spec.Locales, r.Spec.TasksPerLocale,
		r.Spec.Backend, r.Spec.Dist.Kind)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-10s %9d ops in %6.2fs  %10.0f ops/s  p50=%s p99=%s p999=%s  remote=%d maxInbound=%d",
			p.Name, p.Ops, p.Seconds, p.Throughput,
			fmtNS(p.Latency.P50NS), fmtNS(p.Latency.P99NS), fmtNS(p.Latency.P999NS),
			p.RemoteOps, p.MaxInbound)
		if s, l := p.Service, p.Late; s != nil && l != nil {
			fmt.Fprintf(w, "  service p50=%s p99=%s  late p99=%s max=%s",
				fmtNS(s.P50NS), fmtNS(s.P99NS), fmtNS(l.P99NS), fmtNS(l.MaxNS))
		}
		if p.ModelledNS > 0 {
			fmt.Fprintf(w, "  modelled=%s waited=%s", fmtNS(p.ModelledNS), fmtNS(p.DelayWaitNS))
		}
		if hits, miss := p.Comm.CacheHits, p.Comm.CacheMiss; hits+miss+p.Comm.CacheInval > 0 {
			rate := 0.0
			if hits+miss > 0 {
				rate = float64(hits) / float64(hits+miss)
			}
			fmt.Fprintf(w, "  cache=%d/%d (%.0f%% hit) invals=%d", hits, miss, 100*rate, p.Comm.CacheInval)
		}
		if p.Comm.AggCombined > 0 {
			rate := 0.0
			if p.Comm.AggOpsEnq > 0 {
				rate = float64(p.Comm.AggCombined) / float64(p.Comm.AggOpsEnq)
			}
			fmt.Fprintf(w, "  absorbed=%d/%d enq (%.0f%%)", p.Comm.AggCombined, p.Comm.AggOpsEnq, 100*rate)
		}
		if p.Comm.CASAttempts > 0 {
			fmt.Fprintf(w, "  cas=%d (%d retry)", p.Comm.CASAttempts, p.Comm.CASRetries)
		}
		if p.Comm.MigRetired > 0 || p.Comm.MigReroutes > 0 {
			fmt.Fprintf(w, "  migrations=%d moved=%dB reroutes=%d",
				p.Comm.MigRetired, p.Comm.MigBytes, p.Comm.MigReroutes)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  total: %d ops in %.2fs; heap live=%d uafLoads=%d uafStores=%d uafFrees=%d; epoch reclaimed=%d/%d\n",
		r.TotalOps, r.TotalSeconds, r.Heap.Live, r.Heap.UAFLoads, r.Heap.UAFStores, r.Heap.UAFFrees,
		r.Epoch.Reclaimed, r.Epoch.Deferred)
	if a := r.Availability; a != nil {
		if a.Crashes > 0 {
			verdict := "recovered"
			if !a.Recovered {
				verdict = "NOT RECOVERED"
			}
			fmt.Fprintf(w, "  availability: %d crash(es), opsLost=%d, shardsAdopted=%d (%dB), tokensForceRetired=%d, timeToRecover=%s, %s (advances=%d blocked=%d)\n",
				a.Crashes, a.OpsLost, a.ShardsAdopted, a.BytesAdopted, a.TokensForceRetired,
				fmtNS(a.RecoverNS), verdict, r.Epoch.Advances, r.Epoch.AdvanceFail)
		}
		if a.Partitions > 0 {
			verdict := "settled"
			if !a.RetryBalanced() {
				verdict = "UNSETTLED"
			}
			fmt.Fprintf(w, "  partitions: %d sever(s), %d heal(s), timeToHeal=%s, parked=%d redelivered=%d expired=%d, books %s (opsLost=%d)\n",
				a.Partitions, a.Heals, fmtNS(a.TimeToHealNS),
				a.OpsParked, a.OpsRedelivered, a.OpsExpired, verdict, a.OpsLost)
		}
	}
	if t := r.Trace; t != nil {
		verdict := "balanced"
		if !t.Balanced {
			verdict = "UNBALANCED"
		}
		fmt.Fprintf(w, "  trace: %d events (1/%d sampled, %d dropped), books %s;",
			t.Events, t.SampleRate, t.Dropped, verdict)
		for _, k := range []string{"dispatch", "async", "flush", "combine", "migrate", "adopt", "force_retire", "epoch_advance", "epoch_reclaim"} {
			if n := t.Spans[k]; n > 0 {
				fmt.Fprintf(w, " %s=%d", k, n)
			}
		}
		for _, k := range []string{"reroute", "defer", "crash", "partition", "heal"} {
			if n := t.Instants[k]; n > 0 {
				fmt.Fprintf(w, " %s=%d", k, n)
			}
		}
		fmt.Fprintln(w)
	}
}

// fmtNS renders nanoseconds with a readable unit.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
