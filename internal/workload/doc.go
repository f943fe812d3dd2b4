// Package workload is the declarative scenario engine: the role
// YCSB-style drivers play for key-value stores and Arkouda's server
// benchmarks play for Chapel, aimed at the structures this repository
// builds. A Spec describes *what* to run entirely as data; a Driver
// binds it to one structure; Run executes it on a fresh simulated
// System and serializes the evidence as a Report — the
// machine-readable perf record CI tracks.
//
// # Specs
//
// A Spec is JSON-round-trippable (strict-parsed: unknown keys at any
// nesting depth are rejected, so a typo'd knob fails loudly) and
// validated before running. It covers:
//
//   - the target structure (hashmap, queue, stack, skiplist) and
//     system shape (locales, tasks per locale, backend, latency scale)
//   - the op mix per phase, over an abstract vocabulary
//     (insert/get/remove/enqueue/steal/bulk); Validate rejects mixes a
//     structure cannot serve
//   - the key distribution: uniform, Zipfian (Gray et al., YCSB's
//     θ=0.99 default) or hot-set (HotProb of traffic on the first
//     HotFraction of the keyspace)
//   - the arrival model: closed-loop (OpsPerTask), time-based
//     (Seconds), optionally paced open-loop (TargetRate)
//   - phases (the classic load → run → churn shape; churn rounds
//     destroy and recreate the structure)
//   - fault injection: a timeline of the faults /api/fault posts —
//     per-locale latency scales (a slow locale being one scale above 1;
//     counters stay exact), fail-stop crashes, transient partitions
//     and their heals — each with a phase and optional after_ops and
//     after_ms triggers
//   - the hashmap's read replication cache (CacheSpec): gets served
//     from per-locale replicas, mutations writing through with
//     broadcast invalidation
//
// # The fault schedule
//
// A spec's Faults.Events is one ordered list: sorted stably by phase,
// it lands strictly in list order, each event waiting for the one
// before it. An event is due once its phase has been reached, the
// phase's issued ops are at least its after_ops, and its after_ms has
// passed since the later of the phase's start and the landing of the
// event before it — so a heal listed after a mid-phase sever is timed
// from the sever. Triggers of 0 land at the phase's boundary, which
// replays exactly. An event its phase leaves pending lands at the next
// boundary step; what the last phase leaves pending never lands. One
// function steps what is due, called at every round boundary and,
// while a round's workers run, by one clock goroutine that also steps
// the driver's control loop and, with a telemetry bridge attached,
// receives /api/fault posts; scheduled and live faults land through one
// applier and are booked alike (see DESIGN.md).
//
// # Determinism
//
// Every task draws its ops and keys from a private splitmix64 stream
// derived from (spec seed, phase, round, locale, task), so a given
// spec replays the identical op stream on every invocation —
// regressions found by a scenario are debuggable by construction, and
// contention-free closed-loop scenarios are counter-exact across runs
// (TestSeededRunBitIdentical). Each phase's report carries an
// order-insensitive digest of the op stream as the replay witness.
//
// # Evidence
//
// A PhaseReport records throughput, HDR-style log-bucketed latency
// percentiles (Histogram, ≤3% quantization; a closed loop times one op
// in 16, weighted by its segment, so counts and means stay exact; a
// paced phase times each op, as response time from its slot beside
// service time and the generator's lateness), the exact comm
// counter and matrix deltas (including cache hits/misses/
// invalidations), the busiest-inbound-column hotspot metric, and the
// digest. The run-level Report adds the end-of-run heap verdict
// (use-after-free and double-free totals from the poisoned heaps) and
// the epoch-reclamation balance (deferred vs reclaimed);
// Report.Invariants names every identity a finished run is held to.
//
// cmd/loadgen is the CLI (flags or -spec JSON); cmd/soak runs
// long-lived churn scenarios on the same engine.
package workload
