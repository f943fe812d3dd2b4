// Package pgas implements an in-process Partitioned Global Address
// Space runtime: the substrate the paper's constructs run on, and the
// only layer that owns mechanism (task spawning, active-message
// handler slots, batch delivery). Everything above it goes through
// Ctx methods, so the comm counters see every event exactly once.
//
// # Topology and tasks
//
// A System hosts a fixed set of locales. Each locale owns a gas.Heap
// (its partition of the global address space), a bounded number of
// handler slots for incoming active messages (the serialization the
// paper's "none" curves exhibit), and a slot in the
// privatization registry. Tasks are goroutines bound to a locale
// through a Ctx — the analogue of Chapel's implicit `here` — carrying
// a private deterministic random stream.
//
// # Language features
//
// The package supplies the handful of features the paper's listings
// rely on: synchronous on-statements (Ctx.On) and fire-and-forget
// asynchronous ones (Ctx.AsyncOn, tracked by System.Quiesce),
// coforall/forall loops over locales and cyclically distributed
// domains with task-private values, a control-plane visit of every
// locale on the calling goroutine (Ctx.VisitLocales), network-atomic
// words (Word64, Word128) routed per the configured comm.Backend,
// remote allocation/load/free with bulk variants, and the
// privatization registry.
//
// # The dispatch layer
//
// Every simulated remote operation — on-statement, 64-bit AMO, 128-bit
// DCAS, GET/PUT charge, bulk transfer — is routed, counted and
// latency-charged in dispatch.go, in one place. Ctx.On, Word64,
// Word128 and the memory operations are thin veneers over it, so the
// synchronous, asynchronous and aggregated paths share one accounting
// implementation and cannot drift. Counting a remote event is one
// atomic add on its (source, destination, kind) cell of the system's
// comm.Matrix, which the bound comm.Counters read as well, so
// System.Counters and System.Matrix agree by construction. A word's
// atomic runs in the Word64/Word128 method itself on the NIC and local
// routes, in a closure shipped over an active message (amCall)
// otherwise. Every counted event is charged its kind's price
// (comm.Prices), scaled by the live comm.Perturbation fault plan, to
// the issuing task's delay account (comm.Pacer, held by its Ctx; the
// pooled Ctx of a sync on-statement body or an aggregated delivery
// charges its caller's), which carries a wait's overshoot into the
// task's next charges.
// System.DelayTotals reports what was charged, nominal prices and a
// latency scale's excess over them booked apart, and what was waited.
//
// # Aggregation buffers
//
// Each task lazily owns per-destination aggregation buffers
// (Ctx.Aggregator): Call/CallSized and Add buffer small remote
// operations that ship as one bulk transfer per flush — explicitly
// via Flush, or automatically at capacity. Local destinations execute
// inline, as `on here` is elided — except mergeable operations
// (CallCombinable, Add) under
// AggConfig.Combine, which buffer and merge toward the task's own locale
// too and are delivered there without a transfer. Ctx.Flush
// drains the task's buffers and then waits for system-wide quiescence
// of asynchronous work.
//
// # Privatization
//
// NewPrivatized replicates an instance per locale with a
// per-locale constructor hook; Privatized.Get resolves the calling
// locale's replica with zero communication — the paper's scaling
// device above the network, used by the EpochManager, the structure
// shards (via shared.Object) and the read replication cache.
// Privatized.Destroy runs per-locale finalizers and recycles the
// registry id, so churn workloads keep the tables dense.
package pgas
