// Package comm models the communication layer of a PGAS system:
// backends, latency profiles, diagnostic counters, the locale-pair
// matrix, aggregation buffers, and fault-injection perturbations.
// Everything here is mechanism-free policy — no goroutines, no
// execution; the actual routing of operations lives in package pgas,
// which consults what this package configures and reports into what
// this package counts.
//
// # Backends
//
// The paper's evaluation toggles CHPL_NETWORK_ATOMICS between "ugni"
// (Cray Gemini/Aries NIC-offloaded RDMA atomics) and "none"
// (active-message atomics executed by the recipient's progress
// thread). Backend captures the two regimes; ParseBackend/String
// round-trip their CLI spellings.
//
// # Latency profiles
//
// LatencyProfile carries the calibrated injected delays that let one
// process reproduce the *shape* of a 64-locale Cray run: per-class
// costs for NIC atomics, AM round trips, on-statement spawns, GET/PUT,
// and bulk-transfer startup/per-byte. The zero profile disables delays
// entirely — unit tests stay fast while the counters stay exact.
// A wait spin-yields below ~50µs and sleeps above, so short simulated
// latencies do not collapse into scheduler noise. Charges are paced per
// task: a Pacer (held by pgas.Ctx) carries each wait's overshoot as
// bounded credit into the task's next charges, so a task waits the
// nanoseconds it was charged, not those plus every wait's overshoot.
// Delay(ns) is the same loop on a fresh account.
//
// # Counters and the matrix
//
// Counters records every simulated communication event in the spirit
// of Chapel's commDiagnostics module: puts, gets, NIC/AM/local
// atomics, on-statements, bulk transfers and their bytes, local and
// remote DCAS, aggregated flush/op/byte totals, and the read
// replication cache's hit/miss/invalidation totals. Every event is
// counted exactly once, so tests make deterministic assertions about
// communication volume (for example: privatized lookup is
// zero-communication; N deferred frees ship as one bulk transfer per
// destination; a warmed cache serves a hot-key get storm with zero
// remote events). Matrix attributes the remote events to (source,
// destination) locale pairs, answering what the scalars cannot:
// whether traffic is balanced, and which locale is the hotspot.
//
// The two are one store. A remote event — one of the seven Kinds
// Snapshot.Remote adds up — is a single Matrix.Book: one atomic add on
// the cell keyed (source, destination, kind). Counters made by
// NewCounters read their seven remote totals as sums over those cells,
// so Snapshot().Remote() == Matrix.Total() by construction, and
// Counters.SnapshotMatrix returns both from the same loads. Snapshot/Sub
// turn them into exact deltas around a measured region.
//
// # Aggregation
//
// Aggregator generalises the EpochManager's scatter lists into a
// first-class facility (the move Chapel's ecosystem made with
// Arkouda's CopyAggregation): per-destination buffers of opaque Ops
// with a capacity/flush policy, each flush charged as one bulk
// transfer instead of one round trip per op. The pgas layer supplies
// the delivery callback that actually executes a batch.
//
// # Perturbation
//
// Perturbation is the fault-injection plan: per-locale latency
// multipliers consulted at every delay site (PairScale covers both
// directions of a pair), which is how the workload engine's
// slow-locale mode slows traffic without ever changing a counter —
// fault runs stay counter-assertable.
package comm
