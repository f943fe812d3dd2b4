// Package gopgas is a Go reproduction of "Paving the way for
// Distributed Non-Blocking Algorithms and Data Structures in the
// Partitioned Global Address Space model" (Dewan & Jenkins, 2020).
//
// The paper's constructs — AtomicObject (atomic operations on objects
// via pointer compression, with optional ABA protection through DCAS)
// and EpochManager (distributed epoch-based memory reclamation) —
// were built for Chapel on Cray hardware. This module rebuilds them,
// and the entire PGAS substrate they need, in pure stdlib Go:
//
//   - internal/pgas    — the PGAS runtime (locales, tasks, sync/async
//     on-statements, privatization, network-atomic words, the remote-op
//     dispatch layer and per-task aggregation buffers)
//   - internal/gas     — the software global address space (compressed
//     64-bit global pointers, per-locale heaps, poison-on-free)
//   - internal/comm    — backends (ugni/none), latency profiles, counters,
//     the per-destination aggregation buffers (Aggregator)
//   - internal/core    — the paper's contributions (atomics, epoch)
//   - internal/structures — non-blocking stack, queue, list, hash map
//     built on the contributions
//   - internal/bench   — regenerates every figure of the evaluation
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// simulation substitutions, and benchmark/README.md for the runtime
// overhead benchmark. The root package holds only the examples smoke
// test and no code.
package gopgas
