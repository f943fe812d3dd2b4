// Package core groups the paper's two contributions:
//
//   - core/atomics: AtomicObject and LocalAtomicObject — atomic
//     operations on arbitrary (heap-allocated) objects, with pointer
//     compression to keep RDMA atomics, a wide-pointer/DCAS fallback
//     beyond 2^16 locales, optional ABA protection, and the
//     future-work descriptor-table mode.
//   - core/epoch: EpochManager — distributed epoch-based memory
//     reclamation with privatized per-locale instances, wait-free
//     limbo lists, token registration, elected epoch advancement, and
//     locale-sorted scatter lists for bulk remote deallocation.
//
// The package itself holds no code; see the subpackages.
package core
