// Package atomics implements the paper's AtomicObject and
// LocalAtomicObject: atomic read/write/compare-and-swap/exchange on
// arbitrary heap objects, which Chapel (and most PGAS systems) cannot
// express natively because object references are 128-bit wide pointers
// while network atomics stop at 64 bits.
//
// Three representations are provided, selected per AtomicObject:
//
//   - Compressed (default, systems with ≤ 2^16 locales): the wide
//     pointer is packed into one 64-bit word (16-bit locale | 48-bit
//     address), so every operation can be a NIC-offloaded RDMA atomic.
//   - Wide (the paper's fallback beyond 2^16 locales; chosen
//     explicitly with ModeWide, since pgas.NewSystem refuses more
//     locales than the compressed word encodes): the full 128-bit wide
//     pointer is kept and every operation becomes a double-word
//     compare-and-swap executed on the owning locale — demoted from
//     RDMA to remote execution, exactly as the paper describes.
//   - Descriptor (the paper's future work): the word holds an index
//     into a distributed descriptor table instead of a pointer,
//     re-enabling RDMA atomics at any locale count at the price of one
//     extra lookup to resolve the index.
//
// Optional ABA protection pairs the pointer word with a 64-bit stamp
// in a 128-bit cell; the *ABA operation variants update both halves
// with DCAS, while the normal variants keep operating on the pointer
// word alone (still RDMA-able) — both may be mixed, as the paper
// allows for advanced users.
package atomics

import (
	"fmt"

	"gopgas/internal/gas"
)

// ABA is a stamped pointer: the value returned by the *ABA read
// operations and consumed by the *ABA compare-and-swap. The stamp
// (count) increments on every ABA-aware mutation, so a compare-and-
// swap against a stale ABA value fails even if the same address has
// been recycled in the interim — the classic DCAS cure for the ABA
// problem.
//
// Chapel's version forwards method calls to the wrapped object; in Go,
// call Object to obtain the address and dereference it explicitly.
type ABA struct {
	addr  gas.Addr
	count uint64
}

// Object returns the pointer half of the stamped value.
func (a ABA) Object() gas.Addr { return a.addr }

// Count returns the stamp half.
func (a ABA) Count() uint64 { return a.count }

// IsNil reports whether the pointer half is nil.
func (a ABA) IsNil() bool { return a.addr.IsNil() }

// String renders the stamped pointer.
func (a ABA) String() string {
	return fmt.Sprintf("ABA{%v,#%d}", a.addr, a.count)
}
