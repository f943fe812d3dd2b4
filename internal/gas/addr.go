// Package gas implements a software global address space: per-locale
// slab heaps addressed by compressed 64-bit global pointers.
//
// The paper's pointer compression exploits the fact that x86-64
// processors use only the lowest 48 bits of a virtual address, leaving
// 16 bits to encode the locale, so that a 128-bit Chapel wide pointer
// fits in the single 64-bit word NIC atomics can operate on. This
// package reproduces that layout exactly: an Addr is
//
//	bits 63..48  locale id   (16 bits → at most 2^16 locales)
//	bits 47..0   slot index  (48 bits, the "virtual address")
//
// with the all-zero value reserved as nil. WidePtr is the uncompressed
// 128-bit form used when the system exceeds MaxLocales and the
// implementation must fall back to double-word compare-and-swap.
//
// Because Go's own heap is garbage collected and addresses are not
// stable or encodable, the heaps here are explicit slab allocators with
// LIFO slot reuse. Reuse means a freed Addr can be handed out again —
// the ABA hazard in the paper is therefore real in this system, and the
// poison-on-free machinery makes use-after-free *detectable* rather
// than undefined.
//
// Every object lives in a typed chunk (Type): a slot holds the bare
// node pointer, so behind the 64-bit word is one host object and
// nothing else. The boxed Heap.Alloc/Load/Store face is Type[any], a
// deprecated veneer kept for the benchmark ladder.
package gas

import "fmt"

// Addr is a compressed global pointer: 16 bits of locale, 48 bits of
// slot index (offset by one so that Addr(0) is nil).
type Addr uint64

// AddrNil is the nil global pointer.
const AddrNil Addr = 0

const (
	// LocaleBits and IndexBits describe the compressed layout.
	LocaleBits = 16
	IndexBits  = 48

	// MaxLocales is the largest locale count representable in a
	// compressed pointer; beyond it, AtomicObject must fall back to
	// wide pointers and DCAS, as in the paper.
	MaxLocales = 1 << LocaleBits

	// MaxIndex is the largest encodable slot index.
	MaxIndex = (uint64(1) << IndexBits) - 1

	indexMask = (uint64(1) << IndexBits) - 1
)

// MakeAddr builds a compressed pointer from a locale id and slot index.
// It panics if either component is out of range; the +1 offset on the
// index keeps slot 0 of locale 0 distinct from nil.
func MakeAddr(locale int, index uint64) Addr {
	if locale < 0 || locale >= MaxLocales {
		panic(fmt.Sprintf("gas: locale %d out of compressed range [0, %d)", locale, MaxLocales))
	}
	if index+1 > MaxIndex {
		panic(fmt.Sprintf("gas: slot index %d exceeds 48-bit range", index))
	}
	return Addr(uint64(locale)<<IndexBits | (index + 1))
}

// Locale returns the locale id encoded in the pointer. Calling it on
// AddrNil panics: nil has no owner.
func (a Addr) Locale() int {
	if a == AddrNil {
		panic("gas: Locale() on nil Addr")
	}
	return int(uint64(a) >> IndexBits)
}

// Index returns the slot index encoded in the pointer.
func (a Addr) Index() uint64 {
	if a == AddrNil {
		panic("gas: Index() on nil Addr")
	}
	return uint64(a)&indexMask - 1
}

// IsNil reports whether the pointer is nil.
func (a Addr) IsNil() bool { return a == AddrNil }

// String renders the pointer as L<locale>:<index>, or "nil".
func (a Addr) String() string {
	if a.IsNil() {
		return "nil"
	}
	return fmt.Sprintf("L%d:%d", a.Locale(), a.Index())
}

// WidePtr is the uncompressed 128-bit wide pointer: a full 64-bit
// "virtual address" word plus a full 64-bit locality word. It is the
// representation Chapel uses natively for class instances, and the one
// AtomicObject falls back to (with DCAS) when the system has more than
// MaxLocales locales.
type WidePtr struct {
	// Locality holds the owning locale id in its low bits. A real
	// Chapel wide pointer also carries sublocale information here.
	Locality uint64
	// VAddr holds the slot index + 1 (0 = nil), the analogue of the
	// virtual address word.
	VAddr uint64
}

// WideNil is the nil wide pointer.
var WideNil = WidePtr{}

// Wide expands a compressed pointer into its 128-bit form.
func (a Addr) Wide() WidePtr {
	if a.IsNil() {
		return WideNil
	}
	return WidePtr{Locality: uint64(a.Locale()), VAddr: uint64(a) & indexMask}
}

// IsNil reports whether the wide pointer is nil.
func (w WidePtr) IsNil() bool { return w.VAddr == 0 }

// Locale returns the owning locale id.
func (w WidePtr) Locale() int {
	if w.IsNil() {
		panic("gas: Locale() on nil WidePtr")
	}
	return int(w.Locality)
}

// Index returns the slot index.
func (w WidePtr) Index() uint64 {
	if w.IsNil() {
		panic("gas: Index() on nil WidePtr")
	}
	return w.VAddr - 1
}

// Compress packs the wide pointer into an Addr. It panics if the
// locale does not fit in 16 bits — the caller must have checked the
// system size, which is exactly the ≤2^16-locales precondition the
// paper places on pointer compression.
func (w WidePtr) Compress() Addr {
	if w.IsNil() {
		return AddrNil
	}
	return MakeAddr(w.Locale(), w.Index())
}

// String renders the wide pointer.
func (w WidePtr) String() string {
	if w.IsNil() {
		return "wide-nil"
	}
	return fmt.Sprintf("W[L%d:%d]", w.Locale(), w.Index())
}
