package atomics

import (
	"sync/atomic"

	"gopgas/internal/gas"
)

// LocalAtomicObject is the shared-memory-optimized variant — the
// paper's initial prototype, kept as its own module. It ignores the
// locality half of the wide pointer entirely and keeps only the 64-bit
// "virtual address" in a processor atomic, so it must only ever hold
// objects that live on the locale using it; handing it a remote
// reference is a program error (checked).
//
// Operations take no Ctx and perform no simulated communication: this
// is exactly the class of object the paper "opts out" of network
// atomics for.
type LocalAtomicObject struct {
	locale int
	hasAB  bool
	v      atomic.Uint64

	// ABA cell (lo=address, hi=stamp), used only when hasAB; there is
	// never a remote path.
	cell gas.Cell128
}

// NewLocal creates a LocalAtomicObject pinned to the given locale,
// initially nil. Set aba to enable the *ABA variants.
func NewLocal(locale int, aba bool) *LocalAtomicObject {
	return &LocalAtomicObject{locale: locale, hasAB: aba}
}

// Locale returns the locale the object is pinned to.
func (a *LocalAtomicObject) Locale() int { return a.locale }

// check enforces the locality contract: only local objects (or nil)
// may be stored, since the locality bits are discarded.
func (a *LocalAtomicObject) check(addr gas.Addr) {
	if !addr.IsNil() && addr.Locale() != a.locale {
		panic("atomics: LocalAtomicObject given a remote object; use AtomicObject")
	}
}

// Read atomically loads the reference.
func (a *LocalAtomicObject) Read() gas.Addr {
	if a.hasAB {
		return gas.Addr(a.cell.LoadLo())
	}
	return gas.Addr(a.v.Load())
}

// Write atomically stores a reference.
func (a *LocalAtomicObject) Write(addr gas.Addr) {
	a.Exchange(addr)
}

// Exchange atomically swaps in a reference, returning the previous.
func (a *LocalAtomicObject) Exchange(addr gas.Addr) gas.Addr {
	a.check(addr)
	if a.hasAB {
		return gas.Addr(a.cell.SwapLo(uint64(addr)))
	}
	return gas.Addr(a.v.Swap(uint64(addr)))
}

// CompareAndSwap atomically replaces old with new, reporting success.
func (a *LocalAtomicObject) CompareAndSwap(old, new gas.Addr) bool {
	a.check(new)
	if a.hasAB {
		return a.cell.CASLo(uint64(old), uint64(new))
	}
	return a.v.CompareAndSwap(uint64(old), uint64(new))
}

// ReadABA atomically loads the stamped reference.
func (a *LocalAtomicObject) ReadABA() ABA {
	a.requireABA()
	lo, hi := a.cell.Load()
	return ABA{addr: gas.Addr(lo), count: hi}
}

// WriteABA atomically stores a reference and bumps the stamp.
func (a *LocalAtomicObject) WriteABA(addr gas.Addr) {
	a.ExchangeABA(addr)
}

// ExchangeABA atomically swaps in a reference, bumps the stamp, and
// returns the previous stamped value.
func (a *LocalAtomicObject) ExchangeABA(addr gas.Addr) ABA {
	a.requireABA()
	a.check(addr)
	lo, hi := a.cell.SwapLoBumpHi(uint64(addr))
	return ABA{addr: gas.Addr(lo), count: hi}
}

// CompareAndSwapABA succeeds only if both reference and stamp match.
func (a *LocalAtomicObject) CompareAndSwapABA(old ABA, new gas.Addr) bool {
	a.requireABA()
	a.check(new)
	return a.cell.CAS(uint64(old.addr), old.count, uint64(new), old.count+1)
}

func (a *LocalAtomicObject) requireABA() {
	if !a.hasAB {
		panic("atomics: *ABA operation on a LocalAtomicObject created without ABA")
	}
}
