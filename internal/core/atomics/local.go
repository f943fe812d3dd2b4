package atomics

import (
	"sync"
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

	// ABA cell, used only when hasAB. The mutex emulates CMPXCHG16B as
	// in pgas.Word128; here there is never a remote path.
	mu sync.Mutex
	lo uint64
	hi uint64
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
		a.mu.Lock()
		v := a.lo
		a.mu.Unlock()
		return gas.Addr(v)
	}
	return gas.Addr(a.v.Load())
}

// Write atomically stores a reference.
func (a *LocalAtomicObject) Write(addr gas.Addr) {
	a.check(addr)
	if a.hasAB {
		a.mu.Lock()
		a.lo = uint64(addr)
		a.mu.Unlock()
		return
	}
	a.v.Store(uint64(addr))
}

// Exchange atomically swaps in a reference, returning the previous.
func (a *LocalAtomicObject) Exchange(addr gas.Addr) gas.Addr {
	a.check(addr)
	if a.hasAB {
		a.mu.Lock()
		old := a.lo
		a.lo = uint64(addr)
		a.mu.Unlock()
		return gas.Addr(old)
	}
	return gas.Addr(a.v.Swap(uint64(addr)))
}

// CompareAndSwap atomically replaces old with new, reporting success.
func (a *LocalAtomicObject) CompareAndSwap(old, new gas.Addr) bool {
	a.check(new)
	if a.hasAB {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.lo != uint64(old) {
			return false
		}
		a.lo = uint64(new)
		return true
	}
	return a.v.CompareAndSwap(uint64(old), uint64(new))
}

// ReadABA atomically loads the stamped reference.
func (a *LocalAtomicObject) ReadABA() ABA {
	a.requireABA()
	a.mu.Lock()
	r := ABA{addr: gas.Addr(a.lo), count: a.hi}
	a.mu.Unlock()
	return r
}

// WriteABA atomically stores a reference and bumps the stamp.
func (a *LocalAtomicObject) WriteABA(addr gas.Addr) {
	a.requireABA()
	a.check(addr)
	a.mu.Lock()
	a.lo = uint64(addr)
	a.hi++
	a.mu.Unlock()
}

// ExchangeABA atomically swaps in a reference, bumps the stamp, and
// returns the previous stamped value.
func (a *LocalAtomicObject) ExchangeABA(addr gas.Addr) ABA {
	a.requireABA()
	a.check(addr)
	a.mu.Lock()
	old := ABA{addr: gas.Addr(a.lo), count: a.hi}
	a.lo = uint64(addr)
	a.hi++
	a.mu.Unlock()
	return old
}

// CompareAndSwapABA succeeds only if both reference and stamp match.
func (a *LocalAtomicObject) CompareAndSwapABA(old ABA, new gas.Addr) bool {
	a.requireABA()
	a.check(new)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lo != uint64(old.addr) || a.hi != old.count {
		return false
	}
	a.lo = uint64(new)
	a.hi = old.count + 1
	return true
}

func (a *LocalAtomicObject) requireABA() {
	if !a.hasAB {
		panic("atomics: *ABA operation on a LocalAtomicObject created without ABA")
	}
}
