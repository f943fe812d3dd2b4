package pgas

import (
	"sync/atomic"
	"unsafe"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

// Word64 is a network-atomic 64-bit word that lives in one locale's
// memory, the substrate for Chapel's `atomic int/uint` under
// CHPL_NETWORK_ATOMICS. Operation routing follows the backend:
//
//   - ugni: every operation — including one issued from the word's own
//     locale — is a NIC atomic: executed without involving the target
//     CPU, paying the NIC round-trip latency. (Aries network atomics
//     are not coherent with processor atomics, so there is no cheap
//     local path; the paper measures this at up to 10×.)
//   - none: operations from the word's own locale are native processor
//     atomics; remote operations ship as active messages. Under a
//     profile with handler occupancy they are serialized by the
//     target's handler slots (Config.ProgressWorkers at a time, each
//     paying the AMHandlerNS occupancy); a zero-occupancy handler takes
//     no slot.
//
// For locale-private state that never needs network atomicity (the
// paper "opts out" of network atomics where possible), use plain
// sync/atomic values instead; Word64 models precisely the variables
// that must remain globally atomic.
type Word64 struct {
	home int
	v    atomic.Uint64
}

// wordBlock is the size and alignment of a standalone word's
// allocation: an adjacent-line pair, the span the layout rule keeps a
// written word from its neighbours. Go's allocator places objects of
// its 128-byte size class on 128-byte boundaries.
const wordBlock = 128

// word64Block is a standalone Word64 padded to a block of its own, so
// that words made one after another (the head and tail of one locale's
// queue segment, then the next locale's) share no line
// (TestStandaloneWordsApart).
type word64Block struct {
	w Word64
	_ [wordBlock - unsafe.Sizeof(Word64{})]byte
}

// NewWord64 allocates a network-atomic word homed on the given locale
// with an initial value, in a 128-byte block of its own. A word held
// inside its object is set up with Init instead and stays compact.
func NewWord64(c *Ctx, home int, init uint64) *Word64 {
	w := &new(word64Block).w
	w.Init(c, home, init)
	return w
}

// Init sets up a word in place — one held by value inside the object
// it belongs to, as a structure node holds its successor word — homed
// on the given locale with an initial value. It must run before the
// word is shared.
func (w *Word64) Init(c *Ctx, home int, init uint64) {
	if home < 0 || home >= c.NumLocales() {
		panic("pgas: Word64 home out of range")
	}
	w.home = home
	w.v.Store(init)
}

// Home returns the id of the locale the word resides on.
func (w *Word64) Home() int { return w.home }

// am runs op on the word's home over an active message: the route
// routeAMO64 picked when it returned true. Every other route runs the
// atomic in the method itself.
func (w *Word64) am(c *Ctx, op func() uint64) uint64 {
	return c.sys.amAMO64(c, w.home, op)
}

// Read atomically loads the word.
func (w *Word64) Read(c *Ctx) uint64 {
	if c.sys.routeAMO64(c, w.home) {
		return w.am(c, w.v.Load)
	}
	return w.v.Load()
}

// Write atomically stores val.
func (w *Word64) Write(c *Ctx, val uint64) {
	if c.sys.routeAMO64(c, w.home) {
		w.am(c, func() uint64 { w.v.Store(val); return 0 })
		return
	}
	w.v.Store(val)
}

// Exchange atomically swaps in val and returns the previous value.
func (w *Word64) Exchange(c *Ctx, val uint64) uint64 {
	if c.sys.routeAMO64(c, w.home) {
		return w.am(c, func() uint64 { return w.v.Swap(val) })
	}
	return w.v.Swap(val)
}

// CompareAndSwap atomically replaces old with new, reporting success.
// Every attempt (and the failed subset) is recorded in the CAS
// counters, making retry storms on contended words a counter
// assertion.
func (w *Word64) CompareAndSwap(c *Ctx, old, new uint64) (ok bool) {
	if c.sys.routeAMO64(c, w.home) {
		ok = w.am(c, func() uint64 { return b2u(w.v.CompareAndSwap(old, new)) }) == 1
	} else {
		ok = w.v.CompareAndSwap(old, new)
	}
	c.sys.counters.IncCAS(c.here.id, ok)
	return ok
}

// Add atomically adds delta and returns the new value.
func (w *Word64) Add(c *Ctx, delta uint64) uint64 {
	if c.sys.routeAMO64(c, w.home) {
		return w.am(c, func() uint64 { return w.v.Add(delta) })
	}
	return w.v.Add(delta)
}

// TestAndSet sets the word to 1 and reports whether it was already
// set — the primitive behind the paper's is_setting_epoch election
// flags.
func (w *Word64) TestAndSet(c *Ctx) bool {
	return w.Exchange(c, 1) == 1
}

// Clear resets a TestAndSet flag.
func (w *Word64) Clear(c *Ctx) {
	w.Write(c, 0)
}

// b2u carries a CAS outcome through a handler's uint64 result.
func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// Word128 is a network-atomic 128-bit cell: the double-word the
// ABA-protected pointer (64-bit address + 64-bit stamp) occupies.
//
// No NIC offloads 128-bit atomics, so — on both backends — a remote
// operation always ships as an active message to the home locale
// ("demoting" the operation from RDMA to remote execution, as the
// paper puts it), while a local operation executes the emulated
// CMPXCHG16B, a gas.Cell128, directly.
type Word128 struct {
	home int
	cell gas.Cell128
}

// NewWord128 allocates a 128-bit network-atomic cell homed on the
// given locale.
func NewWord128(c *Ctx, home int, lo, hi uint64) *Word128 {
	if home < 0 || home >= c.NumLocales() {
		panic("pgas: Word128 home out of range")
	}
	w := &Word128{home: home}
	w.cell.Swap(lo, hi)
	return w
}

// Home returns the id of the locale the cell resides on.
func (w *Word128) Home() int { return w.home }

// Read atomically loads both halves.
func (w *Word128) Read(c *Ctx) (lo, hi uint64) {
	if c.sys.routeDCAS(c, w.home) {
		c.sys.amCall(c, w.home, comm.KindDCASRemote, func() { lo, hi = w.cell.Load() })
		return lo, hi
	}
	return w.cell.Load()
}

// Write atomically stores both halves.
func (w *Word128) Write(c *Ctx, lo, hi uint64) {
	w.Exchange(c, lo, hi)
}

// Exchange atomically swaps in (lo, hi), returning the previous pair.
func (w *Word128) Exchange(c *Ctx, lo, hi uint64) (oldLo, oldHi uint64) {
	if c.sys.routeDCAS(c, w.home) {
		c.sys.amCall(c, w.home, comm.KindDCASRemote, func() { oldLo, oldHi = w.cell.Swap(lo, hi) })
		return oldLo, oldHi
	}
	return w.cell.Swap(lo, hi)
}

// ReadLo64 atomically loads the low word only. The lo64 operations
// route with Word64 semantics — NIC atomic under ugni, processor atomic
// locally under none, active message remotely under none — which is how
// the paper's AtomicObject lets "normal" (non-ABA) operations on an
// ABA-protected cell keep their RDMA fast path: they touch only the
// pointer word.
func (w *Word128) ReadLo64(c *Ctx) uint64 {
	if c.sys.routeAMO64(c, w.home) {
		return c.sys.amAMO64(c, w.home, w.cell.LoadLo)
	}
	return w.cell.LoadLo()
}

// WriteLo64 atomically stores the low word, leaving the high word (the
// ABA stamp) untouched — the "advanced user" mixed-mode write.
func (w *Word128) WriteLo64(c *Ctx, lo uint64) {
	w.ExchangeLo64(c, lo)
}

// ExchangeLo64 atomically swaps the low word, leaving the high word
// untouched.
func (w *Word128) ExchangeLo64(c *Ctx, lo uint64) uint64 {
	if c.sys.routeAMO64(c, w.home) {
		return c.sys.amAMO64(c, w.home, func() uint64 { return w.cell.SwapLo(lo) })
	}
	return w.cell.SwapLo(lo)
}

// CASLo64 atomically compares-and-swaps the low word only.
func (w *Word128) CASLo64(c *Ctx, old, new uint64) (ok bool) {
	if c.sys.routeAMO64(c, w.home) {
		ok = c.sys.amAMO64(c, w.home, func() uint64 { return b2u(w.cell.CASLo(old, new)) }) == 1
	} else {
		ok = w.cell.CASLo(old, new)
	}
	c.sys.counters.IncCAS(c.here.id, ok)
	return ok
}

// WriteLoBumpHi atomically stores the low word and increments the high
// word — an ABA-aware unconditional write. Like all full-width
// operations it routes as a DCAS (remote execution when remote).
func (w *Word128) WriteLoBumpHi(c *Ctx, lo uint64) {
	w.ExchangeLoBumpHi(c, lo)
}

// ExchangeLoBumpHi atomically swaps the low word, increments the high
// word, and returns the previous pair — an ABA-aware exchange.
func (w *Word128) ExchangeLoBumpHi(c *Ctx, lo uint64) (oldLo, oldHi uint64) {
	if c.sys.routeDCAS(c, w.home) {
		c.sys.amCall(c, w.home, comm.KindDCASRemote, func() { oldLo, oldHi = w.cell.SwapLoBumpHi(lo) })
		return oldLo, oldHi
	}
	return w.cell.SwapLoBumpHi(lo)
}

// DCAS performs a double-word compare-and-swap: iff the cell equals
// (expLo, expHi) it is replaced by (newLo, newHi). This is the
// CMPXCHG16B the paper's ABA protection is built on.
func (w *Word128) DCAS(c *Ctx, expLo, expHi, newLo, newHi uint64) (ok bool) {
	if c.sys.routeDCAS(c, w.home) {
		c.sys.amCall(c, w.home, comm.KindDCASRemote, func() { ok = w.cell.CAS(expLo, expHi, newLo, newHi) })
	} else {
		ok = w.cell.CAS(expLo, expHi, newLo, newHi)
	}
	c.sys.counters.IncCAS(c.here.id, ok)
	return ok
}
