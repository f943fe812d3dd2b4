package gas

import "sync"

// Cell128 is a double-word cell with the atomicity of x86-64's
// CMPXCHG16B, the instruction the paper's ABA protection is built on.
// Go has no 128-bit atomic, so a per-cell lock emulates it: held for a
// handful of instructions, it stands in the same relation to the
// algorithms as LL/SC emulation does on ARM. Every double-word cell in
// the system (pgas.Word128, the ABA half of atomics.LocalAtomicObject)
// is one of these, so a lock-free implementation replaces one type.
//
// The zero value is the cell (0, 0). A Cell128 must not be copied after
// first use.
type Cell128 struct {
	mu sync.Mutex
	lo uint64
	hi uint64
}

// Load returns both halves.
func (c *Cell128) Load() (lo, hi uint64) {
	c.mu.Lock()
	lo, hi = c.lo, c.hi
	c.mu.Unlock()
	return lo, hi
}

// Swap stores (lo, hi) and returns the previous pair.
func (c *Cell128) Swap(lo, hi uint64) (oldLo, oldHi uint64) {
	c.mu.Lock()
	oldLo, oldHi = c.lo, c.hi
	c.lo, c.hi = lo, hi
	c.mu.Unlock()
	return oldLo, oldHi
}

// SwapLoBumpHi stores lo, increments hi and returns the previous pair:
// an ABA-stamped exchange.
func (c *Cell128) SwapLoBumpHi(lo uint64) (oldLo, oldHi uint64) {
	c.mu.Lock()
	oldLo, oldHi = c.lo, c.hi
	c.lo = lo
	c.hi++
	c.mu.Unlock()
	return oldLo, oldHi
}

// CAS replaces the cell with (newLo, newHi) iff it equals (expLo,
// expHi), reporting success.
func (c *Cell128) CAS(expLo, expHi, newLo, newHi uint64) (ok bool) {
	c.mu.Lock()
	if ok = c.lo == expLo && c.hi == expHi; ok {
		c.lo, c.hi = newLo, newHi
	}
	c.mu.Unlock()
	return ok
}

// LoadLo returns the low word.
func (c *Cell128) LoadLo() uint64 {
	c.mu.Lock()
	v := c.lo
	c.mu.Unlock()
	return v
}

// SwapLo stores the low word, leaving the high word untouched, and
// returns the previous low word.
func (c *Cell128) SwapLo(lo uint64) uint64 {
	c.mu.Lock()
	old := c.lo
	c.lo = lo
	c.mu.Unlock()
	return old
}

// CASLo replaces the low word with new iff it equals old, leaving the
// high word untouched, and reports success.
func (c *Cell128) CASLo(old, new uint64) (ok bool) {
	c.mu.Lock()
	if ok = c.lo == old; ok {
		c.lo = new
	}
	c.mu.Unlock()
	return ok
}
