package pgas

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

// Global-address-space memory operations. Allocation and free are
// routed to the owning locale's heap; loads of remote objects pay a
// GET. Bulk free is the transport for the EpochManager's scatter
// lists: one shipment per locale instead of one RPC per object.

// Alloc stores obj on the current locale's heap and returns its global
// address — `new unmanaged C()` on `here`.
func (c *Ctx) Alloc(obj any) gas.Addr {
	return c.here.heap.Alloc(obj)
}

// AllocOn stores obj on the given locale's heap. A remote allocation
// is an on-statement (the paper's benchmarks randomize object
// placement this way before the timed region).
func (c *Ctx) AllocOn(locale int, obj any) gas.Addr {
	if locale == c.here.id {
		return c.Alloc(obj)
	}
	s := c.sys
	s.charge(c, c.here.id, locale, comm.KindOnStmt)
	return s.locales[locale].heap.Alloc(obj)
}

// AllocBulkOn stores every object in objs on the given locale's heap,
// shipping the batch as one bulk transfer instead of one on-statement
// per object — the allocation-side counterpart of FreeBulk, and what
// the structures' bulk-insert paths build on. The returned addresses
// are in objs order. A local batch is free, like Alloc.
func (c *Ctx) AllocBulkOn(locale int, objs []any) []gas.Addr {
	addrs := make([]gas.Addr, len(objs))
	if len(objs) == 0 {
		return addrs
	}
	s := c.sys
	if locale != c.here.id {
		s.chargeBulk(c, c.here.id, locale, int64(len(objs)*16))
	}
	h := s.locales[locale].heap
	for i, obj := range objs {
		addrs[i] = h.Alloc(obj)
	}
	return addrs
}

// Load fetches the object at addr. Remote addresses pay a GET. ok is
// false when the slot has been freed — a detected use-after-free.
func (c *Ctx) Load(addr gas.Addr) (any, bool) {
	owner := addr.Locale()
	if owner != c.here.id {
		c.ChargeGet(owner)
	}
	return c.sys.locales[owner].heap.Load(addr)
}

// Deref fetches the object at addr and asserts its type. The second
// result is false on a detected use-after-free. Deref panics if the
// object exists but has a different type: that is a program bug, not a
// reclamation hazard.
func Deref[T any](c *Ctx, addr gas.Addr) (T, bool) {
	obj, ok := c.Load(addr)
	if !ok {
		var zero T
		return zero, false
	}
	t, isT := obj.(T)
	if !isT {
		panic(fmt.Sprintf("pgas: Deref[%T] of %v which holds %T", t, addr, obj))
	}
	return t, true
}

// MustDeref is Deref for callers whose protocol guarantees the object
// is live (e.g. under an epoch pin); it panics on use-after-free,
// which the test suite uses to prove reclamation safety.
func MustDeref[T any](c *Ctx, addr gas.Addr) T {
	v, ok := Deref[T](c, addr)
	if !ok {
		panic(fmt.Sprintf("pgas: use-after-free dereferencing %v", addr))
	}
	return v
}

// Put overwrites the object stored at addr. Remote addresses pay a
// PUT. It reports false if the slot was already freed.
func (c *Ctx) Put(addr gas.Addr, obj any) bool {
	owner := addr.Locale()
	if owner != c.here.id {
		c.sys.charge(c, c.here.id, owner, comm.KindPut)
	}
	return c.sys.locales[owner].heap.Store(addr, obj)
}

// Free releases the object at addr on its owning locale. A remote free
// is an on-statement (exactly the cost scatter lists avoid), booked and
// charged as one. It reports false on double free.
func (c *Ctx) Free(addr gas.Addr) bool {
	owner := addr.Locale()
	if owner != c.here.id {
		c.sys.charge(c, c.here.id, owner, comm.KindOnStmt)
	}
	return c.sys.locales[owner].heap.Free(addr)
}

// FreeBulk ships addrs to the target locale in one bulk transfer and
// frees them there under one acquisition of its allocator lock,
// returning the number actually freed. All addrs must be owned by
// locale (the heap panics on a foreign one); the EpochManager builds
// exactly such per-locale batches in its scatter phase. Like every
// memory-plane operation it is never refused: a batch homed on a
// crashed or severed locale still reaches that locale's heap.
func (c *Ctx) FreeBulk(locale int, addrs []gas.Addr) int {
	if len(addrs) == 0 {
		return 0
	}
	s := c.sys
	if locale != c.here.id {
		s.chargeBulk(c, c.here.id, locale, int64(len(addrs)*8))
	}
	return s.locales[locale].heap.FreeBulk(addrs)
}
