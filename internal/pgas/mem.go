package pgas

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

// Global-address-space memory operations. Allocation and free are
// routed to the owning locale's heap; loads of remote objects pay a
// GET. Bulk free is the transport for the EpochManager's scatter
// lists: one shipment per locale instead of one RPC per object. The
// Ctx methods store untyped objects, each behind an `any` box; a
// structure's nodes go through its Slab instead.

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

// Slab is the typed allocation handle for node type T: the structure
// that owns T's nodes obtains it once, when it is constructed, and
// allocates and dereferences through it. Its nodes sit bare in typed
// heap chunks (gas.Type), so a Load is a directory load, a tag compare
// and a slot load, with no interface box and no type assertion. AllocOn
// and Load book and charge exactly what Ctx.AllocOn and Ctx.Load do.
// Frees go through Ctx.Free and Ctx.FreeBulk, which take any address.
type Slab[T any] struct {
	sys *System
	typ gas.Type[T]
}

// NewSlab returns s's handle for node type T.
func NewSlab[T any](s *System) Slab[T] {
	return Slab[T]{sys: s, typ: gas.TypeOf[T]()}
}

// AllocOn publishes obj on the given locale's heap, as Ctx.AllocOn
// does: a remote allocation is one on-statement.
func (sl Slab[T]) AllocOn(c *Ctx, locale int, obj *T) gas.Addr {
	if locale != c.here.id {
		sl.sys.charge(c, c.here.id, locale, comm.KindOnStmt)
	}
	return sl.typ.Alloc(sl.sys.locales[locale].heap, obj)
}

// AllocBulkOn publishes every node in objs on the given locale's heap,
// shipping the batch as one bulk transfer (16 bytes a node) instead of
// one on-statement per node — the allocation-side counterpart of
// FreeBulk, and what the structures' bulk-insert paths build on. The
// returned addresses are in objs order. A local batch is free.
func (sl Slab[T]) AllocBulkOn(c *Ctx, locale int, objs []*T) []gas.Addr {
	addrs := make([]gas.Addr, len(objs))
	if len(objs) == 0 {
		return addrs
	}
	if locale != c.here.id {
		sl.sys.chargeBulk(c, c.here.id, locale, int64(len(objs)*16))
	}
	h := sl.sys.locales[locale].heap
	for i, obj := range objs {
		addrs[i] = sl.typ.Alloc(h, obj)
	}
	return addrs
}

// Load fetches the node at addr; remote addresses pay a GET. ok is
// false on a detected use-after-free. It panics if addr is not a T
// node (gas.Type.Load).
func (sl Slab[T]) Load(c *Ctx, addr gas.Addr) (*T, bool) {
	owner := addr.Locale()
	if owner != c.here.id {
		c.ChargeGet(owner)
	}
	return sl.typ.Load(sl.sys.locales[owner].heap, addr)
}

// MustLoad is Load for callers whose protocol guarantees the node is
// live (e.g. under an epoch pin); it panics on use-after-free, which
// the test suite uses to prove reclamation safety.
func (sl Slab[T]) MustLoad(c *Ctx, addr gas.Addr) *T {
	n, ok := sl.Load(c, addr)
	if !ok {
		panic(fmt.Sprintf("pgas: use-after-free dereferencing %v", addr))
	}
	return n
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
