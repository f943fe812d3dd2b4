package pgas

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

// Global-address-space memory operations. Every object lives on its
// owning locale's heap as a typed node: a structure, a figure or an
// example obtains one Slab per node type and allocates and loads
// through it; a remote allocation is an on-statement, a remote load a
// GET. Free and FreeBulk take any address. Bulk free is the transport
// for the EpochManager's scatter lists: one shipment per locale instead
// of one RPC per object.

// Alloc boxes obj on the current locale's heap and returns its global
// address — `new unmanaged C()` on `here`.
//
// Deprecated: allocate through a Slab instead. Alloc and Load stay
// only for the benchmark ladder's rungs; ROADMAP item 7 moves them onto
// typed nodes and item 27(c) then deletes both.
func (c *Ctx) Alloc(obj any) gas.Addr {
	return c.here.heap.Alloc(obj)
}

// Load fetches the boxed object at addr. Remote addresses pay a GET.
// ok is false when the slot has been freed — a detected use-after-free.
//
// Deprecated: load through the object's Slab instead; see Alloc.
func (c *Ctx) Load(addr gas.Addr) (any, bool) {
	owner := addr.Locale()
	if owner != c.here.id {
		c.ChargeGet(owner)
	}
	return c.sys.locales[owner].heap.Load(addr)
}

// Slab is the typed allocation handle for node type T: the structure
// that owns T's nodes obtains it once, when it is constructed, and
// allocates and dereferences through it. Its nodes sit bare in typed
// heap chunks (gas.Type), so a Load is a directory load, a tag compare
// and a slot load, with no interface box and no type assertion. Frees
// go through Ctx.Free and Ctx.FreeBulk, which take any address.
type Slab[T any] struct {
	sys *System
	typ gas.Type[T]
}

// NewSlab returns s's handle for node type T.
func NewSlab[T any](s *System) Slab[T] {
	return Slab[T]{sys: s, typ: gas.TypeOf[T]()}
}

// AllocOn publishes obj on the given locale's heap. A remote
// allocation is one on-statement (the paper's benchmarks randomize
// object placement this way before the timed region).
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
