package gas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Heap is one locale's slab allocator. Objects live in slots addressed
// by their index; Alloc hands out slots from a LIFO free list so that a
// freed address is reused promptly — the same allocator behaviour that
// makes the ABA problem real on a free-list based system allocator.
//
// Freed slots are poisoned: the slot remembers that it is free, and
// Load of a freed slot reports a use-after-free instead of silently
// returning stale or recycled data. This turns the undefined behaviour
// the paper's reclamation machinery exists to prevent into a checkable
// predicate that the test suite asserts on.
//
// Storage is chunked: slots live in fixed-size chunks reachable
// through an immutable directory slice that the allocator republishes
// atomically when it grows. Every chunk belongs to one node type,
// named by the Tag stored beside the chunk pointer in the directory:
// tag 0 is the untyped chunk, whose slots point at a boxed `any`
// (Alloc, Load, Store), and any other tag is a Type's chunk, whose
// slots hold the bare *T (Type.Alloc, Type.Load). A load through the
// wrong face — a typed Load with another tag, an untyped Load or Store
// of a typed address — panics rather than reinterpret memory. A slot is
// a single atomic pointer — nil is the poison state — so Load and Store
// are lock-free (Store is a CAS loop so it can never resurrect a slot a
// concurrent Free just poisoned). The allocator's mutex is confined to
// the free-list bookkeeping of Alloc and Free, standing in for the
// (also locking) system allocator underneath Chapel's `new`; the read
// path every structure dereference rides never touches it. Each tag
// has its own LIFO free list and its own bump range in its newest
// chunk, so a freed slot is reused only by an object of its own type.
//
// Whatever a slot points at — a typed node, or an untyped object's box
// — is a fresh Go allocation written before the slot store that
// publishes it and never rewritten: not by Free (which only nils the
// slot), not by a later Store (which installs a fresh box). That is
// what lets a reader that loaded the pointer just before a Free still
// read the old object instead of a recycled one.
//
// Layout: locale and dir are read by every Load and Store, other
// locales' GETs included; the allocator words below them are written
// by every Alloc and Free. 128 bytes (an adjacent-line pair) separate
// the two groups, and the trailing pad does the same for the heap
// allocated right after this one, the next locale's (TestHeapLayout).
type Heap struct {
	locale int

	dir atomic.Pointer[[]dirEntry] // immutable directory, grown copy-on-write

	_     [128]byte
	mu    sync.Mutex
	pools []pool // allocator state per tag, indexed by Tag

	live      atomic.Int64 // currently allocated slots
	allocs    atomic.Int64 // total allocations
	frees     atomic.Int64 // total frees
	uafLoads  atomic.Int64 // detected use-after-free loads
	uafStores atomic.Int64 // detected use-after-free stores
	uafFrees  atomic.Int64 // detected double frees
	highWater atomic.Int64 // maximum simultaneous live slots
	_         [128]byte
}

const (
	chunkBits = 12 // 4096 slots per chunk
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is one fixed block of slots, each accessed only through
// sync/atomic. A slot is nil while free (or never yet allocated) and
// points at its object while live: the bare node in a typed chunk, a
// box holding the object in an untyped one.
type chunk [chunkSize]unsafe.Pointer

// dirEntry is one directory entry: a chunk and the tag of the type
// its slots hold. Both are fixed when the directory that first lists
// the chunk is published.
type dirEntry struct {
	slots *chunk
	tag   Tag
}

// pool is one tag's allocator state: its LIFO stack of free slot
// indices and the bump range [next, end) left in its newest chunk.
type pool struct {
	free      []uint64
	next, end uint64
}

// NewHeap creates the heap for the given locale id.
func NewHeap(locale int) *Heap {
	return &Heap{locale: locale}
}

// Locale returns the id of the locale this heap belongs to.
func (h *Heap) Locale() int { return h.locale }

// slot returns the cell for idx and the tag of its chunk, or a nil
// cell when idx lies beyond the published directory (an address this
// heap never handed out).
func (h *Heap) slot(idx uint64) (*unsafe.Pointer, Tag) {
	dirp := h.dir.Load()
	if dirp == nil {
		return nil, 0
	}
	dir := *dirp
	ci := idx >> chunkBits
	if ci >= uint64(len(dir)) {
		return nil, 0
	}
	e := &dir[ci]
	return &e.slots[idx&chunkMask], e.tag
}

// claim takes a slot index for an object of tag: the top of the tag's
// free list, or the next never-used slot of its newest chunk, growing
// the directory by one chunk of tag when that chunk is full. The index
// is privately owned until the caller publishes into it.
func (h *Heap) claim(tag Tag) uint64 {
	h.mu.Lock()
	if int(tag) >= len(h.pools) {
		h.pools = append(h.pools, make([]pool, int(tag)+1-len(h.pools))...)
	}
	p := &h.pools[tag]
	var idx uint64
	if n := len(p.free); n > 0 {
		idx = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if p.next == p.end {
			p.next = h.grow(tag)
			p.end = p.next + chunkSize
		}
		idx = p.next
		p.next++
	}
	h.mu.Unlock()
	return idx
}

// grow appends one chunk of tag to the directory and returns the index
// of its first slot. Caller holds h.mu; the new directory is a fresh
// slice so concurrent readers keep a consistent view of whichever
// version they loaded.
func (h *Heap) grow(tag Tag) uint64 {
	var dir []dirEntry
	if dirp := h.dir.Load(); dirp != nil {
		dir = *dirp
	}
	next := make([]dirEntry, len(dir)+1)
	copy(next, dir)
	next[len(dir)] = dirEntry{slots: new(chunk), tag: tag}
	h.dir.Store(&next)
	return uint64(len(dir)) << chunkBits
}

// publish stores obj in a freshly claimed slot of tag and books the
// allocation.
func (h *Heap) publish(tag Tag, obj unsafe.Pointer) Addr {
	idx := h.claim(tag)
	// A Load racing the reallocation of idx sees either poison or the
	// new object.
	s, _ := h.slot(idx)
	atomic.StorePointer(s, obj)

	h.allocs.Add(1)
	live := h.live.Add(1)
	for {
		hw := h.highWater.Load()
		if live <= hw || h.highWater.CompareAndSwap(hw, live) {
			break
		}
	}
	return MakeAddr(h.locale, idx)
}

// Alloc boxes obj in a slot of an untyped chunk and returns its global
// address. Freed slots are reused LIFO, so the returned Addr may equal
// one freed a moment ago — deliberately so; see the package comment.
func (h *Heap) Alloc(obj any) Addr {
	return h.publish(0, unsafe.Pointer(boxOf(obj)))
}

// boxOf returns a fresh box holding obj: a box, once published, is
// never written again.
func boxOf(obj any) *any {
	box := new(any)
	*box = obj
	return box
}

// Load returns the object at addr. ok is false — and the use-after-free
// counter is incremented — if the slot has been freed and not yet
// reallocated. Load panics if addr belongs to another locale: locality
// routing is the caller's job (package pgas performs GETs for remote
// addresses); it panics too if addr is typed (use Type.Load). Load is
// lock-free: one directory load plus one slot load.
func (h *Heap) Load(addr Addr) (obj any, ok bool) {
	h.checkOwner(addr)
	s, tag := h.slot(addr.Index())
	if tag != 0 {
		badTag(addr, tag, 0) // an `any` view of a bare node would reinterpret it
	}
	if s == nil {
		h.uafLoads.Add(1)
		return nil, false
	}
	box := (*any)(atomic.LoadPointer(s))
	if box == nil {
		h.uafLoads.Add(1)
		return nil, false
	}
	return *box, true
}

// Store overwrites the untyped object at addr, reporting false if the
// slot has been freed (a detected use-after-free write, counted in
// UAFStores); it panics on a typed address, whose nodes are published
// once and never replaced. Store is lock-free: it installs a fresh box
// with a CAS so that racing a concurrent Free can only lose — a
// poisoned slot is never resurrected.
func (h *Heap) Store(addr Addr, obj any) bool {
	h.checkOwner(addr)
	s, tag := h.slot(addr.Index())
	if tag != 0 {
		badTag(addr, tag, 0)
	}
	if s == nil {
		h.uafStores.Add(1)
		return false
	}
	box := unsafe.Pointer(boxOf(obj))
	for {
		old := atomic.LoadPointer(s)
		if old == nil {
			h.uafStores.Add(1)
			return false
		}
		if atomic.CompareAndSwapPointer(s, old, box) {
			return true
		}
	}
}

// Free poisons the slot at addr, typed or not, and pushes it onto its
// tag's free list. A double free is detected, counted, and reported by
// the return value rather than corrupting the free list. The poison
// swap is atomic, so of two racing frees exactly one wins; only the
// winner touches the free list.
func (h *Heap) Free(addr Addr) bool {
	h.checkOwner(addr)
	idx := addr.Index()
	s, tag := h.slot(idx)
	if s == nil || atomic.SwapPointer(s, nil) == nil {
		h.uafFrees.Add(1)
		return false
	}
	// Count the death before the free-list push makes the slot
	// reusable: once a racing Alloc can pop idx, live must already
	// reflect the free, or its high-water update reads a peak that
	// never existed.
	h.frees.Add(1)
	h.live.Add(-1)
	h.mu.Lock()
	p := &h.pools[tag]
	p.free = append(p.free, idx)
	h.mu.Unlock()
	return true
}

// FreeBulk frees every address in addrs, typed or not, returning how
// many were live. It is the locale-side half of the EpochManager's
// scatter-list bulk deletion: one call per locale instead of one RPC
// per object — and, mirroring that batching, one pass under one lock
// acquisition that poisons each slot and pushes its index onto its own
// tag's free list. It allocates nothing beyond free-list growth.
func (h *Heap) FreeBulk(addrs []Addr) int {
	n := 0
	h.mu.Lock()
	// As in Free: the batch is counted dead before any of its slots
	// become allocatable — a racing Alloc claims under h.mu — so live
	// never transiently overshoots by the batch size. Deferred, so a
	// foreign address's panic leaves the heap unlocked and the books
	// matching the slots already poisoned.
	defer func() {
		h.frees.Add(int64(n))
		h.live.Add(-int64(n))
		h.mu.Unlock()
	}()
	for _, a := range addrs {
		if a.IsNil() {
			continue
		}
		h.checkOwner(a)
		idx := a.Index()
		s, tag := h.slot(idx)
		if s == nil || atomic.SwapPointer(s, nil) == nil {
			h.uafFrees.Add(1)
			continue
		}
		p := &h.pools[tag]
		p.free = append(p.free, idx)
		n++
	}
	return n
}

// checkOwner panics unless addr is a non-nil address of h's locale.
// The panics are out of line so that the check inlines into every
// Load, Store and Free.
func (h *Heap) checkOwner(addr Addr) {
	if addr == AddrNil || int(uint64(addr)>>IndexBits) != h.locale {
		h.badOwner(addr)
	}
}

//go:noinline
func (h *Heap) badOwner(addr Addr) {
	if addr.IsNil() {
		panic("gas: nil Addr dereference")
	}
	panic(fmt.Sprintf("gas: addr %v accessed via heap of locale %d", addr, h.locale))
}

// badTag panics for an access to addr, a slot of a chunk of tag got,
// through the face of tag want (0: the untyped one) — a program bug,
// not a reclamation hazard. It is out of line so the loads stay small.
//
//go:noinline
func badTag(addr Addr, got, want Tag) {
	panic(fmt.Sprintf("gas: %v is a slot of chunk tag %d, accessed as tag %d (0 = untyped)", addr, got, want))
}

// Stats is a snapshot of a heap's allocation counters.
type Stats struct {
	Live      int64 // currently allocated slots
	Allocs    int64 // total allocations
	Frees     int64 // total frees
	UAFLoads  int64 // detected use-after-free loads
	UAFStores int64 // detected use-after-free stores
	UAFFrees  int64 // detected double frees
	HighWater int64 // maximum simultaneous live slots
}

// Stats returns a point-in-time snapshot of the heap counters.
func (h *Heap) Stats() Stats {
	return Stats{
		Live:      h.live.Load(),
		Allocs:    h.allocs.Load(),
		Frees:     h.frees.Load(),
		UAFLoads:  h.uafLoads.Load(),
		UAFStores: h.uafStores.Load(),
		UAFFrees:  h.uafFrees.Load(),
		HighWater: h.highWater.Load(),
	}
}

// Add accumulates two stats snapshots, for whole-system totals.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Live:      s.Live + o.Live,
		Allocs:    s.Allocs + o.Allocs,
		Frees:     s.Frees + o.Frees,
		UAFLoads:  s.UAFLoads + o.UAFLoads,
		UAFStores: s.UAFStores + o.UAFStores,
		UAFFrees:  s.UAFFrees + o.UAFFrees,
		HighWater: s.HighWater + o.HighWater,
	}
}

// String formats the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("live=%d allocs=%d frees=%d uafLoads=%d uafStores=%d uafFrees=%d highWater=%d",
		s.Live, s.Allocs, s.Frees, s.UAFLoads, s.UAFStores, s.UAFFrees, s.HighWater)
}
