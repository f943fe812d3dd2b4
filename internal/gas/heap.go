package gas

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Heap is one locale's slab allocator. Objects (arbitrary Go values)
// live in slots addressed by their index; Alloc hands out slots from a
// LIFO free list so that a freed address is reused promptly — the same
// allocator behaviour that makes the ABA problem real on a free-list
// based system allocator.
//
// Freed slots are poisoned: the slot remembers that it is free, and
// Load of a freed slot reports a use-after-free instead of silently
// returning stale or recycled data. This turns the undefined behaviour
// the paper's reclamation machinery exists to prevent into a checkable
// predicate that the test suite asserts on.
//
// Storage is chunked: slots live in fixed-size chunks reachable
// through an immutable directory slice that Alloc republishes
// atomically when it grows. A slot holds a single atomic pointer to a
// boxed object — nil is the poison state — so Load and Store are
// lock-free (Store is a CAS loop so it can never resurrect a slot a
// concurrent Free just poisoned). The allocator's mutex is confined to
// Alloc/Free free-list bookkeeping, standing in for the (also locking)
// system allocator underneath Chapel's `new`; the read path every
// structure Deref rides never touches it.
//
// The box is a Go `any` cell. An object that embeds Boxed carries that
// cell inside itself, so publishing it costs no host allocation beyond
// the object's own and Load reaches box and object on one cache line;
// any other object gets a freshly allocated box. Either way a box is
// written exactly once, before the slot store that publishes it, and
// never again — not by Free, not by a later Store (an object whose
// embedded box is already in use gets a fresh one) — which is what
// lets a reader that loaded the box just before a Free still read the
// old object instead of a recycled one.
//
// Layout: locale and dir are read by every Load and Store, other
// locales' GETs included; the allocator words below them are written
// by every Alloc and Free. 128 bytes (an adjacent-line pair) separate
// the two groups, and the trailing pad does the same for the heap
// allocated right after this one, the next locale's (TestHeapLayout).
type Heap struct {
	locale int

	dir atomic.Pointer[[]*chunk] // immutable directory, grown copy-on-write

	_    [128]byte
	mu   sync.Mutex
	next uint64   // bump index for never-used slots
	free []uint64 // LIFO stack of free slot indices

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

// chunk is one fixed block of slots. A slot's pointer is nil while the
// slot is free (or never yet allocated) and points at the boxed object
// while it is live; boxes are immutable once published (Store installs
// a fresh box rather than mutating the old one), so a reader that won
// the race to load a box may safely dereference it.
type chunk [chunkSize]atomic.Pointer[any]

// Boxed is the header a heap-resident type embeds (by value, with the
// object handed to Alloc as a pointer) to carry its own slot box: the
// object and its box are then one host allocation instead of two. The
// zero value is ready to use; the first Alloc or Store of the object
// claims the box, which must happen on one goroutine — an unpublished
// object has one owner.
type Boxed struct{ box any }

func (b *Boxed) heapBox() *any { return &b.box }

// boxOf returns the box to publish for obj: the one embedded in obj
// while that is still empty, a fresh one otherwise. It never writes a
// box that has been published.
func boxOf(obj any) *any {
	if b, ok := obj.(interface{ heapBox() *any }); ok {
		if box := b.heapBox(); *box == nil {
			*box = obj
			return box
		}
	}
	box := new(any)
	*box = obj
	return box
}

// NewHeap creates the heap for the given locale id.
func NewHeap(locale int) *Heap {
	return &Heap{locale: locale}
}

// Locale returns the id of the locale this heap belongs to.
func (h *Heap) Locale() int { return h.locale }

// slot returns the cell for idx, or nil when idx lies beyond the
// published directory (an address this heap never handed out).
func (h *Heap) slot(idx uint64) *atomic.Pointer[any] {
	dirp := h.dir.Load()
	if dirp == nil {
		return nil
	}
	dir := *dirp
	ci := idx >> chunkBits
	if ci >= uint64(len(dir)) {
		return nil
	}
	return &dir[ci][idx&chunkMask]
}

// grow ensures the directory covers idx. Caller holds h.mu; the new
// directory is a fresh slice so concurrent readers keep a consistent
// view of whichever version they loaded.
func (h *Heap) grow(idx uint64) {
	var dir []*chunk
	if dirp := h.dir.Load(); dirp != nil {
		dir = *dirp
	}
	need := int(idx>>chunkBits) + 1
	if need <= len(dir) {
		return
	}
	next := make([]*chunk, need)
	copy(next, dir)
	for i := len(dir); i < need; i++ {
		next[i] = new(chunk)
	}
	h.dir.Store(&next)
}

// Alloc stores obj in a slot and returns its global address. Freed
// slots are reused LIFO, so the returned Addr may equal one freed a
// moment ago — deliberately so; see the package comment.
func (h *Heap) Alloc(obj any) Addr {
	box := boxOf(obj)

	h.mu.Lock()
	var idx uint64
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		idx = h.next
		h.next++
		h.grow(idx)
	}
	h.mu.Unlock()

	// idx is privately owned between the free-list pop (or bump) and
	// this publish: a Load racing the reallocation sees either poison
	// or the new object, exactly as under the old all-mutex scheme.
	h.slot(idx).Store(box)

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

// Load returns the object at addr. ok is false — and the use-after-free
// counter is incremented — if the slot has been freed and not yet
// reallocated. Load panics if addr belongs to another locale: locality
// routing is the caller's job (package pgas performs GETs for remote
// addresses). Load is lock-free: one directory load plus one slot load.
func (h *Heap) Load(addr Addr) (obj any, ok bool) {
	h.checkOwner(addr)
	s := h.slot(addr.Index())
	if s == nil {
		h.uafLoads.Add(1)
		return nil, false
	}
	box := s.Load()
	if box == nil {
		h.uafLoads.Add(1)
		return nil, false
	}
	return *box, true
}

// Store overwrites the object at addr, reporting false if the slot has
// been freed (a detected use-after-free write, counted in UAFStores).
// Store is lock-free: it installs a box no reader has seen (boxOf) with
// a CAS so that racing a concurrent Free can only lose — a poisoned slot
// is never resurrected.
func (h *Heap) Store(addr Addr, obj any) bool {
	h.checkOwner(addr)
	s := h.slot(addr.Index())
	if s == nil {
		h.uafStores.Add(1)
		return false
	}
	box := boxOf(obj)
	for {
		old := s.Load()
		if old == nil {
			h.uafStores.Add(1)
			return false
		}
		if s.CompareAndSwap(old, box) {
			return true
		}
	}
}

// Free poisons the slot at addr and pushes it onto the free list. A
// double free is detected, counted, and reported by the return value
// rather than corrupting the free list. The poison swap is atomic, so
// of two racing frees exactly one wins; only the winner touches the
// free list.
func (h *Heap) Free(addr Addr) bool {
	h.checkOwner(addr)
	idx := addr.Index()
	s := h.slot(idx)
	if s == nil || s.Swap(nil) == nil {
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
	h.free = append(h.free, idx)
	h.mu.Unlock()
	return true
}

// FreeBulk frees every address in addrs, returning how many were live.
// It is the locale-side half of the EpochManager's scatter-list bulk
// deletion: one call per locale instead of one RPC per object — and,
// mirroring that batching, one free-list append under one lock
// acquisition for the whole batch.
func (h *Heap) FreeBulk(addrs []Addr) int {
	freed := make([]uint64, 0, len(addrs))
	for _, a := range addrs {
		if a.IsNil() {
			continue
		}
		h.checkOwner(a)
		idx := a.Index()
		if s := h.slot(idx); s == nil || s.Swap(nil) == nil {
			h.uafFrees.Add(1)
			continue
		}
		freed = append(freed, idx)
	}
	if len(freed) == 0 {
		return 0
	}
	// As in Free: the batch is counted dead before any of its slots
	// become allocatable, so live never transiently overshoots by the
	// batch size under a racing Alloc.
	h.frees.Add(int64(len(freed)))
	h.live.Add(-int64(len(freed)))
	h.mu.Lock()
	h.free = append(h.free, freed...)
	h.mu.Unlock()
	return len(freed)
}

func (h *Heap) checkOwner(addr Addr) {
	if addr.IsNil() {
		panic("gas: nil Addr dereference")
	}
	if addr.Locale() != h.locale {
		panic(fmt.Sprintf("gas: addr %v accessed via heap of locale %d", addr, h.locale))
	}
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
