// Package epoch implements the paper's EpochManager: epoch-based
// memory reclamation (EBR, Fraser 2004) adapted to distributed memory
// with global-view programming.
//
// Deleting memory that concurrent tasks may still be reading is the
// foundational problem of non-blocking data structures. EBR defers
// each deletion into a "limbo list" tagged with the epoch in which the
// object was logically removed; once every participating task has
// provably moved past every epoch in which it could still reach the
// object, the list is reclaimed in bulk.
//
// The distributed adaptation privatizes the manager: each locale holds
// its own instance (token lists, four limbo lists, an epoch cache)
// reached with zero communication, while a single globally coherent
// epoch object arbitrates advancement. Reclamation sorts dead objects
// by owning locale into scatter lists so each remote locale receives
// one bulk deallocation instead of one RPC per object.
package epoch

import (
	"sync/atomic"

	"gopgas/internal/core/atomics"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// limboBlockSize is how many deferred objects one limbo block holds.
const limboBlockSize = 64

// limboBlock is a run of deferred objects in a limbo list. Blocks are
// allocated from the owning locale's heap and recycled through an
// ABA-protected Treiber stack, never freed — the recycling pattern the
// paper builds from its own AtomicObject (Listing 1 / Listing 2),
// applied to a block of addresses rather than to one node per object
// (DEBRA's "blockbags", Brown 2015).
//
// n counts the slots pushers have claimed, with one fetch-and-add
// each. It runs past limboBlockSize when pushers find the block full,
// so every reader clamps it (len). next is an atomic because a Treiber
// pop reads the next pointer of a block another task may concurrently
// win and repurpose; the ABA stamp makes the subsequent CAS fail
// safely, but the read itself must still be a proper atomic load (the
// Go analogue of the relaxed loads a C/Chapel implementation would
// use). The slots are plain words: each is written once, by the one
// pusher whose fetch-and-add claimed it, and read only in the deletion
// phase (LimboList).
type limboBlock struct {
	n    atomic.Int64  // slots claimed; past limboBlockSize once full
	next atomic.Uint64 // gas.Addr of the next block (locale-local)
	objs [limboBlockSize]gas.Addr
}

// len is the number of filled slots.
func (b *limboBlock) len() int { return int(min(b.n.Load(), limboBlockSize)) }

func (b *limboBlock) loadNext() gas.Addr   { return gas.Addr(b.next.Load()) }
func (b *limboBlock) storeNext(a gas.Addr) { b.next.Store(uint64(a)) }

// LimboList is the paper's wait-free deferral list (Listing 2), kept
// as a chain of blocks. It has two strictly disjoint phases: an
// insertion phase in which any number of tasks Push concurrently, and
// a deletion phase in which the elected reclaimer removes everything
// at once. A push claims a slot of the head block with one
// fetch-and-add; only a push that finds the head block full publishes
// a new one, with Listing 2's single exchange. The bulk removal is one
// exchange too — wait-free.
//
// Two writes of a push land after whatever made them visible: the
// slot store after the fetch-and-add that claimed it, and a new
// block's next pointer after the exchange that published it (exactly
// as in Listing 2). Both are safe, and race-free, because the epoch
// protocol guarantees the deletion phase for a given list begins only
// after every task that could push to it has become quiescent; the
// unpin/scan atomics order those writes before the traversal. A new
// block's count and slot 0 are written before its exchange, so a
// pusher that reads the new head sees a block already holding one
// object.
type LimboList struct {
	locale int
	head   *atomics.LocalAtomicObject // exchange-only; no CAS, no ABA hazard
	pool   *atomics.LocalAtomicObject // ABA-protected Treiber stack of free blocks
	blocks pgas.Slab[limboBlock]
}

// newLimboList creates an empty limbo list owned by the ctx's locale,
// recycling its blocks through pool.
func newLimboList(c *pgas.Ctx, pool *atomics.LocalAtomicObject) *LimboList {
	return &LimboList{locale: c.Here(), head: atomics.NewLocal(c.Here(), false), pool: pool,
		blocks: pgas.NewSlab[limboBlock](c.Sys())}
}

// newGenerations builds a manager's limbo lists, one per epoch, on the
// ctx's locale. They share one block pool, so the pool holds the
// locale's peak limbo length once: a pool per list held every
// generation's own peak, and deferrals come in bursts (a pinned task
// descheduled for a few milliseconds blocks every advance meanwhile).
// Sharing adds a chain push from Release beside the pushers' pops from
// other generations; the stamped CASes order them as they order pops
// among themselves.
func newGenerations(c *pgas.Ctx) (limbo [numEpochs + 1]*LimboList) {
	pool := atomics.NewLocal(c.Here(), true)
	for e := firstEpoch; e <= numEpochs; e++ {
		limbo[e] = newLimboList(c, pool)
	}
	return limbo
}

// Push defers obj onto the list: one fetch-and-add claims a slot of
// the head block. When the block is full (or the list empty), a block
// from the pool, obj already in its slot 0, is published with a single
// wait-free exchange of the head: Listing 2, verbatim, once per
// limboBlockSize objects. Two pushers that find the head full at once
// both publish a block; the one that loses the head keeps its spare
// slots as slack, and nothing is lost.
func (l *LimboList) Push(c *pgas.Ctx, obj gas.Addr) {
	if top := l.head.Read(); !top.IsNil() {
		b := l.blocks.MustLoad(c, top)
		if i := b.n.Add(1) - 1; i < limboBlockSize {
			b.objs[i] = obj
			return
		}
	}
	l.publish(c, obj)
}

// publish files obj in slot 0 of a block from the pool and makes that
// block the list's head: old := head.Exchange(block); block.next = old.
func (l *LimboList) publish(c *pgas.Ctx, obj gas.Addr) {
	addr, b := l.freshBlock(c)
	b.n.Store(1)
	b.objs[0] = obj
	oldHead := l.head.Exchange(addr)
	b.storeNext(oldHead)
}

// PopAll detaches the entire list in one exchange and returns its
// head; the caller hands the chain to Release. Must only be called in
// the deletion phase (no concurrent pushers), per the epoch protocol.
func (l *LimboList) PopAll() gas.Addr {
	return l.head.Exchange(gas.AddrNil)
}

// Release walks a chain PopAll detached exactly once, calling visit
// with every deferred object, and hands the whole chain back to the
// free pool with a single stamped CAS: the chain is already linked
// head to tail, so only the tail's next pointer changes. A nil head is
// a no-op.
func (l *LimboList) Release(c *pgas.Ctx, head gas.Addr, visit func(obj gas.Addr)) {
	if head.IsNil() {
		return
	}
	var tail *limboBlock
	for blk := head; !blk.IsNil(); blk = tail.loadNext() {
		tail = l.blocks.MustLoad(c, blk)
		for _, obj := range tail.objs[:tail.len()] {
			visit(obj)
		}
	}
	for {
		top := l.pool.ReadABA()
		tail.storeNext(top.Object())
		if l.pool.CompareAndSwapABA(top, head) {
			return
		}
	}
}

// freshBlock pops a block from the free pool — ABA-protected: between
// reading the top and the CAS another task may pop, recycle, and
// re-push the same block address, which the stamp detects — or
// allocates one if the pool is empty.
func (l *LimboList) freshBlock(c *pgas.Ctx) (gas.Addr, *limboBlock) {
	for {
		top := l.pool.ReadABA()
		if top.IsNil() {
			b := &limboBlock{}
			return l.blocks.AllocOn(c, c.Here(), b), b
		}
		b := l.blocks.MustLoad(c, top.Object())
		if l.pool.CompareAndSwapABA(top, b.loadNext()) {
			return top.Object(), b
		}
	}
}

// Len counts the deferred objects on the list by walking its blocks. A
// push fills its slot after the fetch-and-add that counts it, and links
// a new block after the exchange that publishes it, so the count is
// exact only while no push is in flight.
func (l *LimboList) Len(c *pgas.Ctx) int {
	n := 0
	for blk := l.head.Read(); !blk.IsNil(); {
		b := l.blocks.MustLoad(c, blk)
		n += b.len()
		blk = b.loadNext()
	}
	return n
}

// Drain pops every deferred object into a slice — a convenience used
// by tests; the production path scatters straight from Release without
// materialising a slice.
func (l *LimboList) Drain(c *pgas.Ctx) []gas.Addr {
	var objs []gas.Addr
	l.Release(c, l.PopAll(), func(obj gas.Addr) { objs = append(objs, obj) })
	return objs
}
