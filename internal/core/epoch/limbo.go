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

// limboNode is one deferred object in a limbo list. Nodes are
// allocated from the owning locale's heap and recycled through an
// ABA-protected Treiber stack, never freed — the recycling pattern the
// paper builds from its own AtomicObject (Listing 1 / Listing 2).
//
// The fields are atomics because a Treiber pop reads the next pointer
// of a node another task may concurrently win and repurpose; the ABA
// stamp makes the subsequent CAS fail safely, but the read itself must
// still be a proper atomic load (the Go analogue of the relaxed loads
// a C/Chapel implementation would use).
type limboNode struct {
	gas.Boxed
	val  atomic.Uint64 // gas.Addr of the deferred object
	next atomic.Uint64 // gas.Addr of the next limboNode (locale-local)
}

func (n *limboNode) loadVal() gas.Addr   { return gas.Addr(n.val.Load()) }
func (n *limboNode) storeVal(a gas.Addr) { n.val.Store(uint64(a)) }
func (n *limboNode) loadNext() gas.Addr  { return gas.Addr(n.next.Load()) }
func (n *limboNode) storeNext(a gas.Addr) {
	n.next.Store(uint64(a))
}

// LimboList is the paper's wait-free deferral list (Listing 2). It has
// two strictly disjoint phases: an insertion phase in which any number
// of tasks Push concurrently, and a deletion phase in which the
// elected reclaimer removes everything at once. Both a push and the
// bulk removal complete in a single atomic exchange — wait-free.
//
// The next pointer of a pushed node is written *after* the exchange
// (exactly as in Listing 2). That is safe, and race-free, because the
// epoch protocol guarantees the deletion phase for a given list begins
// only after every task that could push to it has become quiescent;
// the unpin/scan atomics order those writes before the traversal.
type LimboList struct {
	locale int
	head   *atomics.LocalAtomicObject // exchange-only; no CAS, no ABA hazard
	pool   *atomics.LocalAtomicObject // ABA-protected Treiber stack of free nodes
}

// newLimboList creates an empty limbo list owned by the ctx's locale,
// recycling its nodes through pool.
func newLimboList(c *pgas.Ctx, pool *atomics.LocalAtomicObject) *LimboList {
	return &LimboList{locale: c.Here(), head: atomics.NewLocal(c.Here(), false), pool: pool}
}

// newGenerations builds a manager's limbo lists, one per epoch, on the
// ctx's locale. They share one node pool, so the pool holds the
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

// Push defers obj onto the list: recycle (or allocate) a node, then a
// single wait-free exchange of the head. Listing 2, verbatim.
func (l *LimboList) Push(c *pgas.Ctx, obj gas.Addr) {
	node, n := l.recycleNode(c, obj)
	oldHead := l.head.Exchange(node)
	n.storeNext(oldHead)
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
	var tail *limboNode
	for node := head; !node.IsNil(); node = tail.loadNext() {
		tail = pgas.MustDeref[*limboNode](c, node)
		if obj := tail.loadVal(); !obj.IsNil() {
			visit(obj)
		}
		tail.storeVal(gas.AddrNil)
	}
	for {
		top := l.pool.ReadABA()
		tail.storeNext(top.Object())
		if l.pool.CompareAndSwapABA(top, head) {
			return
		}
	}
}

// recycleNode pops a node from the free pool — ABA-protected: between
// reading the top and the CAS another task may pop, recycle, and
// re-push the same node address, which the stamp detects — or
// allocates a fresh node if the pool is empty.
func (l *LimboList) recycleNode(c *pgas.Ctx, obj gas.Addr) (gas.Addr, *limboNode) {
	for {
		top := l.pool.ReadABA()
		if top.IsNil() {
			n := &limboNode{}
			n.storeVal(obj)
			return c.Alloc(n), n
		}
		n := pgas.MustDeref[*limboNode](c, top.Object())
		if l.pool.CompareAndSwapABA(top, n.loadNext()) {
			n.storeVal(obj)
			n.storeNext(gas.AddrNil)
			return top.Object(), n
		}
	}
}

// Len counts the deferred objects on the list by walking it. A push
// links its node only after the exchange that publishes it, so the
// count is exact only while no push is in flight.
func (l *LimboList) Len(c *pgas.Ctx) int {
	n := 0
	for node := l.head.Read(); !node.IsNil(); node = pgas.MustDeref[*limboNode](c, node).loadNext() {
		n++
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
