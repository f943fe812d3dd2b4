package hashmap

import (
	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/list"
)

// Function shipping. A synchronous operation on a bucket another locale
// owns either walks the owner's list from the caller — the paper's data
// shipping: every word read or CAS is a remote atomic, and under NIC
// atomics the owner's CPU never runs a thing — or ships as one
// on-statement to the owner, which runs the same list code on local
// words. New picks the route once per map (shipRule); Shipped pins it
// on a handle copy. A shipped operation pins an owner-local token
// before it loads the bucket's list pointer, and a shipped write applies
// through the owner-side write body the fire-and-forget writes use
// (writeOp.apply, in a combiner pass of its own), so it is serialized
// against Migrate. A ship the fault plan refuses books nothing
// (pgas.Ctx.TryOn) and walks.

// shipRule is the route New chooses for the synchronous operations:
// ship them to the bucket's owner iff one on-statement is strictly
// cheaper than the shortest remote walk that reaches a node — the head
// word's read, one GET of the node and the read of its successor word,
// each word access a remote atomic of the backend's kind (a NIC atomic
// under ugni, an AM atomic under none) — every event at its price on
// p's price list. Under the default profile that is 4,000 ns against
// 7,000 on none (ship) and 2,800 on ugni (walk); a zero profile walks.
func shipRule(backend comm.Backend, p comm.LatencyProfile) bool {
	price := p.Prices().Event
	amo := price[comm.KindAMAMO]
	if backend == comm.BackendUGNI {
		amo = price[comm.KindNICAMO]
	}
	return price[comm.KindOnStmt] < price[comm.KindGet]+2*amo
}

// Shipped returns the same map with the route of the returned handle's
// synchronous operations pinned: on ships every one whose bucket
// another locale owns to that owner, off walks the owner's list from
// the caller, whatever shipRule chose in New. A cache already attached
// stays attached. The figures pin the paper's walk with Shipped(false).
func (m Map[V]) Shipped(on bool) Map[V] {
	m.ship = on
	return m
}

// syncOp is one operation on a key's bucket list: a synchronous one,
// carried to the owner that runs it (see shipped), or the list call the
// owner-side write body makes (writeOp.apply).
type syncOp[V any] struct {
	kind opKind
	k    uint64
	v    V    // the value written, or the one Get found
	ok   bool // the list operation's result
}

// run applies o to b on c under tok.
func (o *syncOp[V]) run(c *pgas.Ctx, tok *epoch.Token, b *list.List[V]) {
	switch o.kind {
	case opInsert:
		o.ok = b.Insert(c, tok, o.k, o.v)
	case opUpsert:
		o.ok = b.Upsert(c, tok, o.k, o.v)
	case opRemove:
		o.ok = b.Remove(c, tok, o.k)
	default:
		o.v, o.ok = b.Get(c, tok, o.k)
	}
}

// shipped is every synchronous operation of a shipping handle: it runs
// o on its bucket's owner (shipToOwner) and returns o with its result.
// If the fault plan refuses the owner — nothing is booked — it walks o
// from c under tok instead, so a synchronous operation is never refused:
// the words a walk touches live on the memory plane, which the fault
// plan does not cut. A walking handle never calls it, and its methods
// keep the walk a direct list call.
func (m Map[V]) shipped(c *pgas.Ctx, tok *epoch.Token, o syncOp[V]) syncOp[V] {
	if !m.shipToOwner(c, &o) {
		o.run(c, tok, m.bucket(o.k))
	}
	return o
}

// shipToOwner runs o on its bucket's owner as one on-statement (inline
// when c is the owner) under an owner-local token, and reports false,
// having run nothing, when the fault plan refuses the owner.
//
// The body pins before it loads the slot's list pointer: a list a
// migration retires after the pin cannot be reclaimed under the body,
// while a pointer loaded before it could name one retired and freed in
// between. A write goes through the owner-side write site (shipWrite).
func (m Map[V]) shipToOwner(c *pgas.Ctx, o *syncOp[V]) bool {
	if o.kind != opGet {
		return m.shipWrite(c, o)
	}
	slot := m.slot(o.k)
	return c.TryOn(m.HomeOf(o.k), func(oc *pgas.Ctx) {
		m.core.em.Protect(oc, func(tok *epoch.Token) { o.run(oc, tok, slot.list.Load()) })
	})
}

// shipWrite is shipToOwner for a write: it ships the write, with the
// owner-table generation it sampled, to that owner's write site
// (writeOp.applyOwned), so a shipped write is serialized against Migrate
// and never lands on a retired list. If a migration moved the bucket
// since the sample, it samples again and ships to the new owner. w is
// the heap op the combiner's closure needs; a read, which takes no
// combiner, pays no allocation.
func (m Map[V]) shipWrite(c *pgas.Ctx, o *syncOp[V]) bool {
	w := &writeOp[V]{m: m, k: o.k, v: o.v, kind: o.kind}
	for {
		var owner int
		owner, w.gen = m.core.tab.Owner(m.BucketOf(o.k))
		if !c.TryOn(owner, w.applyOwned) {
			return false
		}
		if !w.stale {
			o.ok = w.ok
			return true
		}
	}
}
