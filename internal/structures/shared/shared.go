package shared

import (
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// Object is the copyable handle to a distributed object with one shard
// of type S per locale. The zero value is invalid; create with New.
type Object[S any] struct {
	priv pgas.Privatized[S]
	comb pgas.Privatized[Combiner]
	em   epoch.EpochManager
}

// New replicates the object: create runs once per locale, on that
// locale, and builds the shard that locale owns (the per-locale
// constructor hook — allocate the shard's cells with lc so they land
// on the owning locale's heap). em is the shared reclamation manager
// every shard defers deletions through; Protect and Manager expose it
// so callers never plumb it separately.
func New[S any](c *pgas.Ctx, em epoch.EpochManager, create func(lc *pgas.Ctx, shard int) *S) Object[S] {
	return Object[S]{
		em: em,
		priv: pgas.NewPrivatized(c, func(lc *pgas.Ctx) *S {
			return create(lc, lc.Here())
		}),
		comb: pgas.NewPrivatized(c, func(lc *pgas.Ctx) *Combiner {
			cb := &Combiner{}
			cb.SetTracer(lc.Sys().Tracer(), lc.Here())
			return cb
		}),
	}
}

// Valid reports whether the handle was produced by New.
func (o Object[S]) Valid() bool { return o.priv.Valid() }

// Manager returns the shared epoch manager.
func (o Object[S]) Manager() epoch.EpochManager { return o.em }

// Protect runs fn with a registered, pinned token on the calling
// task's locale — the token plumbing every structure operation needs,
// delegated to the shared manager.
func (o Object[S]) Protect(c *pgas.Ctx, fn func(tok *epoch.Token)) {
	o.em.Protect(c, fn)
}

// Local returns the calling task's shard. Zero communication.
func (o Object[S]) Local(c *pgas.Ctx) *S {
	return o.priv.Get(c)
}

// Shard returns shard `owner` without shipping execution there — a
// diagnostic peek (tests, stats), like Privatized.GetOn. Code that
// mutates a peer's shard must route through OnOwner/AggOnOwner so the
// work, and its communication, happen on the owner.
func (o Object[S]) Shard(c *pgas.Ctx, owner int) *S {
	return o.priv.GetOn(c, owner)
}

// OnOwner runs fn against shard `owner` on its locale and waits — a
// synchronous owner-computed on-statement (elided when owner is the
// calling locale). fn receives a Ctx pinned to the owner.
func (o Object[S]) OnOwner(c *pgas.Ctx, owner int, fn func(lc *pgas.Ctx, s *S)) {
	c.On(owner, func(lc *pgas.Ctx) {
		fn(lc, o.priv.Get(lc))
	})
}

// AggOnOwner buffers fn into the calling task's aggregation buffer for
// shard `owner`'s locale: the op executes there when the buffer
// flushes (at capacity, or at Ctx.Flush), riding one bulk transfer per
// batch instead of one round trip per op. Local destinations run
// inline, so callers aggregate uniformly.
func (o Object[S]) AggOnOwner(c *pgas.Ctx, owner int, fn func(lc *pgas.Ctx, s *S)) {
	c.Aggregator(owner).Call(func(lc *pgas.Ctx) {
		fn(lc, o.priv.Get(lc))
	})
}

// ForEachShard runs fn once per shard, on the shard's locale, in
// parallel (a coforall over locales: one on-statement per remote
// locale). It returns when every shard has been visited.
func (o Object[S]) ForEachShard(c *pgas.Ctx, fn func(lc *pgas.Ctx, s *S)) {
	c.CoforallLocales(func(lc *pgas.Ctx) {
		fn(lc, o.priv.Get(lc))
	})
}

// Destroy tears the object down: finalize (may be nil) runs once per
// shard on its locale, then the privatized slots are released for
// reuse. No task may use any copy of the handle afterwards.
func (o Object[S]) Destroy(c *pgas.Ctx, finalize func(lc *pgas.Ctx, s *S)) {
	o.priv.Destroy(c, finalize)
	o.comb.Destroy(c, nil)
}

// Gather computes f over every shard, on the shard's locale, and
// returns the results indexed by shard id — the owner-computed
// reduction global views (Stats, approximate Len) are built from.
// Cost: one on-statement per remote locale.
func Gather[S, R any](c *pgas.Ctx, o Object[S], f func(lc *pgas.Ctx, s *S) R) []R {
	out := make([]R, c.NumLocales())
	o.ForEachShard(c, func(lc *pgas.Ctx, s *S) {
		out[lc.Here()] = f(lc, s)
	})
	return out
}
