// Package hashmap implements a distributed non-blocking hash map in
// the spirit of the Interlocked Hash Table the paper announces as the
// first application of its constructs (Jenkins, Zhou & Spear's
// concurrent redesign of Go's built-in map, ported to PGAS).
//
// The map is a fixed power-of-two bucket array; each bucket is a
// Harris-style lock-free sorted list homed on a locale chosen
// cyclically, so the structure — like a Chapel Cyclic-distributed
// array — spreads both storage and contention across the system. All
// mutation is non-blocking CAS on network-atomic words; all
// reclamation of removed entries goes through a shared EpochManager.
//
// Map is a copyable record-wrapped handle. Every locale resolves
// key → bucket by indexing the one slot array the handles share — zero
// communication — and holds, through the pgas privatization registry,
// a replica of the only per-locale state: the flat combiner its owned
// buckets' writes apply under.
//
// A synchronous operation on a bucket another locale owns takes one of
// two routes, chosen once per map from the backend and latency profile
// (see shipRule). It walks the owner's list from the caller — the
// paper's data shipping, where the only remote events are the
// reads/CASes on the bucket's own cells and the owner's CPU stays idle
// under NIC atomics — or it ships as one on-statement to the owner,
// which runs the same list code on local words (function shipping,
// cheaper when every remote atomic is an active message anyway).
// Callers that want the operation local outright can route work with
// HomeOf.
//
// There is one map type and one write path. Ownership of a bucket is a
// live shared.OwnerTable entry (identity e % L until the first
// Migrate), fire-and-forget and shipped writes carry the generation
// they sampled and are applied — or re-routed — inside the owner's flat
// combiner (writeOp.apply, the one owner-side write body; a delivered
// run of writes takes one combiner pass under one pin), and a
// read replication cache attached with Cached is invalidated after
// every write, so caching, write absorption, rebalancing and crash
// failover compose instead of excluding each other. migrate.go holds
// the ownership handoff.
package hashmap

import (
	"fmt"
	"sync/atomic"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/cache"
	"gopgas/internal/structures/list"
	"gopgas/internal/structures/shared"
	"gopgas/internal/trace"
)

// bucketSlot is one bucket's shared, mutable cell: the current list
// behind an atomic pointer (swapped by ownership migrations, loaded by
// every operation) and a heat counter the rebalance controller reads
// to rank candidate buckets. Every locale indexes the one slot array
// in the map's core, so a migration's single pointer store republishes
// the new list to all locales at once, and since each list holds its
// head word inside itself a lookup goes slot → list → first node with
// no other object in between.
type bucketSlot[V any] struct {
	list atomic.Pointer[list.List[V]]
	heat atomic.Int64
}

// table is one locale's replica: the flat combiner that serializes
// the fire-and-forget writes delivered to that locale's buckets (see
// UpsertAgg), the synchronous writes shipped to them (see shipWrite)
// and the migrations of buckets it owns. The bucket slots themselves
// are not replicated: every locale reads them from the core.
type table[V any] struct {
	comb shared.Combiner
}

// core is what every copy of a Map handle shares by pointer: the
// bucket slots (for the ctx-less heat reads), the live owner table,
// and the switch that turns heat counting on.
type core[V any] struct {
	slots []bucketSlot[V]
	tab   *shared.OwnerTable
	em    epoch.EpochManager
	// heatOn is set by the first EntryHeat call — a rebalance.Controller
	// anchoring its first window — so a map nobody ranks never pays the
	// shared-counter bump on its read path.
	heatOn atomic.Bool
}

// Map is a distributed lock-free hash map from uint64 keys to V. It is
// a small copyable handle (like EpochManager): copy it into tasks and
// across locales freely. The zero value is invalid; create with New.
type Map[V any] struct {
	priv pgas.Privatized[table[V]]
	core *core[V]
	ca   *cache.Cache[V] // nil unless Cached attached one to this handle
	mask uint64
	ship bool // sync ops on a remote bucket run on its owner (shipRule, Shipped)
}

// New creates a map with the given bucket count (rounded up to a power
// of two), buckets distributed cyclically across locales. buckets must
// be positive: a non-positive count is always a caller bug (a map with
// defaulted-to-one bucket silently serializes every key on one list),
// so it panics rather than rounding up.
func New[V any](c *pgas.Ctx, buckets int, em epoch.EpochManager) Map[V] {
	if buckets <= 0 {
		panic(fmt.Sprintf("hashmap: bucket count must be positive, got %d", buckets))
	}
	n := 1
	for n < buckets {
		n <<= 1
	}
	L := c.NumLocales()
	// Build the shared bucket slots once: slot i's initial list is
	// homed on locale i%L, so the bucket's mutable state lives with its
	// owner regardless of which locale resolved it. Every locale reads
	// the one slot array; a migration's list swap is therefore visible
	// to every locale with one store. The owner table
	// starts as the same identity, and nothing republishes it on a map
	// that never migrates.
	slots := make([]bucketSlot[V], n)
	for i := range slots {
		slots[i].list.Store(list.New[V](c, i%L, em))
	}
	sys := c.Sys()
	m := Map[V]{mask: uint64(n - 1), ship: shipRule(sys.Backend(), sys.Latency()), core: &core[V]{
		slots: slots,
		tab:   shared.NewOwnerTable(n, func(e int) int { return e % L }),
		em:    em,
	}}
	m.priv = pgas.NewPrivatized(c, func(lc *pgas.Ctx) *table[V] {
		t := &table[V]{}
		t.comb.SetTracer(lc.Sys().Tracer(), lc.Here())
		return t
	})
	return m
}

// Cached returns the same map with a read replication cache attached
// to the returned handle (internal/structures/cache): one 2-way
// set-associative replica of `slots` entries per locale (the set count
// rounded up to a power of two), sharing the map's epoch manager so
// cached entries and structure nodes reclaim through one domain. slots
// must be positive.
//
// Get through the returned handle memoizes the owner-computed lookup
// in the calling locale's replica, so repeat reads of a hot key are
// locale-private hits instead of remote traffic to the bucket's owner.
// Every mutation through it — on any path — ends in an invalidation
// broadcast for the key (see invalidate). Coherence is a contract on
// the *writers*: once a key is read through a cached handle, every
// mutation of it must go through a copy of that handle; the handle
// Cached was called on stays cacheless, and its writes are invisible
// to the replicas.
//
// Invalidations ride the writing context's aggregation buffers (one op
// per live locale, batched into bulk flushes), so remote replicas may
// serve the previous value until those buffers flush — at capacity, at
// Ctx.Flush, or, for a write applied on its owner, when the runtime
// drains the delivery's context. A writer that needs read-your-writes
// across locales flushes after mutating. Entries are pinned and
// retired through the map's own EpochManager, so a cached read can
// never observe reclaimed memory (the cache package documents the
// generation protocol).
func (m Map[V]) Cached(c *pgas.Ctx, slots int) Map[V] {
	ca := cache.New[V](c, slots, m.core.em)
	m.ca = &ca
	return m
}

// Cache returns the replication cache attached to this handle, for
// statistics and manual invalidation; the zero (invalid) Cache when
// none is.
func (m Map[V]) Cache() cache.Cache[V] {
	if m.ca == nil {
		return cache.Cache[V]{}
	}
	return *m.ca
}

// Manager returns the epoch manager the map reclaims through.
func (m Map[V]) Manager() epoch.EpochManager { return m.core.em }

// Destroy tears the map down: the attached cache first, if any, then
// every bucket list frees its remaining nodes (one bulk free per
// bucket toward its home), then the privatized table replicas are
// released and the registry slot is returned for reuse. The bucket
// lists are shared across replicas, so they are destroyed exactly
// once, before the replica teardown. The map must be quiescent;
// entries already removed were retired through the epoch manager — let
// it clear to reclaim them. No task may use any copy of the handle
// afterwards. Churn scenarios rely on this leaving zero gas-heap or
// registry residue.
func (m Map[V]) Destroy(c *pgas.Ctx) {
	if m.ca != nil {
		m.ca.Destroy(c)
	}
	for i := range m.core.slots {
		m.core.slots[i].list.Load().Destroy(c)
	}
	m.priv.Destroy(c, nil)
}

// NumBuckets returns the bucket count.
func (m Map[V]) NumBuckets() int { return len(m.core.slots) }

// hash finalizes the key (splitmix64 mixer) so adjacent keys spread
// across buckets.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// slot returns k's bucket slot — zero communication.
func (m Map[V]) slot(k uint64) *bucketSlot[V] {
	return &m.core.slots[hash(k)&m.mask]
}

// bucket returns the current list for k — zero communication beyond the
// slot's atomic pointer load. It never consults the owner table: the
// pointer always names a complete list (old until a migration's swap,
// new after). This is the walk's resolution: load, then the list op's
// own pin on the caller's token.
func (m Map[V]) bucket(k uint64) *list.List[V] {
	return m.slot(k).list.Load()
}

// BucketOf reports which bucket index k hashes to — the entry
// granularity Migrate moves ownership at. Zero communication.
func (m Map[V]) BucketOf(k uint64) int {
	return int(hash(k) & m.mask)
}

// HomeOf reports which locale currently owns k's bucket: e % L until
// the bucket's first migration, the adopter after. Callers co-locate
// work with it (run the mutation in an on-statement or aggregation
// batch toward HomeOf(k)) to make the bucket CAS locale-local; the
// fire-and-forget writes do exactly this. Zero communication: the
// owner table is one shared word per bucket.
func (m Map[V]) HomeOf(k uint64) int {
	return m.EntryOwner(m.BucketOf(k))
}

// invalidate is where every mutation of a bucket ends — the sync
// writes on their caller, the fire-and-forget writes on whichever
// locale applied them: when this handle carries a cache, broadcast k's
// invalidation. It must run after the list mutation (a replica that
// refetches once its set generation is bumped must find the new
// value) and outside any combiner: the broadcast may flush c's
// buffers, and a flush that delivered into a second locale's combiner
// while holding the first could deadlock against its mirror image.
func (m Map[V]) invalidate(c *pgas.Ctx, k uint64) {
	if m.ca != nil {
		m.ca.Invalidate(c, k)
	}
}

// Insert adds (k, v) if absent, reporting whether it inserted. (An
// unsuccessful insert changed nothing, so nothing is invalidated.)
func (m Map[V]) Insert(c *pgas.Ctx, tok *epoch.Token, k uint64, v V) bool {
	var ok bool
	if m.ship {
		ok = m.shipped(c, tok, syncOp[V]{kind: opInsert, k: k, v: v}).ok
	} else {
		ok = m.bucket(k).Insert(c, tok, k, v)
	}
	if ok {
		m.invalidate(c, k)
	}
	return ok
}

// Upsert inserts or replaces (k, v), reporting whether it replaced an
// existing value.
//
// A shipped synchronous write (Insert, Upsert, Remove) applies under
// the owner's combiner and survives ownership changes like the
// fire-and-forget writes do. A walked one CASes the bucket's current
// list from the calling task and is not serialized against Migrate:
// one that resolved the list before a migration's snapshot and lands
// after it is applied to the retired list and lost. Traffic that must
// survive ownership changes on a walking handle uses the
// fire-and-forget writes.
func (m Map[V]) Upsert(c *pgas.Ctx, tok *epoch.Token, k uint64, v V) bool {
	var replaced bool
	if m.ship {
		replaced = m.shipped(c, tok, syncOp[V]{kind: opUpsert, k: k, v: v}).ok
	} else {
		replaced = m.bucket(k).Upsert(c, tok, k, v)
	}
	m.invalidate(c, k)
	return replaced
}

// Remove deletes k, reporting whether it was present.
func (m Map[V]) Remove(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	var ok bool
	if m.ship {
		ok = m.shipped(c, tok, syncOp[V]{kind: opRemove, k: k}).ok
	} else {
		ok = m.bucket(k).Remove(c, tok, k)
	}
	if ok {
		m.invalidate(c, k)
	}
	return ok
}

// KV is one key/value pair for the bulk-insert path.
type KV[V any] struct {
	K uint64
	V V
}

// combineKindMapWrite namespaces the hashmap's merge keys away from
// the pgas and shared layers' kinds.
const combineKindMapWrite uint8 = 32

// mapWriteBytes models one aggregated map write on the wire: a key
// plus one value word, matching the pgas layer's put convention.
const mapWriteBytes = 16

// opKind is the list operation a writeOp or a syncOp carries; a
// writeOp carries one of the three writes.
type opKind uint8

const (
	opUpsert opKind = iota
	opRemove
	opInsert
	opGet
)

// writeOp is one write headed for its bucket's owner, carrying the
// owner-table generation it sampled: a buffered fire-and-forget write
// (sampled at enqueue) or a shipped synchronous one (see shipWrite).
// Upserts and removes of one key absorb last-writer-wins in
// the task's aggregation buffer — an upsert superseded by a remove
// ships only the remove, and vice versa, keeping the later (fresher)
// generation sample — and the survivor applies on the owner through
// the table replica's flat combiner instead of CAS-ing the hot bucket
// directly. Inserts ship as plain calls: insert-if-absent does not
// merge.
type writeOp[V any] struct {
	m     Map[V]
	gen   uint64
	k     uint64
	v     V
	n     *atomic.Int64 // InsertBulk's tally of successful inserts
	kind  opKind
	ok    bool // set by apply: the list operation's result
	stale bool // set by apply: the bucket migrated since the sample
}

// mergeKey is the identity fire-and-forget writes of k combine under:
// the core every copy of the handle shares, so the key boxes without
// allocating.
func (m Map[V]) mergeKey(k uint64) comm.CombineKey {
	return comm.CombineKey{Kind: combineKindMapWrite, Ref: m.core, K: k}
}

func (o *writeOp[V]) CombineKey() comm.CombineKey { return o.m.mergeKey(o.k) }

// merge folds a later write of the same key into o, last writer wins:
// the later value and kind, and the later (fresher) generation sample.
func (o *writeOp[V]) merge(gen uint64, v V, kind opKind) {
	o.gen, o.v, o.kind = gen, v, kind
}

func (o *writeOp[V]) Absorb(later comm.CombinableOp) (int64, bool) {
	l := later.(*writeOp[V])
	o.merge(l.gen, l.v, l.kind)
	return 0, true
}

// Exec is the delivered side of one fire-and-forget write: apply it
// through the map's owner-side write site (applyOwned), then settle it.
func (o *writeOp[V]) Exec(tc *pgas.Ctx) {
	o.applyOwned(tc)
	o.settle(tc)
}

// ExecRun is the delivered side of a run of fire-and-forget writes to
// this map (see pgas.CombinableCall): one pass of the owner replica's
// combiner, under one owner-local token, applies every write of the
// run in order, and once the combiner is released each settles as Exec
// settles one. The run's writes share o's core, and so its table.
func (o *writeOp[V]) ExecRun(tc *pgas.Ctx, run []comm.Op) {
	t := o.m.priv.Get(tc)
	t.comb.DoRun(len(run), func() {
		o.m.core.em.Protect(tc, func(tok *epoch.Token) {
			for _, op := range run {
				op.Exec.(*writeOp[V]).apply(tc, tok)
			}
		})
	})
	for _, op := range run {
		op.Exec.(*writeOp[V]).settle(tc)
	}
}

// settle finishes a write its owner-side pass has seen: a stale one
// re-dispatches to the bucket's new owner, an applied one bumps its
// InsertBulk tally and invalidates k in an attached cache. It runs
// outside the combiner (see invalidate); when tc is the runtime's
// context for a delivery, the runtime drains the invalidation before
// the delivery returns.
//
// The re-dispatch is an async task: a synchronous on-stmt could
// deadlock two locales draining each other's combined deliveries, while
// an async task is tracked by system quiescence. It carries o itself,
// which settle no longer reads once the task is launched.
func (o *writeOp[V]) settle(tc *pgas.Ctx) {
	switch {
	case o.stale:
		e := o.m.BucketOf(o.k)
		owner, cur := o.m.core.tab.Owner(e)
		tc.Sys().Counters().IncMigReroute(tc.Here())
		if tr := tc.Sys().Tracer(); tr != nil {
			tr.Instant(tc.Here(), trace.KindReroute, tc.TaskID(), tc.Here(), owner, 0, int64(e))
		}
		o.gen = cur
		tc.AsyncOn(owner, o.Exec)
	case o.ok || o.kind == opUpsert: // an upsert changes k's entry whether or not it replaced one
		if o.kind == opInsert {
			o.n.Add(1)
		}
		o.m.invalidate(tc, o.k)
	}
}

// applyOwned is ExecRun's pass for one write, run on the locale o's
// generation sample named: shipped (shipWrite), re-routed and inline
// writes each take their own combiner pass and owner-local token.
func (o *writeOp[V]) applyOwned(tc *pgas.Ctx) {
	o.m.priv.Get(tc).comb.Do(func() {
		o.m.core.em.Protect(tc, func(tok *epoch.Token) { o.apply(tc, tok) })
	})
}

// apply is the per-write body of every owner-side pass, run inside the
// owner replica's combiner under tok, which was pinned before any list pointer loads.
// It re-checks the write's generation (exact — migrations of the
// bucket serialize on the same combiner): a stale sample applies
// nothing and sets o.stale; a current one bumps the bucket's heat (once
// a controller ranks the map), runs the write on the slot's current
// list and sets o.ok to its result.
func (o *writeOp[V]) apply(tc *pgas.Ctx, tok *epoch.Token) {
	e := o.m.BucketOf(o.k)
	if _, cur := o.m.core.tab.Owner(e); cur != o.gen {
		o.stale = true
		return
	}
	o.stale = false
	slot := &o.m.core.slots[e]
	if o.m.core.heatOn.Load() {
		slot.heat.Add(1)
	}
	w := syncOp[V]{kind: o.kind, k: o.k, v: o.v}
	w.run(tc, tok, slot.list.Load())
	o.ok = w.ok
}

// UpsertAgg buffers a fire-and-forget upsert of (k, v) into the
// calling task's aggregation buffer toward the current owner of k's
// bucket. The write executes there when the buffer flushes (at
// capacity, or at Ctx.Flush), under a destination-local epoch token,
// serialized through the owner replica's flat combiner. Under the
// system's AggConfig.Combine policy, repeated writes to one key
// collapse to the last buffered one before they ship — a key the
// caller's own locale owns included: it buffers like any other and is
// not visible to the caller before the flush either. Use Upsert when
// the replaced verdict or immediate visibility matters.
//
// A write that raced a migration — sampled the old owner, delivered
// after the republish — re-routes itself (comm's MigReroutes) and
// applies when its async redelivery runs, so two same-task writes to
// one key that straddle a migration may apply out of program order
// (the contract already promises only eventual visibility; this widens
// the window). Callers that need a deterministic final state quiesce
// (Ctx.Flush) and write a final pass, as the storm tests do.
func (m Map[V]) UpsertAgg(c *pgas.Ctx, k uint64, v V) {
	m.writeAgg(c, opUpsert, k, v)
}

// RemoveAgg buffers a fire-and-forget removal of k, with the same
// routing, combining and visibility contract as UpsertAgg.
func (m Map[V]) RemoveAgg(c *pgas.Ctx, k uint64) {
	var zero V
	m.writeAgg(c, opRemove, k, zero)
}

// writeAgg samples the owner of k's bucket and either merges the write
// into the one this task already has buffered for k — the common case
// on a hot key, and no allocation — or builds the op that carries the
// sample's generation there.
func (m Map[V]) writeAgg(c *pgas.Ctx, kind opKind, k uint64, v V) {
	owner, gen := m.core.tab.Owner(m.BucketOf(k))
	buf := c.Aggregator(owner)
	if prev := buf.Buffered(m.mergeKey(k)); prev != nil {
		prev.(*writeOp[V]).merge(gen, v, kind)
		return
	}
	buf.CallCombinable(mapWriteBytes, &writeOp[V]{m: m, gen: gen, k: k, v: v, kind: kind})
}

// InsertBulk adds every absent (k, v) pair, returning how many were
// inserted. Pairs are routed through the calling task's aggregation
// buffers to the locale owning their bucket and applied there under
// its combiner — the remote CAS per insert of the per-op path becomes
// a locale-local CAS inside a per-destination batch, so the
// communication cost is one bulk flush per destination locale (per
// buffer capacity) instead of one round trip per pair. Each pair runs
// under a destination-local epoch token; no caller token is needed.
// With a cache attached the batch is coherent on return: the flush
// below covers the deliveries' invalidations too.
//
// Duplicate keys within pairs insert first-come-first-served, like
// concurrent Inserts.
func (m Map[V]) InsertBulk(c *pgas.Ctx, pairs []KV[V]) int {
	var inserted atomic.Int64
	for _, kv := range pairs {
		owner, gen := m.core.tab.Owner(m.BucketOf(kv.K))
		op := &writeOp[V]{m: m, gen: gen, k: kv.K, v: kv.V, n: &inserted, kind: opInsert}
		c.Aggregator(owner).Call(op.Exec)
	}
	c.Flush()
	return int(inserted.Load())
}

// Get returns the value for k. Through a handle with a cache attached
// it is served from the calling locale's replica when present and
// coherent; a miss falls through to the owner-computed lookup and
// publishes the result locally. Absent keys are not cached.
func (m Map[V]) Get(c *pgas.Ctx, tok *epoch.Token, k uint64) (V, bool) {
	if m.ca != nil {
		return m.ca.GetThrough(c, tok, k, func() (V, bool) { return m.lookup(c, tok, k) })
	}
	return m.lookup(c, tok, k)
}

// lookup is the owner-computed read: the current list's Get, shipped
// or walked, counting the bucket's heat once a controller ranks it.
func (m Map[V]) lookup(c *pgas.Ctx, tok *epoch.Token, k uint64) (V, bool) {
	slot := m.slot(k)
	if m.core.heatOn.Load() {
		slot.heat.Add(1)
	}
	if m.ship {
		o := m.shipped(c, tok, syncOp[V]{kind: opGet, k: k})
		return o.v, o.ok
	}
	return slot.list.Load().Get(c, tok, k)
}

// Contains reports whether k is present.
func (m Map[V]) Contains(c *pgas.Ctx, tok *epoch.Token, k uint64) bool {
	_, ok := m.Get(c, tok, k)
	return ok
}

// forEach visits every live entry under the caller's token (a weakly
// consistent snapshot, like iterating Go's sync.Map: entries inserted
// or removed concurrently may or may not be observed), walking each
// bucket's list once. Iteration order is bucket order then key order.
// fn returning false stops early.
func (m Map[V]) forEach(c *pgas.Ctx, tok *epoch.Token, fn func(k uint64, v V) bool) {
	for i := range m.core.slots {
		keys, vals := m.core.slots[i].list.Load().Entries(c, tok)
		for i, k := range keys {
			if !fn(k, vals[i]) {
				return
			}
		}
	}
}

// Len counts entries across all buckets (O(n), diagnostic).
func (m Map[V]) Len(c *pgas.Ctx, tok *epoch.Token) int {
	n := 0
	for i := range m.core.slots {
		n += m.core.slots[i].list.Load().Len(c, tok)
	}
	return n
}

// Stats sums the bucket lists' operation counters. The Ctx names the
// calling task, as the other structures' Stats take one; the slots it
// reads are every locale's alike.
func (m Map[V]) Stats(c *pgas.Ctx) list.Stats {
	var s list.Stats
	for i := range m.core.slots {
		bs := m.core.slots[i].list.Load().Stats()
		s.Inserts += bs.Inserts
		s.Removes += bs.Removes
		s.Unlinks += bs.Unlinks
	}
	return s
}
