// Package cache implements a per-locale read replication cache with
// epoch-coherent invalidation — the software-managed analogue of the
// locality caching PGAS runtimes layer over remote data (Chapel's
// `local` optimizations, UPC's software caches), specialised to the
// owner-computed structures this repository builds.
//
// The owner-computed design deliberately funnels every operation on a
// key to the locale owning its shard. That is what makes mutations
// cheap and the comm evidence clean, but it leaves one failure mode
// open: a *hot key* turns its owner into a hotspot, and the busiest
// inbound column of the comm matrix grows with locale count. A Cache
// closes it for read-mostly traffic by memoizing owner-computed Get
// results in locale-private replicas: a repeat Get of a hot key is a
// plain local probe — zero communication — while writes broadcast an
// invalidation through the aggregation buffers so replicas converge.
//
// Each replica is a 2-way set-associative table: hot sets are small,
// so two hot keys landing in one direct-mapped slot would evict each
// other on every access; a second way absorbs exactly that collision
// for read traffic. (The coherence generation below is per *set*, so a
// write-through mutation of one key also kills its set-mate's entry —
// the set-mate pays one refetch per invalidation and then re-publishes
// under the new generation. Coexistence is per-read, not write-proof.)
// Fills prefer (in order) the way already holding the key, an empty
// way, a way holding a dead entry, and finally a round-robin victim.
//
// Coherence is generation-based ("epoch-coherent" in two senses):
//
//   - Every cache set carries a coherence generation. An invalidation
//     bumps the generation before unpublishing the key's entry, and a
//     fill tags its entry with the generation sampled *before* it
//     fetched from the owner. A lookup serves an entry only if the
//     entry's generation still matches the set's, so a fill racing an
//     invalidation can publish a stale entry but can never have it
//     served — it is dead on arrival and preferentially evicted.
//   - Entries live on the gas heap and are retired through the shared
//     EpochManager, never freed in place: a reader that resolved an
//     entry under an epoch pin keeps dereferencing it safely until two
//     epoch advances prove quiescence, exactly like a structure node.
//     The poisoned heaps turn any violation into a detected UAF.
//
// Staleness is bounded, not zero: invalidations ride the aggregation
// buffers of the context that issued them (one op per live locale,
// batched into bulk flushes), so a replica may serve the old value
// until those buffers flush — at capacity, at Ctx.Flush, or when the
// runtime drains a context of its own (an invalidation issued from
// inside a delivered write). Callers that need read-your-writes across
// locales flush after mutating.
//
// The cache itself is structure-agnostic: it memoizes any fetch
// closure. hashmap.Map.Cached is the packaged integration.
package cache

import (
	"fmt"
	"sync/atomic"

	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/shared"
)

// Ways is the set associativity: two hot keys colliding in one set
// coexist instead of evicting each other.
const Ways = 2

// entry is one published cache cell: an immutable (key, value) pair
// tagged with the set generation it was fetched under. Entries are
// allocated on the caching locale's gas heap and reclaimed only
// through the epoch manager once unpublished. The heap box lives inside
// the entry, so a fill is one host allocation.
type entry[V any] struct {
	gas.Boxed
	key uint64
	gen uint64
	val V
}

// set is one associative set of a locale's replica. All words are
// locale-private processor atomics: the hit path never communicates.
type set struct {
	// gen is the coherence generation; invalidation bumps it first,
	// killing every entry fetched under an older generation.
	gen atomic.Uint64
	// victim drives round-robin eviction when every way is live.
	victim atomic.Uint32
	// way holds the gas.Addr of each published entry (0 = empty).
	way [Ways]atomic.Uint64
}

// shard is one locale's replica: the set array plus diagnostic
// counters (the system-wide comm.Counters mirror them).
type shard struct {
	sets   []set
	hits   atomic.Int64
	misses atomic.Int64
	invals atomic.Int64
}

// Cache is the copyable handle to a distributed read cache: one
// set-associative replica per locale, sharing the structure's epoch
// manager for entry reclamation. The zero value is invalid; create
// with New. Copy the handle freely into tasks and across locales.
type Cache[V any] struct {
	obj  shared.Object[shard]
	mask uint64
}

// New creates a cache with the given per-locale entry capacity: the
// capacity is split into 2-way sets, with the set count rounded up to
// a power of two. em must be the epoch manager of the structure the
// cache fronts, so that cached entries and structure nodes share one
// reclamation domain. slots must be positive.
func New[V any](c *pgas.Ctx, slots int, em epoch.EpochManager) Cache[V] {
	if slots <= 0 {
		panic(fmt.Sprintf("cache: slot count must be positive, got %d", slots))
	}
	sets := 1
	for sets*Ways < slots {
		sets <<= 1
	}
	return Cache[V]{
		mask: uint64(sets - 1),
		obj: shared.New(c, em, func(lc *pgas.Ctx, _ int) *shard {
			return &shard{sets: make([]set, sets)}
		}),
	}
}

// Valid reports whether the handle was produced by New.
func (ca Cache[V]) Valid() bool { return ca.obj.Valid() }

// Manager returns the epoch manager entries are retired through.
func (ca Cache[V]) Manager() epoch.EpochManager { return ca.obj.Manager() }

// NumSets returns the per-locale set count.
func (ca Cache[V]) NumSets() int { return int(ca.mask) + 1 }

// SetOf reports which set k maps to — placement-aware tests and
// benchmarks use it to construct (or avoid) set collisions.
func (ca Cache[V]) SetOf(k uint64) int { return int(ca.index(k)) }

// index maps a key to its set: the splitmix64 finalizer the hashmap
// also uses, but masked from the HIGH half of the mix. The hashmap's
// bucket (and therefore home locale) comes from the low bits, so a
// cache drawing its set from the same bits would correlate set
// placement with key ownership — keys homed on one locale would
// cluster into a fraction of the sets and evict each other. The high
// half is independent of the low half, decorrelating the two layouts.
func (ca Cache[V]) index(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return (k >> 32) & ca.mask
}

// lookup probes the calling locale's replica under the caller's pin.
// It returns the set either way so the miss path can fill it.
func (ca Cache[V]) lookup(c *pgas.Ctx, sh *shard, k uint64) (*set, V, bool) {
	st := &sh.sets[ca.index(k)]
	gen := st.gen.Load()
	for w := range st.way {
		if a := gas.Addr(st.way[w].Load()); !a.IsNil() {
			// The pin makes this dereference safe: an entry is only ever
			// unpublished into the epoch manager, so it outlives every
			// reader pinned before its retirement.
			e := pgas.MustDeref[*entry[V]](c, a)
			if e.key == k && e.gen == gen {
				return st, e.val, true
			}
		}
	}
	var zero V
	return st, zero, false
}

// Lookup probes the calling locale's replica for k — a pure local hit
// test (zero communication either way). tok must be registered on the
// calling locale; Lookup pins it for the probe. Misses are NOT counted
// against the hit/miss statistics: Lookup is the diagnostic peek,
// GetThrough the memoizing read path.
func (ca Cache[V]) Lookup(c *pgas.Ctx, tok *epoch.Token, k uint64) (V, bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	_, v, ok := ca.lookup(c, ca.obj.Local(c), k)
	return v, ok
}

// GetThrough is the memoizing read: it serves k from the calling
// locale's replica when present and coherent, and otherwise calls
// fetch — the owner-computed lookup of the structure the cache fronts
// — and publishes the result locally for the next reader. Negative
// results (fetch reporting !ok) are not cached.
//
// fetch runs under the same token; it may pin and unpin it (structure
// operations bracket their own pins), so GetThrough re-pins around
// publication. The published entry is tagged with the set generation
// sampled before fetch ran: if an invalidation lands in between, the
// entry is published dead and never served.
func (ca Cache[V]) GetThrough(c *pgas.Ctx, tok *epoch.Token, k uint64, fetch func() (V, bool)) (V, bool) {
	tok.Pin(c)
	defer tok.Unpin(c)
	sh := ca.obj.Local(c)
	st, v, ok := ca.lookup(c, sh, k)
	if ok {
		sh.hits.Add(1)
		c.Sys().Counters().IncCacheHit(c.Here())
		return v, true
	}
	sh.misses.Add(1)
	c.Sys().Counters().IncCacheMiss(c.Here())
	gen := st.gen.Load() // sampled before the fetch: see the race note above
	v, ok = fetch()
	if !ok {
		return v, false
	}
	tok.Pin(c) // fetch's epilogue may have unpinned the token
	ca.publish(c, tok, st, k, gen, v)
	return v, true
}

// publish installs a freshly fetched entry into its set. Victim order:
// the way already holding k (a concurrent fill or a dead predecessor),
// an empty way, a way holding a dead entry (generation mismatch), and
// finally round-robin among live ways. The displaced entry, if any, is
// retired through the epoch manager — concurrent pinned readers may
// still hold it. The caller must be pinned.
func (ca Cache[V]) publish(c *pgas.Ctx, tok *epoch.Token, st *set, k uint64, gen uint64, v V) {
	curGen := st.gen.Load()
	victim, dead := -1, -1
	for w := range st.way {
		a := gas.Addr(st.way[w].Load())
		if a.IsNil() {
			victim = w
			break
		}
		e := pgas.MustDeref[*entry[V]](c, a)
		if e.key == k {
			victim = w
			break
		}
		if dead < 0 && e.gen != curGen {
			dead = w
		}
	}
	if victim < 0 {
		victim = dead
	}
	if victim < 0 {
		victim = int(st.victim.Add(1)) % Ways
	}
	old := st.way[victim].Load()
	a := c.Alloc(&entry[V]{key: k, gen: gen, val: v})
	if st.way[victim].CompareAndSwap(old, uint64(a)) {
		if o := gas.Addr(old); !o.IsNil() {
			tok.DeferDelete(c, o)
		}
	} else {
		// Lost a publish race (concurrent fill or invalidation). The
		// fresh entry was never visible, so an eager local free is safe;
		// the next miss refills.
		c.Free(a)
	}
}

// Invalidate broadcasts a coherence bump for k to every live locale's
// replica, riding c's aggregation buffers: one buffered op per remote
// locale (batched into bulk flushes), executed inline for the local
// replica. Each op bumps the set generation — killing
// in-flight fills — and retires k's published entry through the epoch
// manager on its own locale.
//
// Remote invalidations take effect when c's buffers flush (at capacity,
// at Ctx.Flush, or — when c is the runtime's context for a delivered
// op — as that delivery returns); until then remote replicas may serve
// the previous value. Write-through callers that need prompt coherence
// flush after mutating.
//
// The generation is per set, so the bump also kills any *other* key's
// entry sharing k's set: conservative and safe (that key was never
// mutated, so its next lookup just refetches and re-publishes under
// the current generation), at the cost of one extra miss per set-mate
// per invalidation. A per-key kill would need per-key generations,
// which a fixed-geometry set cannot carry.
func (ca Cache[V]) Invalidate(c *pgas.Ctx, k uint64) {
	idx := ca.index(k)
	em := ca.obj.Manager()
	sys := c.Sys()
	for dst := 0; dst < c.NumLocales(); dst++ {
		// A dead locale serves no reads, and an op toward it would only
		// be refused into the lost-ops ledger — which counts workload
		// ops a crash swallowed, not coherence traffic to a replica
		// nobody can hit.
		if !sys.Alive(dst) {
			continue
		}
		ca.obj.AggOnOwner(c, dst, func(lc *pgas.Ctx, sh *shard) {
			sh.invals.Add(1)
			lc.Sys().Counters().IncCacheInval(lc.Here())
			st := &sh.sets[idx]
			st.gen.Add(1) // order matters: kill racing fills first
			em.Protect(lc, func(tok *epoch.Token) {
				for w := range st.way {
					a := gas.Addr(st.way[w].Load())
					if a.IsNil() {
						continue
					}
					// The pin covers this deref against a concurrent
					// fill retiring the entry under us.
					if e := pgas.MustDeref[*entry[V]](lc, a); e.key != k {
						continue
					}
					// CAS so a racing fill or invalidation can win the
					// unpublish instead — exactly one retirement per entry.
					if st.way[w].CompareAndSwap(uint64(a), 0) {
						tok.DeferDelete(lc, a)
					}
				}
			})
		})
	}
}

// Stats aggregates the per-locale replica statistics (communication:
// one on-statement per remote locale).
type Stats struct {
	Hits          int64 // lookups served from a local replica
	Misses        int64 // lookups that fell through to the owner
	Invalidations int64 // invalidation ops executed across all replicas
	Entries       int64 // currently published entries across all replicas
}

// Stats gathers cache statistics from every locale's replica. Entries
// counts published cells, including dead ones awaiting eviction.
func (ca Cache[V]) Stats(c *pgas.Ctx) Stats {
	var out Stats
	for _, s := range shared.Gather(c, ca.obj, func(_ *pgas.Ctx, sh *shard) Stats {
		st := Stats{
			Hits:          sh.hits.Load(),
			Misses:        sh.misses.Load(),
			Invalidations: sh.invals.Load(),
		}
		for i := range sh.sets {
			for w := range sh.sets[i].way {
				if sh.sets[i].way[w].Load() != 0 {
					st.Entries++
				}
			}
		}
		return st
	}) {
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Invalidations += s.Invalidations
		out.Entries += s.Entries
	}
	return out
}

// Destroy tears the cache down: every replica frees its published
// entries on its own locale, then the privatized shards are released.
// The cache must be quiescent; entries already retired by invalidation
// belong to the epoch manager — let it clear to reclaim them. No task
// may use any copy of the handle afterwards.
func (ca Cache[V]) Destroy(c *pgas.Ctx) {
	ca.obj.Destroy(c, func(lc *pgas.Ctx, sh *shard) {
		for i := range sh.sets {
			for w := range sh.sets[i].way {
				if a := gas.Addr(sh.sets[i].way[w].Swap(0)); !a.IsNil() {
					lc.Free(a)
				}
			}
		}
	})
}
