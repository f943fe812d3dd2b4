package hashmap

import (
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/list"
	"gopgas/internal/trace"
)

// Ownership migration. A bucket's owner is its shared.OwnerTable entry;
// Migrate hands a bucket's contents — and its future write traffic — to
// a new locale at runtime. The handoff is epoch-coherent and
// write-serialized:
//
//  1. the migration runs inside the source replica's flat combiner —
//     the same serialization every fire-and-forget or shipped write
//     applies under (writeOp.apply) — so no such write can land
//     on the old list after the snapshot;
//  2. the snapshot ships to the destination via the aggregation
//     buffer's bulk framing and is drained synchronously (a
//     single-destination flush, legal while holding the combiner);
//  3. the slot's list pointer swings to the filled destination list
//     and the owner table republishes (owner, generation+1) in one
//     atomic store;
//  4. the old list is retired through the EpochManager: every node is
//     defer-deleted but the list stays structurally intact, so pinned
//     readers that resolved it before the swap keep traversing live
//     memory until they drain.
//
// Reads never consult the table: they follow the slot's list pointer,
// which always names a complete list (old until the swap, new after).
// A migration moves entries without changing any key's value, so an
// attached cache needs no invalidation for it.

// NumEntries returns the bucket count under the name the rebalance
// controller's Target interface knows it by — the migration
// granularity.
func (m Map[V]) NumEntries() int { return m.NumBuckets() }

// EntryOwner returns bucket e's current owner locale.
func (m Map[V]) EntryOwner(e int) int {
	owner, _ := m.core.tab.Owner(e)
	return owner
}

// EntryHeat returns bucket e's accumulated traffic count, read (and
// differenced) by the rebalance controller to rank candidate buckets.
// Counting starts with the first call: every owner-computed read and
// owner-applied write bumps its bucket from then on, and a map no
// controller was ever built over skips the bumps entirely.
func (m Map[V]) EntryHeat(e int) int64 {
	if !m.core.heatOn.Load() {
		m.core.heatOn.Store(true)
	}
	return m.core.slots[e].heat.Load()
}

// Failover adopts every bucket the dead locale owns onto the
// survivors: bucket e goes to the e-th alive locale round-robin, so a
// given crash always produces the same deterministic placement. Each
// adoption is one ordinary epoch-coherent Migrate — the entry hop
// targets the dead source, so the caller must pass a salvage context
// (pgas.Ctx.Salvage) or every migration is refused. The retired lists
// land on the dead locale's limbo; run EpochManager.ForceRetire
// afterwards to drain them and clear any stranded pins.
//
// Every completed adoption records one always-on KindAdopt span
// (src = dead locale, dst = adopter, bytes = payload, arg = bucket),
// so a trace's adopt begin-count equals the returned shard count
// exactly; the handoff's own duration is on its KindMigrate span.
func (m Map[V]) Failover(c *pgas.Ctx, dead int) (shards, bytes int64) {
	alive := survivors(c, dead)
	if len(alive) == 0 {
		return 0, 0
	}
	tr := c.Sys().Tracer()
	for e := 0; e < m.NumBuckets(); e++ {
		if owner, _ := m.core.tab.Owner(e); owner != dead {
			continue
		}
		dst := alive[e%len(alive)]
		b, ok := m.Migrate(c, e, dst)
		if !ok {
			continue
		}
		shards++
		bytes += b
		if tr != nil {
			sp := tr.Begin(c.Here(), trace.KindAdopt, c.TaskID(), dead, dst, 0, int64(e))
			sp.EndWith(b, int64(e))
		}
	}
	return shards, bytes
}

// survivors lists the alive locales other than dead, in locale order.
func survivors(c *pgas.Ctx, dead int) []int {
	var alive []int
	for l := 0; l < c.NumLocales(); l++ {
		if l != dead && c.Sys().Alive(l) {
			alive = append(alive, l)
		}
	}
	return alive
}

// Migrate hands bucket e to locale dst: drain the source's combiner,
// snapshot the bucket, ship the contents through the bulk framing,
// swap the slot's list pointer, republish the owner table with a
// bumped generation, and retire the old list's memory through the
// epoch manager. Returns the payload bytes shipped and whether the
// migration ran — it declines (false) when dst already owns e or when
// another migration republished e after the caller sampled it.
//
// Every completed migration books one MigAdopted at the destination
// (inside the shipped fill op), one MigRetired and the payload's
// MigBytes at the source — an empty bucket still ships its (empty)
// fill op, so adopted == retired == migrations exactly. A handoff
// abandoned after its fill landed (dst died under it) retires the copy
// it shipped, so adopted == retired holds there too.
//
// A bucket is never left with a dead owner. dst's liveness is checked
// three times: at entry; under the combiner once the fill has landed
// (abandon); and after the republish, where a dead dst makes the
// migrator move the bucket on to a survivor itself. The last closes the
// race with Failover's sweep: System.Crash and Republish are both
// atomic stores, so either this check sees the crash, or the republish
// is visible to any Failover that starts after Crash returned.
func (m Map[V]) Migrate(c *pgas.Ctx, e, dst int) (bytes int64, ok bool) {
	if dst < 0 || dst >= c.NumLocales() {
		return 0, false
	}
	// Migrating into a dead locale would strand the bucket: the fill op
	// would drain to the lost-ops ledger and the republished owner would
	// never answer. Decline — even from a salvage context.
	sys := c.Sys()
	if !sys.Alive(dst) {
		return 0, false
	}
	src, gen := m.core.tab.Owner(e)
	if src == dst {
		return 0, false
	}
	c.On(src, func(lc *pgas.Ctx) {
		m.priv.Get(lc).comb.Do(func() {
			// Re-check under the combiner: a migration that won the race
			// republished e, and this one must not double-move it.
			if _, cur := m.core.tab.Owner(e); cur != gen {
				return
			}
			slot := &m.core.slots[e]
			old := slot.list.Load()
			var keys []uint64
			var vals []V
			m.core.em.Protect(lc, func(tok *epoch.Token) {
				keys, vals = old.Entries(lc, tok)
			})
			// The fresh list is homed on dst; it stays private (published
			// to nobody) until the fill op below has drained, so the swap
			// installs a complete list.
			fresh := list.New[V](lc, dst, m.core.em)
			bytes = int64(len(keys)) * mapWriteBytes
			agg := lc.Aggregator(dst)
			landed := false
			agg.CallSized(bytes, func(ac *pgas.Ctx) {
				landed = true
				ac.Sys().Counters().IncMigAdopt(ac.Here())
				m.core.em.Protect(ac, func(tok *epoch.Token) {
					for i, k := range keys {
						fresh.Insert(ac, tok, k, vals[i])
					}
				})
			})
			// Synchronous single-destination drain: legal while holding
			// the combiner (no system quiesce, no foreign combiner taken —
			// the fill op touches only the still-private fresh list).
			agg.Flush()
			// The span opens only once the fill has landed, so migration
			// spans count adopted fills exactly (begins == MigAdopted).
			var sp trace.Span
			if tr := sys.Tracer(); tr != nil && landed {
				sp = tr.Begin(lc.Here(), trace.KindMigrate, lc.TaskID(), lc.Here(), dst, 0, int64(e))
			}
			if !landed || !sys.Alive(dst) {
				// dst died after the entry liveness check. Abandon the
				// handoff — the old list stays published and ownership
				// does not move. The private fresh list is retired so
				// nothing leaks, and the books stay balanced: a fill op
				// refused into the lost-ops ledger counted no adopt, so
				// there is no retire either; one that landed before the
				// crash did, and its copy is what is retired here.
				m.core.em.Protect(lc, func(tok *epoch.Token) {
					fresh.Retire(lc, tok)
				})
				if landed {
					sys.Counters().IncMigRetire(lc.Here())
					sp.EndWith(0, int64(e))
				}
				return
			}
			slot.list.Store(fresh)
			m.core.tab.Republish(e, dst)
			m.core.em.Protect(lc, func(tok *epoch.Token) {
				old.Retire(lc, tok)
			})
			sc := sys.Counters()
			sc.IncMigRetire(lc.Here())
			sc.IncMigBytes(lc.Here(), bytes)
			ok = true
			sp.EndWith(bytes, int64(e))
		})
	})
	if !ok {
		return 0, false
	}
	if !sys.Alive(dst) {
		// dst died between the check under the combiner and the
		// republish, and Failover's sweep may already be past e: adopt it
		// onward from here (outside src's combiner — the next hop takes
		// dst's). Whichever of the two gets there first wins the
		// generation check; the other declines.
		if alive := survivors(c, dst); len(alive) > 0 {
			m.Migrate(c.Salvage(), e, alive[e%len(alive)])
		}
	}
	return bytes, true
}
