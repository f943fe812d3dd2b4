package shared

import (
	"fmt"
	"sync/atomic"
)

// OwnerTable maps partition entries (buckets, segments — whatever
// granularity a structure migrates at) to their current owner locale.
// Each entry packs (generation, owner) into one atomic word, so a
// single load observes a consistent pair and a single store republishes
// both together — the same generation-bump-before-unpublish protocol
// the read replication cache uses, applied to ownership itself.
//
// The routing contract: a task that wants to operate on entry e samples
// Owner(e) and ships the op to that locale carrying the sampled
// generation. The op re-checks the generation on delivery; a mismatch
// means a migration completed in flight, and the op re-routes to the
// entry's current owner instead of touching a shard that no longer owns
// it. Republish is called by exactly one task at a time per entry — the
// migration holding that entry's owner-side serialization (combiner) —
// so a plain store suffices; readers are lock-free.
type OwnerTable struct {
	entries []atomic.Uint64
}

// ownerBits is the width of the owner field in a packed entry; the
// generation takes the remaining 48 bits. Matches the list layer's
// 2^15-locale ceiling with room to spare.
const ownerBits = 16

// NewOwnerTable builds a table of n entries, with entry e initially
// owned by ownerOf(e) at generation 0.
func NewOwnerTable(n int, ownerOf func(e int) int) *OwnerTable {
	t := &OwnerTable{entries: make([]atomic.Uint64, n)}
	for e := range t.entries {
		o := ownerOf(e)
		if o < 0 || o >= 1<<ownerBits {
			panic(fmt.Sprintf("shared: owner %d out of the owner table's %d-bit range", o, ownerBits))
		}
		t.entries[e].Store(uint64(o))
	}
	return t
}

// Len returns the entry count.
func (t *OwnerTable) Len() int { return len(t.entries) }

// Owner returns entry e's current owner and the generation it was
// published under, read atomically as one pair.
func (t *OwnerTable) Owner(e int) (owner int, gen uint64) {
	v := t.entries[e].Load()
	return int(v & (1<<ownerBits - 1)), v >> ownerBits
}

// Republish moves entry e to owner, bumping its generation, and
// returns the new generation. Only the task serializing e's migrations
// (the one holding the source shard's combiner) may call it; in-flight
// ops that sampled the old pair detect the bump on delivery and
// re-route.
func (t *OwnerTable) Republish(e, owner int) uint64 {
	if owner < 0 || owner >= 1<<ownerBits {
		panic(fmt.Sprintf("shared: owner %d out of the owner table's %d-bit range", owner, ownerBits))
	}
	_, gen := t.Owner(e)
	gen++
	t.entries[e].Store(gen<<ownerBits | uint64(owner))
	return gen
}
