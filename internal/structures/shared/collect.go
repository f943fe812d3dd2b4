package shared

import (
	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/trace"
)

// Owner-sharded collection plumbing: the global views every sharded
// container (queue, stack, anything with a per-locale segment holding
// removable values) needs — work stealing, drain, approximate size —
// written once against a per-shard pop function instead of once per
// structure.

// PopFunc removes one value from a shard, on the shard's locale, under
// a locale-local token; ok is false when the shard appeared empty.
type PopFunc[S, T any] func(lc *pgas.Ctx, tok *epoch.Token, s *S) (T, bool)

// ValueBytes is the modelled wire size of one collected value — the
// aggregation layer's per-op payload convention, used by Drain's bulk
// accounting.
const ValueBytes = 16

// combineKindBulk namespaces this package's merge keys away from the
// pgas layer's built-in combinable ops.
const combineKindBulk uint8 = 16

// bulkOp is the mergeable payload behind CombineBulkOn: batches headed
// for one (object, owner) pair concatenate in-buffer, so k bulk calls
// ship as one op whose payload is the combined batch. The merged op
// grows by the absorbed batch's wire size, keeping the byte counters
// honest. On delivery the combined batch drains through the owner
// shard's flat combiner.
type bulkOp[S, T any] struct {
	obj   Object[S]
	owner int
	vals  []T
	apply func(lc *pgas.Ctx, s *S, vals []T)
}

// CombineKey packs the (object, owner) pair into K — the object's
// privatization id is unique among live objects and an owner is a
// locale id — so building the key boxes nothing.
func (o *bulkOp[S, T]) CombineKey() comm.CombineKey {
	return comm.CombineKey{Kind: combineKindBulk, K: uint64(o.obj.priv.ID())<<32 | uint64(o.owner)}
}

func (o *bulkOp[S, T]) Absorb(later comm.CombinableOp) (int64, bool) {
	l := later.(*bulkOp[S, T])
	o.vals = append(o.vals, l.vals...)
	return int64(len(l.vals)) * ValueBytes, true
}

func (o *bulkOp[S, T]) Exec(lc *pgas.Ctx) {
	o.obj.comb.Get(lc).Do(func() {
		o.apply(lc, o.obj.priv.Get(lc), o.vals)
	})
}

// ExecRun applies a delivered run one batch at a time: a nil Ref lets
// a run span objects, of other types too, each with its own combiner.
func (o *bulkOp[S, T]) ExecRun(lc *pgas.Ctx, run []comm.Op) {
	for _, op := range run {
		op.Exec.(pgas.CombinableCall).Exec(lc)
	}
}

// CombineBulkOn routes a batch of values to shard `owner` through both
// absorption layers: in flight, batches to the same (object, owner)
// merge per the system's AggConfig.Combine policy; at the owner, the
// delivered batch applies through the shard's flat combiner. apply
// must be uniform for a given object — merged batches keep the
// earliest buffered apply — and runs serialized against every other
// combined op on the shard. Within one task, per-owner batch order is
// enqueue order, so FIFO structures keep their per-(task, owner)
// ordering contract.
func CombineBulkOn[S, T any](c *pgas.Ctx, o Object[S], owner int, vals []T, apply func(lc *pgas.Ctx, s *S, vals []T)) {
	if len(vals) == 0 {
		return
	}
	c.Aggregator(owner).CallCombinable(int64(len(vals))*ValueBytes,
		&bulkOp[S, T]{obj: o, owner: owner, vals: vals, apply: apply})
}

// TryTakeAny pops from the calling locale's shard if it has work, and
// otherwise steals: it visits the other shards (next locale first,
// wrapping) with one synchronous on-statement each, popping on the
// victim's locale under a victim-local token. It returns the shard the
// value came from; ok is false only when every shard appeared empty.
// tok is the caller's token, used only for the local attempt.
func TryTakeAny[S, T any](c *pgas.Ctx, o Object[S], tok *epoch.Token, pop PopFunc[S, T]) (v T, from int, ok bool) {
	if val, got := pop(c, tok, o.Local(c)); got {
		return val, c.Here(), true
	}
	L := c.NumLocales()
	sys := c.Sys()
	for i := 1; i < L; i++ {
		victim := (c.Here() + i) % L
		// A dead or partitioned victim is skipped outright: stealing is
		// opportunistic, so burning a refusal on an unreachable peer is
		// pure waste — the steal just looks at the next shard. A dead
		// victim's stranded values come back via Failover adoption, not
		// steals.
		if !sys.Reachable(c.Here(), victim) {
			continue
		}
		o.OnOwner(c, victim, func(lc *pgas.Ctx, s *S) {
			o.Protect(lc, func(vtok *epoch.Token) {
				v, ok = pop(lc, vtok, s)
			})
		})
		if ok {
			return v, victim, true
		}
	}
	return v, -1, false
}

// FailoverDrain adopts a dead locale's shard after a crash. It must be
// called on a salvage context (pgas.Ctx.Salvage) — the recovery
// plane's exemption from refusal, the same contract as
// hashmap.Map.Failover: under the shared-storage conceit a
// crashed locale's heap partition survives, so the salvage task drains
// the dead shard on its own locale and re-homes the values onto the
// alive locales in contiguous chunks, shipped through the same
// combinable bulk framing the structures' BulkOn paths use. Each
// shipped chunk books one MigRetire (and its ValueBytes payload) on
// the salvaging side and one MigAdopt when it lands, so the balanced
// adopt/retire books extend to queue/stack failover unchanged, and one
// always-on KindAdopt span per chunk (src = dead locale, dst =
// adopter, arg = dead locale) records the handoff. Returns the number
// of chunks adopted — at most one per surviving locale, zero when the
// dead shard was empty — and the payload bytes moved.
func FailoverDrain[S, T any](c *pgas.Ctx, o Object[S], dead int, pop PopFunc[S, T], apply func(lc *pgas.Ctx, s *S, vals []T)) (shards, bytes int64) {
	sys := c.Sys()
	if sys.Alive(dead) {
		return 0, 0
	}
	var vals []T
	o.OnOwner(c, dead, func(lc *pgas.Ctx, s *S) {
		o.Protect(lc, func(tok *epoch.Token) {
			for {
				v, ok := pop(lc, tok, s)
				if !ok {
					break
				}
				vals = append(vals, v)
			}
		})
	})
	if len(vals) == 0 {
		return 0, 0
	}
	var alive []int
	for l := 0; l < c.NumLocales(); l++ {
		if l != dead && sys.Alive(l) {
			alive = append(alive, l)
		}
	}
	if len(alive) == 0 {
		return 0, 0
	}
	chunk := (len(vals) + len(alive) - 1) / len(alive)
	ctrs := sys.Counters()
	tr := sys.Tracer()
	for i, adopter := range alive {
		lo := i * chunk
		if lo >= len(vals) {
			break
		}
		hi := lo + chunk
		if hi > len(vals) {
			hi = len(vals)
		}
		part := vals[lo:hi]
		b := int64(len(part)) * ValueBytes
		var sp trace.Span
		if tr != nil {
			sp = tr.Begin(c.Here(), trace.KindAdopt, c.TaskID(), dead, adopter, b, int64(dead))
		}
		ctrs.IncMigRetire(c.Here())
		ctrs.IncMigBytes(c.Here(), b)
		CombineBulkOn(c, o, adopter, part, func(lc *pgas.Ctx, s *S, vs []T) {
			lc.Sys().Counters().IncMigAdopt(lc.Here())
			apply(lc, s, vs)
		})
		// Land the chunk now: failover is synchronous, and the span must
		// close over a completed adoption so begin-counts equal the
		// shards-adopted ledger.
		c.Aggregator(adopter).Flush()
		sp.EndWith(b, int64(dead))
		shards++
		bytes += b
	}
	return shards, bytes
}

// Drain empties every shard and returns the remaining values grouped
// by owning shard (index = locale id; per-shard removal order is
// preserved). Each shard drains on its own locale under a local token;
// each non-empty remote batch then ships home as one bulk transfer of
// ValueBytes per value. Drain runs concurrently with other operations
// but only guarantees emptiness of what it observed, like any
// lock-free traversal.
func Drain[S, T any](c *pgas.Ctx, o Object[S], pop PopFunc[S, T]) [][]T {
	batches := make([][]T, c.NumLocales())
	o.ForEachShard(c, func(lc *pgas.Ctx, s *S) {
		o.Protect(lc, func(tok *epoch.Token) {
			var vals []T
			for {
				v, ok := pop(lc, tok, s)
				if !ok {
					break
				}
				vals = append(vals, v)
			}
			batches[lc.Here()] = vals
		})
	})
	for owner, batch := range batches {
		if owner != c.Here() && len(batch) > 0 {
			c.ChargeBulk(owner, int64(len(batch))*ValueBytes)
		}
	}
	return batches
}

// ApproxSum totals a per-shard statistic (typically adds-minus-removes
// for an approximate size) with one small remote read per remote shard
// and no traversal. Exact when the structure is quiescent.
func ApproxSum[S any](c *pgas.Ctx, o Object[S], read func(s *S) int64) int64 {
	var n int64
	for l := 0; l < c.NumLocales(); l++ {
		if l != c.Here() {
			c.ChargeGet(l)
		}
		n += read(o.Shard(c, l))
	}
	return n
}
