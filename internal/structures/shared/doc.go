// Package shared is the distributed-object framework the structure
// layer is built on: the boilerplate every privatized, owner-sharded
// structure used to repeat — a shared EpochManager, token plumbing,
// per-locale instance resolution, owner-computed routing — extracted
// into one place.
//
// # The model
//
// An Object[S] replicates one shard of type S per locale through the
// pgas privatization registry. The handle is a small value: copy it
// freely into tasks and across locales; resolving the calling task's
// shard (Local) is a plain indexed load into locale-private memory —
// zero communication, the paper's privatization device. Everything
// that *does* communicate goes through the owner-computed routing
// helpers, which are thin veneers over the pgas dispatch and
// aggregation layers, so the comm counters see every event exactly
// once:
//
//	Local(c)            the calling locale's shard, free
//	Shard(c, i)         a peer's shard by id, free (diagnostic peek)
//	OnOwner(c, i, fn)   synchronous on-statement to shard i's locale
//	AggOnOwner          buffered op toward shard i (one flush per batch)
//	ForEachShard        coforall over every shard, on its locale
//	Gather              owner-computed reduction over all shards
//
// # Lifecycle
//
// New takes a per-locale constructor hook (allocate the shard's cells
// with the hook's Ctx so they land on the owning locale's heap) and
// the shared epoch manager every shard defers deletions through;
// Protect and Manager expose the token plumbing so callers never
// plumb it separately. Destroy runs a per-shard finalizer on each
// shard's locale and releases the privatized slots for reuse — the
// contract churn workloads rely on.
//
// # Consumers
//
// The framework deliberately knows nothing about what a shard *is*:
// queue segments (queue.Sharded), stack segments (stack.Sharded),
// hashmap bucket tables, and the read replication cache's per-locale
// replicas (structures/cache) all sit on the same ten lines of
// plumbing.
package shared
