package bench

import (
	"fmt"
	"sort"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/hashmap"
	"gopgas/internal/structures/queue"
	"gopgas/internal/structures/rebalance"
	"gopgas/internal/structures/stack"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// isolates one mechanism the paper credits for scalability and
// compares it against the naive alternative it replaced.

// AblationCompression compares CAS throughput across the three pointer
// representations — compressed (NIC atomics), wide (DCAS via remote
// execution), and descriptor-table (NIC atomics + resolution
// indirection) — on the ugni backend, where the difference is the
// whole story of Section II.A.
func AblationCompression(cfg Config) Figure {
	totalOps := cfg.ops(1 << 13)
	mix := func(mode atomics.Mode) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, backend: comm.BackendUGNI}, func(tr *trial) {
				c := tr.c
				opt := atomics.Options{Mode: mode}
				if mode == atomics.ModeDescriptor {
					opt.Table = atomics.NewDescriptorTable(c)
				}
				cells := make([]*atomics.AtomicObject, fig3Cells)
				objs := make([]gas.Addr, fig3Cells)
				states := pgas.NewSlab[workerState](c.Sys())
				for i := range cells {
					cells[i] = atomics.New(c, i%locales, opt)
					objs[i] = states.AllocOn(c, i%locales, &workerState{v: i})
					cells[i].Write(c, objs[i])
				}
				tr.timed(func() {
					pgas.ForallCyclic(c, totalOps, cfg.TasksPerLocale, nil,
						func(tc *pgas.Ctx, _ struct{}, i int) {
							cell := cells[tc.RandIntn(fig3Cells)]
							if i%2 == 0 {
								cur := cell.Read(tc)
								cell.CompareAndSwap(tc, cur, cur)
							} else {
								cell.Read(tc)
							}
						}, nil)
				})
			})
		}
	}
	return Figure{
		ID:      "A1",
		Title:   "Ablation: pointer compression vs DCAS fallback vs descriptor table",
		Caption: "Compression keeps CAS on the NIC; the wide fallback demotes every operation to remote execution; descriptors restore the NIC at the price of resolution GETs.",
		Panels: []Panel{cfg.sweep("CAS+Read mix by representation (ugni)", "Locales", cfg.localeSweep(2),
			arm{"compressed (RDMA)", "ablA compressed", mix(atomics.ModeCompressed)},
			arm{"wide (DCAS fallback)", "ablA wide", mix(atomics.ModeWide)},
			arm{"descriptor (RDMA+indirection)", "ablA descriptor", mix(atomics.ModeDescriptor)})},
	}
}

// AblationPrivatization compares the privatized pin/unpin path (reads
// the locale-local epoch cache) with the naive unprivatized design in
// which every pin reads the global epoch across the network — the
// round trip record-wrapping eliminates.
func AblationPrivatization(cfg Config) Figure {
	iters := cfg.ops(1 << 13)
	// Privatized: the real EpochManager path.
	privatized := func(locales int) (Point, verdict) {
		return cfg.runPinUnpin(locales, iters, comm.BackendNone)
	}
	// Naive: every pin performs a remote read of the global epoch.
	naive := func(locales int) (Point, verdict) {
		return cfg.measure(machine{locales: locales}, func(tr *trial) {
			global := pgas.NewWord64(tr.c, 0, 1)
			tr.timed(func() {
				pgas.ForallCyclic(tr.c, iters, cfg.TasksPerLocale, nil,
					func(tc *pgas.Ctx, _ struct{}, i int) {
						global.Read(tc) // "pin": fetch the epoch remotely
						_ = i           // "unpin": store is local either way
					}, nil)
			})
		})
	}
	return Figure{
		ID:      "A2",
		Title:   "Ablation: privatization",
		Caption: "The privatized manager pins against a locale-local cache (zero communication); without privatization every pin is a remote epoch read that queues for one of locale 0's handler slots.",
		Panels: []Panel{cfg.sweep("Pin/unpin loop (none backend)", "Locales", cfg.localeSweep(1),
			arm{"privatized (epoch cache)", "ablB privatized", privatized},
			arm{"unprivatized (remote epoch read per pin)", "ablB unprivatized", naive})},
	}
}

// AblationScatter compares the EpochManager's locale-sorted bulk frees
// against freeing each remote object with an individual RPC.
func AblationScatter(cfg Config) Figure {
	numObjects := cfg.ops(1 << 12)
	// Scatter: the real manager path, reclamation at the end.
	scatter := func(locales int) (Point, verdict) {
		return cfg.runDeletion(locales, numObjects, 100, 0, comm.BackendNone)
	}
	// Naive: free each remote object individually.
	rpc := func(locales int) (Point, verdict) {
		return cfg.measure(machine{locales: locales}, func(tr *trial) {
			objs := buildObjs(tr.c, numObjects, 100)
			tr.timed(func() {
				pgas.ForallCyclic(tr.c, numObjects, cfg.TasksPerLocale, nil,
					func(tc *pgas.Ctx, _ struct{}, i int) {
						tc.Free(objs[i])
					}, nil)
			})
		})
	}
	return Figure{
		ID:      "A3",
		Title:   "Ablation: scatter lists",
		Caption: "Sorting dead objects by owner turns N remote frees into one bulk transfer per (source, destination) locale pair.",
		Panels: []Panel{cfg.sweep("Reclaiming 100% remote objects", "Locales", cfg.localeSweep(2),
			arm{"scatter lists (bulk)", "ablC scatter", scatter},
			arm{"per-object RPC", "ablC rpc", rpc})},
	}
}

// AblationLimboPush compares the push *mechanism* of the limbo list —
// Listing 2's single wait-free exchange — against a lock-free CAS-loop
// push, with identical node handling on both sides (nodes
// preallocated; each push is exactly one deref plus the head update),
// so the measured difference is retries under contention.
func AblationLimboPush(cfg Config) Figure {
	totalOps := cfg.ops(1 << 15)

	type pushNode struct {
		next gas.Addr
	}
	push := func(useExchange bool) runFunc {
		return func(tasks int) (Point, verdict) {
			return cfg.measure(machine{locales: 1}, func(tr *trial) {
				c := tr.c
				// Exchange push needs no ABA stamp (no read-modify window);
				// the CAS loop reads the head and must detect recycling, so
				// it carries the stamp — each mechanism with its natural
				// protection, as in the paper.
				exHead := atomics.NewLocal(0, false)
				casHead := atomics.NewLocal(0, true)
				per := totalOps / tasks
				nodes := make([][]gas.Addr, tasks)
				pushNodes := pgas.NewSlab[pushNode](c.Sys())
				for t := 0; t < tasks; t++ {
					for i := 0; i < per; i++ {
						nodes[t] = append(nodes[t], pushNodes.AllocOn(c, c.Here(), &pushNode{}))
					}
				}
				tr.timed(func() {
					c.Coforall(tasks, func(tc *pgas.Ctx, t int) {
						if useExchange {
							for _, addr := range nodes[t] {
								n := pushNodes.MustLoad(tc, addr)
								old := exHead.Exchange(addr)
								n.next = old
							}
							return
						}
						for _, addr := range nodes[t] {
							n := pushNodes.MustLoad(tc, addr)
							for {
								top := casHead.ReadABA()
								n.next = top.Object()
								if casHead.CompareAndSwapABA(top, addr) {
									break
								}
							}
						}
					})
				})
			})
		}
	}
	return Figure{
		ID:      "A4",
		Title:   "Ablation: wait-free limbo push vs CAS loop",
		Caption: "Listing 2's single-exchange push never retries; a CAS-loop push retries under contention. Node handling is identical on both sides.",
		Panels: []Panel{cfg.sweep("Concurrent push of preallocated nodes (1 locale)", "Tasks", cfg.taskSweep(),
			arm{"wait-free exchange (Listing 2)", "ablD exchange", push(true)},
			arm{"lock-free CAS loop", "ablD casloop", push(false)})},
	}
}

// AblationAggregation compares direct per-operation dispatch against
// the aggregation layer on two workloads. Panel 1: remote network-
// atomic increments on the none backend — the direct path pays one AM
// round trip per increment (each taking one of the target's handler
// slots), the aggregated path buffers fire-and-forget adds and
// flushes in the task epilogue, paying one bulk transfer per batch.
// Panel 2: producers on every locale feeding one queue — per-op
// Enqueue pays one remote allocation RPC per element, EnqueueBulk
// ships nodes in pre-linked batches and publishes each with O(1)
// CASes. The communication counters, not just wall time, are the
// evidence: the aggregated runs issue O(flushes) bulk transfers where
// the direct runs issue O(ops) round trips (asserted in
// TestAblationAggregationCounters).
func AblationAggregation(cfg Config) Figure {
	totalOps := cfg.ops(1 << 13)
	const batchLen = 64

	inc := func(aggregated bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales}, func(tr *trial) {
				words := make([]*pgas.Word64, locales)
				for l := range words {
					words[l] = pgas.NewWord64(tr.c, l, 0)
				}
				tr.timed(func() {
					pgas.ForallCyclic(tr.c, totalOps, cfg.TasksPerLocale, nil,
						func(tc *pgas.Ctx, _ struct{}, i int) {
							dst := tc.RandIntn(locales)
							if aggregated {
								tc.Aggregator(dst).Add(words[dst], 1)
							} else {
								words[dst].Add(tc, 1)
							}
						},
						func(tc *pgas.Ctx, _ struct{}) {
							tc.Flush() // drain the task's buffers in the epilogue
						})
				})
			})
		}
	}

	produce := func(bulk bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales}, func(tr *trial) {
				em := tr.epochs()
				q := queue.New[int](tr.c, 0, em)
				per := max(totalOps/locales, 1)
				tr.timed(func() {
					tr.c.CoforallLocales(func(lc *pgas.Ctx) {
						em.Protect(lc, func(tok *epoch.Token) {
							if !bulk {
								for i := 0; i < per; i++ {
									q.Enqueue(lc, tok, i)
								}
								return
							}
							batch := make([]int, 0, batchLen)
							for i := 0; i < per; i++ {
								batch = append(batch, i)
								if len(batch) == batchLen {
									q.EnqueueBulk(lc, tok, batch)
									batch = batch[:0]
								}
							}
							if len(batch) > 0 {
								q.EnqueueBulk(lc, tok, batch)
							}
						})
					})
				})
			})
		}
	}

	return Figure{
		ID:      "A6",
		Title:   "Ablation: direct vs aggregated remote-op dispatch",
		Caption: "Aggregation buffers small remote operations per destination and ships each buffer as one bulk transfer: per-op round-trip latency becomes per-batch latency, and the comm counters drop from O(ops) round trips to O(flushes) bulk transfers.",
		Panels: []Panel{
			cfg.sweep("Remote increments: direct AM vs aggregated (none)", "Locales", cfg.localeSweep(2),
				arm{"direct (per-op round trips)", "ablF direct", inc(false)},
				arm{"aggregated (batched flushes)", "ablF aggregated", inc(true)}),
			cfg.sweep("Queue producers: per-op vs bulk enqueue (none)", "Locales", cfg.localeSweep(2),
				arm{"per-op enqueue", "ablF enqueue", produce(false)},
				arm{"bulk enqueue (64/batch)", "ablF enqBulk", produce(true)}),
		},
	}
}

// AblationSharding compares single-home structures against their
// owner-sharded, privatized successors under weak scaling (fixed work
// per locale). The claim is about *where* communication lands, so the
// evidence is the comm matrix, not just the scalar counters: a
// single-home queue or stack funnels every remote locale's operations
// into its home's column, which therefore grows O(L) with locale
// count, while the sharded versions keep every operation segment-local
// and the busiest column stays O(1). The third panel makes the
// hashmap's privatization claim: gets against locale-local buckets
// (routed with HomeOf) perform zero remote events, while uniformly
// random gets pay remote reads for the ~ (L-1)/L of buckets owned
// elsewhere. TestAblationA7 asserts all three properties exactly.
func AblationSharding(cfg Config) Figure {
	perLocale := cfg.ops(1 << 9) // weak scaling: per-locale work is constant

	// The queue and stack panels run one fill-then-drain loop; an arm
	// builds its container on locale 0's task and hands back the
	// insert and remove methods.
	type (
		putFn  = func(*pgas.Ctx, *epoch.Token, int)
		takeFn = func(*pgas.Ctx, *epoch.Token) (int, bool)
	)
	fillDrain := func(build func(*pgas.Ctx, epoch.EpochManager) (putFn, takeFn)) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, matrix: true}, func(tr *trial) {
				em := tr.epochs()
				put, take := build(tr.c, em)
				tr.timed(func() {
					tr.c.CoforallLocales(func(lc *pgas.Ctx) {
						em.Protect(lc, func(tok *epoch.Token) {
							for i := 0; i < perLocale; i++ {
								put(lc, tok, i)
							}
							for i := 0; i < perLocale; i++ {
								take(lc, tok)
							}
						})
					})
				})
			})
		}
	}
	singleQueue := func(c *pgas.Ctx, em epoch.EpochManager) (putFn, takeFn) {
		q := queue.New[int](c, 0, em)
		return q.Enqueue, q.Dequeue
	}
	shardedQueue := func(c *pgas.Ctx, em epoch.EpochManager) (putFn, takeFn) {
		q := queue.NewSharded[int](c, em)
		return q.Enqueue, q.Dequeue
	}
	singleStack := func(c *pgas.Ctx, em epoch.EpochManager) (putFn, takeFn) {
		st := stack.New[int](c, 0, em)
		return st.Push, st.Pop
	}
	shardedStack := func(c *pgas.Ctx, em epoch.EpochManager) (putFn, takeFn) {
		st := stack.NewSharded[int](c, em)
		return st.Push, st.Pop
	}

	gets := func(localOnly bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, matrix: true}, func(tr *trial) {
				em := tr.epochs()
				m := hashmap.New[int](tr.c, 8*locales, em).Shipped(false) // the paper's walk; A13 ships
				keys := make([]hashmap.KV[int], 32*locales)
				for k := range keys {
					keys[k] = hashmap.KV[int]{K: uint64(k), V: k}
				}
				m.InsertBulk(tr.c, keys)
				// Sequential per-locale windows keep the counter deltas
				// attributable; the claim is volume, not wall time.
				tr.timed(func() {
					for l := 0; l < locales; l++ {
						lc := tr.sys.Ctx(l)
						em.Protect(lc, func(tok *epoch.Token) {
							for rep := 0; rep < 4; rep++ {
								for k := range keys {
									if localOnly && m.HomeOf(uint64(k)) != l {
										continue
									}
									m.Get(lc, tok, uint64(k))
								}
							}
						})
					}
				})
			})
		}
	}

	return Figure{
		ID:      "A7",
		Title:   "Ablation: single-home vs owner-sharded structures",
		Caption: "Sharding by owner keeps structure operations on the calling locale: the single-home queue/stack's home column in the comm matrix grows O(L) under weak scaling while the sharded versions' busiest column stays O(1), and HomeOf-routed hashmap gets perform zero remote events.",
		Panels: []Panel{
			cfg.sweep("Queue enq+deq per locale: single-home vs sharded (none)", "Locales", cfg.localeSweep(2),
				arm{"single-home queue", "ablG queue single", fillDrain(singleQueue)},
				arm{"owner-sharded queue", "ablG queue sharded", fillDrain(shardedQueue)}),
			cfg.sweep("Stack push+pop per locale: single-home vs sharded (none)", "Locales", cfg.localeSweep(2),
				arm{"single-home stack", "ablG stack single", fillDrain(singleStack)},
				arm{"owner-sharded stack", "ablG stack sharded", fillDrain(shardedStack)}),
			cfg.sweep("Hashmap gets: locale-local vs random buckets (none)", "Locales", cfg.localeSweep(2),
				arm{"local buckets (HomeOf-routed)", "ablG map local", gets(true)},
				arm{"random buckets", "ablG map random", gets(false)}),
		},
	}
}

// homedKeys returns the first n keys, in ascending order, that the map
// homes on `home`. With a non-nil group it takes at most one key per
// group value (a bucket, a cache set). The fault and hotspot ablations
// home their hot keys on one locale so its matrix column carries the
// storm.
func homedKeys(m hashmap.Map[int], home, n int, group func(uint64) int) []uint64 {
	keys := make([]uint64, 0, n)
	seen := make(map[int]bool)
	for k := uint64(0); len(keys) < n; k++ {
		if m.HomeOf(k) != home {
			continue
		}
		if group != nil {
			g := group(k)
			if seen[g] {
				continue
			}
			seen[g] = true
		}
		keys = append(keys, k)
	}
	return keys
}

// AblationReplication measures the failure mode the owner-computed
// design leaves open — every Get on a hot key lands on its owner — and
// the read replication cache that closes it. Panel 1 is weak scaling
// of a hot-key get storm with all hot keys homed on locale 0: the
// uncached runs funnel every remote locale's gets into locale 0's
// matrix column, which grows O(L), while the cached runs (replicas
// warmed outside the measured window) serve every get locale-locally
// and the busiest column stays at the single coforall launch event.
// Panel 2 is the invalidation storm: readers hammer hot keys through
// the cache while writers mutate them (write-through broadcast
// invalidation) and reclaimers advance epochs — the crucible for the
// epoch-coherence claim, whose safety verdicts (zero UAF, deferred ==
// reclaimed) TestAblationA8 asserts via replicationStorm.
func AblationReplication(cfg Config) Figure {
	reps := cfg.ops(1 << 9)
	const hotKeys = 8
	const cacheSlots = 4 * hotKeys

	hot := func(cached bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, matrix: true}, func(tr *trial) {
				c := tr.c
				em := tr.epochs()
				m := hashmap.New[int](c, 8*locales, em).Shipped(false) // the paper's walk; A13 ships
				// Both arms attach the cache so both pick identical hot keys;
				// the uncached arm simply reads through the cacheless handle.
				// One key per cache set makes the warmed cached runs a pure
				// all-hit steady state.
				cv := m.Cached(c, cacheSlots)
				hot := homedKeys(m, 0, hotKeys, cv.Cache().SetOf)
				em.Protect(c, func(tok *epoch.Token) {
					for _, k := range hot {
						m.Insert(c, tok, k, int(k))
					}
				})
				if cached {
					// Warm every replica outside the measured window: the
					// steady state under scrutiny is the all-hit regime, so
					// the one cold miss per (locale, key) is setup, exactly
					// like the inserts above.
					c.CoforallLocales(func(lc *pgas.Ctx) {
						em.Protect(lc, func(tok *epoch.Token) {
							for _, k := range hot {
								cv.Get(lc, tok, k)
							}
						})
					})
				}
				tr.timed(func() {
					c.CoforallLocales(func(lc *pgas.Ctx) {
						em.Protect(lc, func(tok *epoch.Token) {
							for rep := 0; rep < reps; rep++ {
								k := hot[rep%hotKeys]
								if cached {
									cv.Get(lc, tok, k)
								} else {
									m.Get(lc, tok, k)
								}
							}
						})
					})
				})
			})
		}
	}

	return Figure{
		ID:      "A8",
		Title:   "Ablation: hot-key read replication cache",
		Caption: "Owner-computed gets funnel hot-key traffic into the owner's matrix column, which grows O(L); per-locale replicas with epoch-coherent write-through invalidation serve repeat gets locally, pinning the busiest column at the single launch event while the poisoned heaps verify no cached read ever observes reclaimed memory.",
		Panels: []Panel{
			cfg.sweep("Hot-key gets per locale: owner-computed vs replicated (none)", "Locales", cfg.localeSweep(2),
				arm{"owner-computed gets (hot column)", "ablH uncached", hot(false)},
				arm{"replicated gets (warmed cache)", "ablH cached", hot(true)}),
			cfg.sweep("Invalidation storm: cached gets vs write-through mutations (none)", "Locales", cfg.localeSweep(2),
				arm{"cached mix + invalidation storm", "ablH storm", func(locales int) (Point, verdict) {
					return replicationStorm(cfg, locales)
				}}),
		},
	}
}

// replicationStorm drives the seeded invalidation-storm scenario: on
// every locale one task issues a hot-key mix through a cached map —
// mostly gets, with periodic write-through Upserts and Removes (each
// broadcasting invalidations) and periodic reclaim attempts, so cached
// reads race entry retirement and epoch advancement the whole run. It
// returns the timed Point and the safety verdicts: any use-after-free
// would be detected by the poisoned heaps, and every retired entry
// must be physically reclaimed by the end.
func replicationStorm(cfg Config, locales int) (Point, verdict) {
	ops := cfg.ops(1 << 11)
	const stormKeys = 16
	return cfg.measure(machine{locales: locales, matrix: true}, func(tr *trial) {
		c := tr.c
		em := tr.epochs()
		m := hashmap.New[int](c, 8*locales, em).Shipped(false) // the paper's walk; A13 ships
		cv := m.Cached(c, 64)
		em.Protect(c, func(tok *epoch.Token) {
			for k := uint64(0); k < stormKeys; k++ {
				m.Insert(c, tok, k, int(k))
			}
		})
		tr.timed(func() {
			c.CoforallLocales(func(lc *pgas.Ctx) {
				tok := em.Register(lc)
				defer tok.Unregister(lc)
				for i := 0; i < ops; i++ {
					k := uint64(lc.RandIntn(stormKeys))
					switch {
					case i%16 == 0:
						cv.Upsert(lc, tok, k, i)
					case i%23 == 0:
						cv.Remove(lc, tok, k)
					default:
						cv.Get(lc, tok, k)
					}
					if i%128 == 0 {
						tok.TryReclaim(lc)
					}
				}
				lc.Flush() // ship this task's remaining invalidations
			})
		})
	})
}

// AblationWriteAbsorption isolates the two write-absorption layers
// stacked on top of plain aggregation. Panel 1 is a hot-key upsert
// storm against hashmap keys all homed on locale 0, each remote locale
// hammering its own small window of hot keys through UpsertAgg: with
// combining off every enqueued write ships and the owner replays
// O(ops) list CASes; with combining on, later writes to a key absorb
// into the buffered one, collapsing the shipped-op and owner-CAS
// totals to O(hot keys). Panel 2 is the same storm shape on aggregated
// Word64 Adds, where absorption merges deltas arithmetically instead
// of last-writer-wins. Both arms drain through the owner's flat
// combiner, so the delta between them is the in-flight absorption
// alone. Locale 0 does not write: its ops are own-locale writes, which
// the Combine-off arm executes inline (never enqueued) and the
// Combine-on arm buffers, so they would blur the shipped/enqueued and
// CAS comparisons TestAblationA9 asserts.
func AblationWriteAbsorption(cfg Config) Figure {
	reps := cfg.ops(1 << 9)
	const hotKeys = 4

	upserts := func(combine bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, agg: comm.AggConfig{Combine: combine}, matrix: true}, func(tr *trial) {
				m := hashmap.New[int](tr.c, 8*locales, tr.epochs())
				// Disjoint per-locale windows keep the final map state
				// deterministic in both arms.
				hot := homedKeys(m, 0, hotKeys*locales, nil)
				tr.timed(func() {
					tr.c.CoforallLocales(func(lc *pgas.Ctx) {
						if lc.Here() == 0 {
							return
						}
						mine := hot[lc.Here()*hotKeys : (lc.Here()+1)*hotKeys]
						for i := 0; i < reps; i++ {
							m.UpsertAgg(lc, mine[i%hotKeys], i)
						}
						lc.Flush()
					})
				})
			})
		}
	}
	adds := func(combine bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, agg: comm.AggConfig{Combine: combine}, matrix: true}, func(tr *trial) {
				words := make([]*pgas.Word64, hotKeys)
				for i := range words {
					words[i] = pgas.NewWord64(tr.c, 0, 0)
				}
				tr.timed(func() {
					tr.c.CoforallLocales(func(lc *pgas.Ctx) {
						if lc.Here() == 0 {
							return
						}
						b := lc.Aggregator(0)
						for i := 0; i < reps; i++ {
							b.Add(words[i%hotKeys], 1)
						}
						lc.Flush()
					})
				})
			})
		}
	}

	return Figure{
		ID:      "A9",
		Title:   "Ablation: write absorption (in-flight combining + owner-side flat combining)",
		Caption: "Under a hot-key write storm, in-flight combining absorbs repeat writes to a key inside the source's aggregation buffer, so shipped ops and the owner's CAS work scale with the hot-key count instead of the write count; both arms drain through the owner's flat combiner, which serializes the replay and keeps CAS retries at zero.",
		Panels: []Panel{
			cfg.sweep("Hot-key upsert storm: shipped writes & owner CAS (none)", "Locales", cfg.localeSweep(2),
				arm{"uncombined upserts (ship every write)", "ablI upsert plain", upserts(false)},
				arm{"combined upserts (absorbed in flight)", "ablI upsert comb", upserts(true)}),
			cfg.sweep("Hot-word add storm: shipped deltas (none)", "Locales", cfg.localeSweep(2),
				arm{"uncombined adds (ship every delta)", "ablI add plain", adds(false)},
				arm{"combined adds (merged deltas)", "ablI add comb", adds(true)}),
		},
	}
}

// a10WindowKeys picks one hot key per (window, writer locale) pair,
// every key homed on locale 0 and every key in a distinct bucket —
// the moving hot set: each window the storm drops its old keys and
// hammers fresh ones, so a static-ownership run funnels every window's
// traffic into locale 0's column while a rebalanced run can keep
// handing the hot buckets away. Distinct buckets make each migration's
// payload exactly one entry, which pins the moved-bytes arithmetic.
//
// Within a window the keys are sorted by bucket index so that the
// controller's candidate order (heat ties break entry-ascending) lines
// up with its cold-destination order (delta ties break locale-
// ascending, i.e. 1..L-1): writer locale j's bucket migrates to locale
// j, its writes turn local, and the window goes quiet after one
// migration round instead of chasing its own traffic around.
func a10WindowKeys(m hashmap.Map[int], locales, windows int) [][]uint64 {
	all := homedKeys(m, 0, windows*(locales-1), m.BucketOf)
	keys := make([][]uint64, windows)
	for w := range keys {
		keys[w] = all[w*(locales-1) : (w+1)*(locales-1)]
		sort.Slice(keys[w], func(i, j int) bool {
			return m.BucketOf(keys[w][i]) < m.BucketOf(keys[w][j])
		})
	}
	return keys
}

// a10 storm geometry, shared by both arms and by TestAblationA10's
// arithmetic: each of `a10Windows` windows hammers a fresh hot-key set
// for `a10Quanta` quanta, each writer flushing every `a10FlushEvery`
// writes so the comm matrix sees several flush events per quantum (at
// test scale: 7 — six full batches plus the trailing partial flush).
const (
	a10Windows    = 3
	a10Quanta     = 10
	a10FlushEvery = 4
)

// movingHotStorm drives the moving-hot-set write storm: every locale
// but 0 hammers its own hot key through the owner-routed UpsertAgg,
// all hot buckets homed on locale 0, and the hot set jumps to fresh
// buckets (still homed on 0) at every window boundary. The rebalanced
// arm steps a rebalance.Controller once per quantum — inline, from
// the orchestrating task, so the run is deterministic — which detects
// locale 0's over-ratio column at each window's first quantum and
// hands the hot buckets to cold locales; the static arm never steps
// it. Locale 0 does not write: combining is off, so its own-locale
// writes would execute inline and blur the column comparison. The
// verdict's Ctrl is the controller's own books, which the comm counter
// totals beside it must reconcile with.
func movingHotStorm(cfg Config, locales int, rebalanced bool) (Point, verdict) {
	reps := cfg.ops(1 << 9)
	return cfg.measure(machine{locales: locales, matrix: true}, func(tr *trial) {
		c := tr.c
		em := tr.epochs()
		m := hashmap.New[int](c, 16*locales, em).Shipped(false) // the paper's walk; A13 ships
		hot := a10WindowKeys(m, locales, a10Windows)
		em.Protect(c, func(tok *epoch.Token) {
			for _, ks := range hot {
				for _, k := range ks {
					m.Insert(c, tok, k, int(k))
				}
			}
		})
		// Anchor the controller after setup so the load traffic never
		// counts as imbalance. MinEvents 8 admits a window-opening
		// quantum even at 2 locales (7 flush events + 1 launch) while
		// ignoring launch-and-handoff residue; MaxMoves covers every
		// writer's bucket in one window.
		ctrl := rebalance.NewController(c, m, rebalance.Config{
			Ratio:     1.5,
			MinEvents: 8,
			MaxMoves:  locales,
			Cooldown:  1,
		})
		tr.timed(func() {
			for w := 0; w < a10Windows; w++ {
				for q := 0; q < a10Quanta; q++ {
					c.CoforallLocales(func(lc *pgas.Ctx) {
						if lc.Here() == 0 {
							return
						}
						k := hot[w][lc.Here()-1]
						for i := 0; i < reps; i++ {
							m.UpsertAgg(lc, k, i)
							if (i+1)%a10FlushEvery == 0 {
								lc.Flush()
							}
						}
						lc.Flush()
					})
					if rebalanced {
						ctrl.Step(c)
					}
				}
			}
		})
		tr.v.Ctrl = ctrl.Stats()
	})
}

// AblationRebalancing measures the gap static ownership leaves open —
// a hot set that keeps moving to fresh buckets homed on one locale
// funnels every window's writes into that locale's inbound column —
// and the dynamic rebalancing that closes it: the controller reads the
// same windowed matrix columns the diagnostics already maintain,
// detects the over-ratio source, and migrates the hot buckets (with
// their contents, via the epoch-coherent handoff) to cold locales, so
// the busiest column stays bounded by the per-window burst instead of
// accumulating the whole run. TestAblationA10 asserts the bound, the
// static arm's O(L) growth, and the exact migration books.
func AblationRebalancing(cfg Config) Figure {
	storm := func(rebalanced bool) runFunc {
		return func(locales int) (Point, verdict) { return movingHotStorm(cfg, locales, rebalanced) }
	}
	return Figure{
		ID:      "A10",
		Title:   "Ablation: dynamic hot-shard rebalancing",
		Caption: "A moving hot set defeats any static placement: every window's writes funnel into the hot buckets' home column, which grows with locales and run length. The rebalance controller reads the windowed comm-matrix deltas, detects the over-ratio source, and migrates the hot buckets through the epoch-coherent ownership handoff, bounding the busiest inbound column near the per-window burst while the poisoned heaps verify no in-flight reader ever observes reclaimed bucket memory.",
		Panels: []Panel{cfg.sweep("Moving hot set: busiest inbound column (none)", "Locales", cfg.localeSweep(2),
			arm{"static ownership (column accumulates)", "ablJ static", storm(false)},
			arm{"rebalanced (hot buckets migrate off)", "ablJ rebalanced", storm(true)})},
	}
}

// a11 crash-storm geometry, shared by both arms and by
// TestAblationA11's arithmetic: a11PreQuanta healthy quanta, then the
// victim locale crashes, then a11PostQuanta quanta against the
// crashed cluster. Every writer hammers one victim-homed key, turning
// every a11RemoveEvery-th write into a removal so deferred deletions
// flow the whole run; each quantum ends quiescent (coforall join +
// flush) with one inline TryReclaim, so advance/advance-fail counts
// are exact.
const (
	a11PreQuanta   = 4
	a11PostQuanta  = 6
	a11RemoveEvery = 4
)

// a11Victim is the crashed locale: not 0 (locale 0 hosts the global
// epoch word and the orchestrating task, and cannot crash).
const a11Victim = 1

// crashStorm drives the crash-under-hot-load scenario: every locale
// but the victim hammers its own victim-homed key through the
// owner-routed fire-and-forget writes (combine off, so refused ops count
// one-for-one), with every a11RemoveEvery-th write a removal that
// defers a node. After a11PreQuanta quanta the victim strands one
// pinned token (the pin a fail-stop kill leaves behind), the epoch
// advances once more so the pin goes stale, and the victim is marked
// dead. The failover arm then adopts the victim's buckets onto the
// survivors and force-retires the stranded token before the storm
// resumes; the wedged arm resumes immediately. Both arms run
// a11PostQuanta more quanta: wedged, every write toward the dead owner
// drains to the lost-ops ledger and every epoch election fails on the
// stale pin; failed over, writes follow the republished owner table
// and elections succeed. All control flow is inline from the
// orchestrating task between quiescent quanta, so both arms replay
// exactly. The verdict's Shards/Bytes/Tokens are the failover books
// (shards adopted, bytes moved, tokens force-retired); the comm totals
// beside them must reconcile — OpsLost being the availability headline.
func crashStorm(cfg Config, locales int, failover bool) (Point, verdict) {
	reps := cfg.ops(1 << 9)
	return cfg.measure(machine{locales: locales, matrix: true}, func(tr *trial) {
		c := tr.c
		em := tr.epochs()
		m := hashmap.New[int](c, 16*locales, em).Shipped(false) // the paper's walk; A13 ships
		// One hot key per writer locale (every locale but the victim),
		// all homed on the victim and each in a distinct bucket, so the
		// whole storm funnels into the locale about to die and each
		// failover adoption moves exactly one hot entry.
		keys := homedKeys(m, a11Victim, locales-1, m.BucketOf)
		em.Protect(c, func(tok *epoch.Token) {
			for _, k := range keys {
				m.Insert(c, tok, k, int(k))
			}
		})
		quantum := func() {
			c.CoforallLocales(func(lc *pgas.Ctx) {
				if lc.Here() == a11Victim {
					return
				}
				idx := lc.Here()
				if idx > a11Victim {
					idx--
				}
				k := keys[idx]
				for i := 0; i < reps; i++ {
					if (i+1)%a11RemoveEvery == 0 {
						m.RemoveAgg(lc, k)
						lc.Flush()
					} else {
						m.UpsertAgg(lc, k, i)
					}
				}
				lc.Flush()
			})
			em.TryReclaim(c)
		}
		tr.timed(func() {
			for q := 0; q < a11PreQuanta; q++ {
				quantum()
			}
			// The crash: strand the pin, stale it with one advance, kill.
			c.On(a11Victim, func(vc *pgas.Ctx) { em.Pin(vc) })
			em.TryReclaim(c)
			if err := tr.sys.Crash(a11Victim); err != nil {
				panic(err)
			}
			if failover {
				sc := c.Salvage()
				tr.v.Shards, tr.v.Bytes = m.Failover(sc, a11Victim)
				tr.v.Tokens = em.ForceRetire(sc, a11Victim)
				sc.Flush()
			}
			for q := 0; q < a11PostQuanta; q++ {
				quantum()
			}
		})
	})
}

// AblationCrashFailover measures what a fail-stop locale loss costs
// with and without the recovery protocol. Without failover the cluster
// keeps the dead locale's shards on its books: every write toward them
// drains to the lost-ops ledger — growing linearly with survivors,
// post-crash quanta and write rate — and the stranded pin blocks every
// epoch election, so reclamation wedges for the rest of the run. With
// failover the survivors adopt the dead locale's buckets through the
// epoch-coherent handoff and the stranded pin is force-retired: writes
// resume against the republished owner table with zero further loss
// and every election succeeds. TestAblationA11 asserts the wedged
// arm's exact loss arithmetic, the failover arm's zero post-recovery
// loss, the adoption books, and that both arms still end heap-safe
// with deferred == reclaimed.
func AblationCrashFailover(cfg Config) Figure {
	storm := func(failover bool) runFunc {
		return func(locales int) (Point, verdict) { return crashStorm(cfg, locales, failover) }
	}
	return Figure{
		ID:      "A11",
		Title:   "Ablation: crash failover vs wedged reclamation",
		Caption: "A fail-stop locale crash leaves two poisons: its shards keep absorbing (and losing) every write routed at them, and its stranded epoch pins block every advance election, wedging reclamation system-wide. The failover protocol adopts the dead locale's buckets onto the survivors through the same epoch-coherent handoff rebalancing uses and force-retires the stranded pins, after which writes follow the republished owner table with zero further loss and reclamation proceeds — while the poisoned heaps verify the recovery never freed memory a surviving reader could still observe.",
		Panels: []Panel{cfg.sweep("Locale crash under hot load: ops lost (none)", "Locales", cfg.localeSweep(2),
			arm{"no failover (ledger grows, reclamation wedged)", "ablK wedged", storm(false)},
			arm{"failover (shards adopted, pins force-retired)", "ablK failover", storm(true)})},
	}
}

// a12 flash-partition geometry, shared by both arms and by
// TestAblationA12's arithmetic: a12PreQuanta healthy quanta, then the
// pair (a12PairA, a12PairB) severs, a12SevQuanta quanta run against
// the partition, the pair heals (settling the retry ledgers
// synchronously), and a12PostQuanta quanta close the run. Each quantum
// ends quiescent (coforall join + flush), so the refused-op count is
// exact: the two pair locales each aim their whole per-quantum budget
// across the severed link while every other locale writes around it.
const (
	a12PreQuanta  = 2
	a12SevQuanta  = 4
	a12PostQuanta = 2
)

// The severed pair. Neither end is locale 0: the orchestrating task
// lives there and its traffic should stay healthy in both arms.
const (
	a12PairA = 1
	a12PairB = 2
)

// flashPartition drives the transient-fault scenario: every locale
// writes its per-quantum budget at a fixed peer through the aggregated
// path (combine off, so refused ops count one-for-one) — locale
// a12PairA at a key homed on a12PairB, a12PairB back at a12PairA, and
// everyone else around the ring, clear of the pair. After the healthy
// quanta the pair severs; during the severed quanta both pair locales'
// entire budgets hit the refusal site. With the retry plane enabled
// (deadline far past the run) every refused op parks and the heal
// redelivers all of them; with the plane disabled every refused op
// drains straight to the lost-ops ledger, O(rate × duration). All
// control flow is inline from the orchestrating task between quiescent
// quanta, so both arms replay exactly. In the verdict's comm totals the
// retry ledger books and the lost-ops ledger are the headline.
func flashPartition(cfg Config, locales int, retry bool) (Point, verdict) {
	park := comm.ParkConfig{DeadlineNS: int64(time.Hour), Capacity: 1 << 16}
	if !retry {
		park = comm.ParkConfig{Disable: true}
	}
	reps := cfg.ops(1 << 9)
	return cfg.measure(machine{locales: locales, park: park, matrix: true}, func(tr *trial) {
		c := tr.c
		em := tr.epochs()
		m := hashmap.New[int](c, 16*locales, em).Shipped(false) // the paper's walk; A13 ships
		// One target key per locale: the pair aim at each other, the
		// rest at their ring successor (skipping nothing — the ring
		// only crosses the severed link at the pair itself).
		targets := make([]uint64, locales)
		for lc := 0; lc < locales; lc++ {
			peer := (lc + 1) % locales
			switch lc {
			case a12PairA:
				peer = a12PairB
			case a12PairB:
				peer = a12PairA
			}
			targets[lc] = homedKeys(m, peer, 1, nil)[0]
		}
		em.Protect(c, func(tok *epoch.Token) {
			for _, k := range targets {
				m.Insert(c, tok, k, int(k))
			}
		})
		quantum := func() {
			c.CoforallLocales(func(lc *pgas.Ctx) {
				k := targets[lc.Here()]
				for i := 0; i < reps; i++ {
					m.UpsertAgg(lc, k, i)
				}
				lc.Flush()
			})
		}
		tr.timed(func() {
			for q := 0; q < a12PreQuanta; q++ {
				quantum()
			}
			if err := tr.sys.Sever(a12PairA, a12PairB); err != nil {
				panic(err)
			}
			for q := 0; q < a12SevQuanta; q++ {
				quantum()
			}
			// Heal settles the retry ledgers synchronously: every parked
			// op redelivers before the next quantum issues.
			if err := tr.sys.Heal(a12PairA, a12PairB); err != nil {
				panic(err)
			}
			for q := 0; q < a12PostQuanta; q++ {
				quantum()
			}
		})
	})
}

// AblationPartitionRetry measures what a transient network partition
// costs with and without the retry plane. Disabled, every op
// refused across the severed pair drains to the lost-ops ledger for as
// long as the partition lasts — O(rate × duration), indistinguishable
// on the books from a crash. Enabled, refused ops park in the
// per-locale retry ledgers and the heal redelivers all of them: the
// settlement identity OpsParked == OpsRedelivered + OpsExpired closes
// with zero expiries and zero losses. TestAblationA12 asserts both
// arms' exact arithmetic.
func AblationPartitionRetry(cfg Config) Figure {
	partition := func(retry bool) runFunc {
		return func(locales int) (Point, verdict) { return flashPartition(cfg, locales, retry) }
	}
	return Figure{
		ID:      "A12",
		Title:   "Ablation: partition retry plane vs fail-stop refusal",
		Caption: "A transient partition is not a crash, but without a retry plane the books cannot tell the difference: every op refused across the severed pair drains to the lost-ops ledger for the whole outage, O(rate × duration). The retry plane parks refused ops in bounded per-locale ledgers and redelivers them through the normal aggregation path when the pair heals — the settlement identity OpsParked == OpsRedelivered + OpsExpired closes with zero losses, reserving the fail-stop ledger for actual crashes.",
		Panels: []Panel{cfg.sweep("Flash partition: ops lost (none)", "Locales", cfg.localeSweep(4),
			arm{"retry disabled (every refused op lost: O(rate × duration))", "ablL dropped", partition(false)},
			arm{"retry (parked, redelivered at heal)", "ablL retried", partition(true)})},
	}
}

// a13Op is op i of locale l's share of A13's fixed synchronous mix over
// keyspace keys: five gets, an insert, an upsert and a remove in every
// eight ops, on a key stream that strides across the keyspace (37 is
// odd, so coprime to the power-of-two keyspace). TestAblationA13
// replays it against a model.
func a13Op(l, i, keyspace int) (op byte, k uint64) {
	return "gggggiur"[i%8], uint64((i*37 + l*11) % keyspace)
}

// AblationShipping compares the two routes a synchronous hashmap
// operation on a remote bucket can take: the paper's walk (data
// shipping — every word of the owner's list read or CASed across the
// network, the owner's CPU idle under NIC atomics) and one on-statement
// to the owner that runs the same list code on local words (function
// shipping). Each locale in turn runs the same fixed sync-op mix against
// a map whose even keys were bulk-loaded; sequential windows keep the
// counters exact, and the claim is per-op volume, not wall time. On none
// every remote word access is an active message, so the ship arm's one
// on-statement undercuts the walk; on ugni a NIC atomic is cheaper than
// an on-statement and the walk wins — the rule hashmap.New applies on
// its own. TestAblationA13 asserts both arms' exact counters.
func AblationShipping(cfg Config) Figure {
	perLocale := cfg.ops(1 << 9)
	run := func(backend comm.Backend, ship bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales, backend: backend, matrix: true}, func(tr *trial) {
				em := tr.epochs()
				m := hashmap.New[int](tr.c, 8*locales, em).Shipped(ship)
				keyspace := 32 * locales
				load := make([]hashmap.KV[int], 0, keyspace/2)
				for k := 0; k < keyspace; k += 2 {
					load = append(load, hashmap.KV[int]{K: uint64(k), V: k})
				}
				m.InsertBulk(tr.c, load)
				tr.timed(func() {
					for l := 0; l < locales; l++ {
						lc := tr.sys.Ctx(l)
						em.Protect(lc, func(tok *epoch.Token) {
							for i := 0; i < perLocale; i++ {
								switch op, k := a13Op(l, i, keyspace); op {
								case 'g':
									m.Get(lc, tok, k)
								case 'i':
									m.Insert(lc, tok, k, i)
								case 'u':
									m.Upsert(lc, tok, k, i)
								case 'r':
									m.Remove(lc, tok, k)
								}
							}
						})
					}
				})
			})
		}
	}
	var panels []Panel
	for _, b := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		panels = append(panels, cfg.sweep(fmt.Sprintf("Sync map ops per locale: walk vs ship (%v)", b), "Locales", cfg.localeSweep(2),
			arm{"walk (data shipping)", "ablM " + b.String() + " walk", run(b, false)},
			arm{"ship (one on-statement to the owner)", "ablM " + b.String() + " ship", run(b, true)}))
	}
	return Figure{
		ID:      "A13",
		Title:   "Ablation: function vs data shipping for synchronous map operations",
		Caption: "A remote synchronous map operation either walks the owner's bucket list word by word (1 + 2v remote events, the paper's design, which keeps the owner's CPU idle under NIC atomics) or ships as one on-statement that runs the same list code on the owner's local words. Without NIC atomics every word access is an active message anyway, and the single on-statement wins; with them the walk is cheaper than an on-statement.",
		Panels:  panels,
	}
}

// Ablations runs every ablation study.
func Ablations(cfg Config) []Figure {
	return []Figure{
		AblationCompression(cfg),
		AblationPrivatization(cfg),
		AblationScatter(cfg),
		AblationLimboPush(cfg),
		AblationReclamation(cfg),
		AblationAggregation(cfg),
		AblationSharding(cfg),
		AblationReplication(cfg),
		AblationWriteAbsorption(cfg),
		AblationRebalancing(cfg),
		AblationCrashFailover(cfg),
		AblationPartitionRetry(cfg),
		AblationShipping(cfg),
	}
}
