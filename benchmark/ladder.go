package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/bench"
	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/hashmap"
	"gopgas/internal/structures/queue"
	"gopgas/internal/structures/shared"
	"gopgas/internal/trace"
	"gopgas/internal/workload"
)

// The ladder: one rung per layer entry point, measured from outside
// through exported functions only, on 4 locales with the zero latency
// profile. Every rung runs a fixed number of calls, ladderRepeats
// times, after a runtime.GC, at GOMAXPROCS=1; the median ns per call
// is the metric. Rungs that touch shared state run again as <name>_par
// at the run's GOMAXPROCS with that many goroutines, each making the
// full number of calls on its own locale, so a perfectly scalable rung
// reads the same in both.

const ladderRepeats = 5

// parProcs asks for one goroutine per GOMAXPROCS in the _par variant.
const parProcs = -1

// sink keeps the compiler from discarding measured calls.
var sink atomic.Uint64

// rung is one ladder measurement. Exactly one of loop and timed is
// set: loop bodies are timed by the harness (g is the goroutine and
// locale index, n the call count), timed bodies set up untimed state
// per repeat and return only the nanoseconds of their measured part.
type rung struct {
	name  string
	iters int
	par   int // goroutines of the _par variant; 0 for none
	loop  func(e *ladderEnv) func(g, n int)
	timed func(e *ladderEnv) func(n int) time.Duration
}

// ladderEnv is the fixture the rungs share: one system per backend,
// one context and one registered token per locale, and one epoch
// manager.
type ladderEnv struct {
	none, ugni *pgas.System
	ctx        []*pgas.Ctx // on none, one per locale
	em         epoch.EpochManager
	tok        []*epoch.Token
	keys       []uint64 // uniform over the map keyspace
}

func newLadderEnv() *ladderEnv {
	e := &ladderEnv{
		none: pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone, Seed: 42}),
		ugni: pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendUGNI, Seed: 42}),
	}
	for l := 0; l < locales; l++ {
		e.ctx = append(e.ctx, e.none.Ctx(l))
	}
	e.em = epoch.NewEpochManager(e.ctx[0])
	for l := 0; l < locales; l++ {
		e.tok = append(e.tok, e.em.Register(e.ctx[l]))
	}
	st := workload.NewStream(42, 0, 0, 0, 0, mapKeyspace, workload.KeyDist{Kind: workload.DistUniform}, workload.Mix{Get: 1}, nil)
	e.keys = st.NextKeys(4096)
	return e
}

func (e *ladderEnv) close() {
	e.none.Shutdown()
	e.ugni.Shutdown()
}

// newMap returns a map shaped like the workloads' with every other key
// of the keyspace present.
func (e *ladderEnv) newMap() hashmap.Map[int64] {
	m := hashmap.New[int64](e.ctx[0], mapBuckets, e.em)
	for k := uint64(0); k < mapKeyspace; k += 2 {
		m.Insert(e.ctx[0], e.tok[0], k, int64(k))
	}
	return m
}

// benchOp is a combinable aggregated op whose merge always succeeds.
type benchOp struct{ k uint64 }

func (o *benchOp) CombineKey() comm.CombineKey { return comm.CombineKey{Kind: 200, K: o.k} }
func (o *benchOp) Absorb(comm.CombinableOp) (int64, bool) {
	return 0, true
}

// newAggregator returns a stand-alone comm.Aggregator from locale 0
// whose delivery does nothing.
func newAggregator(cfg comm.AggConfig) *comm.Aggregator {
	return comm.NewAggregator(0, locales, cfg, new(comm.Counters), comm.NewMatrix(locales), comm.Zero(),
		func(int, []comm.Op) {})
}

func rungs() []rung {
	noop := func(*pgas.Ctx) {}
	next := func(g int) int { return (g + 1) % locales }
	return []rung{
		{name: "gas.load_ns", iters: 4_000_000, par: parProcs, loop: func(e *ladderEnv) func(g, n int) {
			addrs := make([][]gas.Addr, locales)
			for l := range addrs {
				for i := 0; i < 1024; i++ {
					addrs[l] = append(addrs[l], e.none.LocaleHeap(l).Alloc(&struct{ v int }{i}))
				}
			}
			return func(g, n int) {
				h, mine := e.none.LocaleHeap(g), addrs[g]
				var hits uint64
				for i := 0; i < n; i++ {
					if _, ok := h.Load(mine[i&1023]); ok {
						hits++
					}
				}
				sink.Add(hits)
			}
		}},
		{name: "gas.store_ns", iters: 500_000, loop: func(e *ladderEnv) func(g, n int) {
			h := e.none.LocaleHeap(0)
			var obj any = &struct{ v int }{1}
			a := h.Alloc(obj)
			return func(g, n int) {
				for i := 0; i < n; i++ {
					h.Store(a, obj)
				}
			}
		}},
		{name: "gas.alloc_free_ns", iters: 300_000, loop: func(e *ladderEnv) func(g, n int) {
			h := e.none.LocaleHeap(0)
			var obj any = &struct{ v int }{1}
			return func(g, n int) {
				for i := 0; i < n; i++ {
					h.Free(h.Alloc(obj))
				}
			}
		}},

		{name: "comm.count_inc_ns", iters: 1_000_000, par: parProcs, loop: func(e *ladderEnv) func(g, n int) {
			ctr, mx := new(comm.Counters), comm.NewMatrix(locales)
			return func(g, n int) {
				for i := 0; i < n; i++ {
					ctr.IncGet(g)
					mx.Inc(g, next(g))
				}
			}
		}},
		{name: "comm.agg_enqueue_ns", iters: 1_000_000, loop: func(e *ladderEnv) func(g, n int) {
			a := newAggregator(comm.AggConfig{})
			op := comm.Op{Bytes: 16, Exec: noop}
			return func(g, n int) {
				for i := 0; i < n; i++ {
					a.Enqueue(1, op)
				}
				a.Flush()
			}
		}},
		{name: "comm.agg_enqueue_combine_ns", iters: 500_000, loop: func(e *ladderEnv) func(g, n int) {
			a := newAggregator(comm.AggConfig{Combine: true})
			var ops [8]comm.Op
			for k := range ops {
				ops[k] = comm.Op{Bytes: 16, Exec: &benchOp{uint64(k)}}
			}
			return func(g, n int) {
				for i := 0; i < n; i++ {
					a.Enqueue(1, ops[i&7])
				}
				a.Flush()
			}
		}},
		{name: "comm.agg_flush_ns_per_op", iters: 768_000, timed: func(e *ladderEnv) func(n int) time.Duration {
			a := newAggregator(comm.AggConfig{Policy: comm.FlushManual})
			op := comm.Op{Bytes: 16, Exec: noop}
			return func(n int) time.Duration {
				// One clock pair per three 64-op flushes (one per remote
				// destination) keeps the clock's own cost out of the figure.
				var d time.Duration
				for b := 0; b < n/(64*(locales-1)); b++ {
					for i := 0; i < 64; i++ {
						for dst := 1; dst < locales; dst++ {
							a.Enqueue(dst, op)
						}
					}
					t0 := time.Now()
					a.Flush()
					d += time.Since(t0)
				}
				return d
			}
		}},
		// Four spinners: the closed loop's four clients are what sit in
		// Delay side by side on a latency-scaled workload.
		{name: "comm.delay_2500_ns", iters: 4_000, par: workers, loop: func(e *ladderEnv) func(g, n int) {
			return func(g, n int) {
				for i := 0; i < n; i++ {
					comm.Delay(2500)
				}
			}
		}},

		{name: "pgas.on_sync_ns", iters: 200_000, par: parProcs, loop: func(e *ladderEnv) func(g, n int) {
			return func(g, n int) {
				c, dst := e.ctx[g], next(g)
				for i := 0; i < n; i++ {
					c.On(dst, noop)
				}
			}
		}},
		{name: "pgas.on_async_ns", iters: 100_000, loop: func(e *ladderEnv) func(g, n int) {
			return func(g, n int) {
				c := e.ctx[0]
				for i := 0; i < n; i++ {
					c.AsyncOn(1, noop)
					if i&63 == 63 {
						c.Flush()
					}
				}
				c.Flush()
			}
		}},
		{name: "pgas.amo_local_ns", iters: 500_000, loop: func(e *ladderEnv) func(g, n int) {
			w := pgas.NewWord64(e.ctx[0], 0, 0)
			return func(g, n int) {
				for i := 0; i < n; i++ {
					w.Add(e.ctx[0], 1)
				}
			}
		}},
		{name: "pgas.amo_nic_ns", iters: 500_000, loop: func(e *ladderEnv) func(g, n int) {
			c := e.ugni.Ctx(0)
			w := pgas.NewWord64(c, 1, 0)
			return func(g, n int) {
				for i := 0; i < n; i++ {
					w.Add(c, 1)
				}
			}
		}},
		{name: "pgas.amo_am_ns", iters: 50_000, par: parProcs, loop: func(e *ladderEnv) func(g, n int) {
			var ws [locales]*pgas.Word64
			for l := range ws {
				ws[l] = pgas.NewWord64(e.ctx[0], next(l), 0)
			}
			return func(g, n int) {
				c, w := e.ctx[g], ws[g]
				for i := 0; i < n; i++ {
					w.Add(c, 1)
				}
			}
		}},
		{name: "pgas.dcas_local_ns", iters: 300_000, loop: func(e *ladderEnv) func(g, n int) {
			return dcasLoop(e.ctx[0], pgas.NewWord128(e.ctx[0], 0, 0, 0))
		}},
		{name: "pgas.dcas_am_ns", iters: 50_000, loop: func(e *ladderEnv) func(g, n int) {
			return dcasLoop(e.ctx[0], pgas.NewWord128(e.ctx[0], 1, 0, 0))
		}},
		{name: "pgas.get_remote_ns", iters: 1_000_000, loop: func(e *ladderEnv) func(g, n int) {
			a := e.ctx[1].Alloc(&struct{ v int }{1})
			return func(g, n int) {
				var hits uint64
				for i := 0; i < n; i++ {
					if _, ok := e.ctx[0].Load(a); ok {
						hits++
					}
				}
				sink.Add(hits)
			}
		}},
		{name: "pgas.agg_call_ns", iters: 500_000, loop: func(e *ladderEnv) func(g, n int) {
			return func(g, n int) {
				c := e.ctx[0]
				for i := 0; i < n; i++ {
					c.Aggregator(1).Call(noop)
				}
				c.Flush()
			}
		}},

		{name: "atomics.read_ns", iters: 600_000, loop: func(e *ladderEnv) func(g, n int) {
			c := e.ctx[0]
			a := atomics.New(c, 0, atomics.Options{})
			a.Write(c, c.Alloc(&struct{ v int }{1}))
			return func(g, n int) {
				var sum uint64
				for i := 0; i < n; i++ {
					sum += uint64(a.Read(c))
				}
				sink.Add(sum)
			}
		}},
		{name: "atomics.cas_ns", iters: 400_000, loop: func(e *ladderEnv) func(g, n int) {
			c := e.ctx[0]
			a := atomics.New(c, 0, atomics.Options{})
			x, y := c.Alloc(&struct{ v int }{1}), c.Alloc(&struct{ v int }{2})
			a.Write(c, x)
			return func(g, n int) {
				for i := 0; i < n; i++ {
					if a.CompareAndSwap(c, x, y) {
						x, y = y, x
					}
				}
			}
		}},
		// One ABA-protected update: the stamped read plus the DCAS.
		{name: "atomics.cas_aba_ns", iters: 200_000, loop: func(e *ladderEnv) func(g, n int) {
			c := e.ctx[0]
			a := atomics.New(c, 0, atomics.Options{ABA: true})
			x, y := c.Alloc(&struct{ v int }{1}), c.Alloc(&struct{ v int }{2})
			a.WriteABA(c, x)
			return func(g, n int) {
				for i := 0; i < n; i++ {
					if a.CompareAndSwapABA(c, a.ReadABA(c), y) {
						x, y = y, x
					}
				}
			}
		}},

		{name: "epoch.pin_unpin_ns", iters: 1_000_000, par: parProcs, loop: func(e *ladderEnv) func(g, n int) {
			return func(g, n int) {
				c, tok := e.ctx[g], e.tok[g]
				for i := 0; i < n; i++ {
					tok.Pin(c)
					tok.Unpin(c)
				}
			}
		}},
		{name: "epoch.defer_ns", iters: 100_000, timed: func(e *ladderEnv) func(n int) time.Duration {
			return func(n int) time.Duration {
				d := e.deferObjects(n)
				e.em.Clear(e.ctx[0])
				return d
			}
		}},
		{name: "epoch.reclaim_ns_per_obj", iters: 100_000, timed: func(e *ladderEnv) func(n int) time.Duration {
			return func(n int) time.Duration {
				e.deferObjects(n)
				t0 := time.Now()
				e.em.Clear(e.ctx[0])
				return time.Since(t0)
			}
		}},

		{name: "shared.combiner_do_ns", iters: 200_000, par: parProcs, loop: func(e *ladderEnv) func(g, n int) {
			var cb shared.Combiner
			fn := func() {}
			return func(g, n int) {
				for i := 0; i < n; i++ {
					cb.Do(fn)
				}
			}
		}},

		{name: "hashmap.get_ns", iters: 20_000, loop: func(e *ladderEnv) func(g, n int) {
			m := e.newMap()
			return func(g, n int) {
				var hits uint64
				for i := 0; i < n; i++ {
					if _, ok := m.Get(e.ctx[0], e.tok[0], e.keys[i&4095]); ok {
						hits++
					}
				}
				sink.Add(hits)
			}
		}},
		{name: "hashmap.upsert_ns", iters: 4_000, loop: func(e *ladderEnv) func(g, n int) {
			m := e.newMap()
			return func(g, n int) {
				for i := 0; i < n; i++ {
					m.Upsert(e.ctx[0], e.tok[0], e.keys[i&4095], int64(i))
				}
			}
		}},
		{name: "hashmap.remove_ns", iters: 4_000, timed: func(e *ladderEnv) func(n int) time.Duration {
			m := e.newMap()
			return func(n int) time.Duration {
				c, tok := e.ctx[0], e.tok[0]
				for i := 0; i < n; i++ {
					m.Insert(c, tok, mapKeyspace+uint64(i), 0)
				}
				t0 := time.Now()
				for i := 0; i < n; i++ {
					m.Remove(c, tok, mapKeyspace+uint64(i))
				}
				d := time.Since(t0)
				e.em.Clear(c)
				return d
			}
		}},
		{name: "hashmap.upsert_agg_ns", iters: 16_000, loop: func(e *ladderEnv) func(g, n int) {
			m := e.newMap()
			return func(g, n int) {
				c := e.ctx[0]
				for i := 0; i < n; i++ {
					m.UpsertAgg(c, e.keys[i&4095], int64(i))
				}
				c.Flush()
			}
		}},
		// One enqueue plus one dequeue on the caller's own segment.
		{name: "queue.enq_deq_ns", iters: 40_000, timed: func(e *ladderEnv) func(n int) time.Duration {
			q := queue.NewSharded[int64](e.ctx[0], e.em)
			return func(n int) time.Duration {
				c, tok := e.ctx[0], e.tok[0]
				t0 := time.Now()
				for i := 0; i < n; i++ {
					q.Enqueue(c, tok, int64(i))
					q.Dequeue(c, tok)
				}
				d := time.Since(t0)
				e.em.Clear(c)
				return d
			}
		}},
		// A steal: the caller's segment is empty, the next locale's is not.
		{name: "queue.steal_ns", iters: 50_000, timed: func(e *ladderEnv) func(n int) time.Duration {
			q := queue.NewSharded[int64](e.ctx[0], e.em)
			return func(n int) time.Duration {
				c, tok := e.ctx[0], e.tok[0]
				q.EnqueueBulkOn(c, 1, make([]int64, n))
				c.Flush()
				var got uint64
				t0 := time.Now()
				for i := 0; i < n; i++ {
					if _, _, ok := q.TryDequeueAny(c, tok); ok {
						got++
					}
				}
				d := time.Since(t0)
				sink.Add(got)
				e.em.Clear(c)
				return d
			}
		}},

		{name: "workload.draw_ns", iters: 2_000_000, loop: func(e *ladderEnv) func(g, n int) {
			st := workload.NewStream(42, phaseRun, 0, 0, 0, mapKeyspace, workload.KeyDist{Kind: workload.DistUniform},
				workload.Mix{Get: 90, Insert: 5, Remove: 5}, nil)
			return func(g, n int) {
				var sum uint64
				for i := 0; i < n; i++ {
					sum += uint64(st.NextOp()) + st.NextKey()
				}
				sink.Add(sum)
			}
		}},
		{name: "workload.hist_record_ns", iters: 10_000_000, loop: func(e *ladderEnv) func(g, n int) {
			var h bench.Histogram
			return func(g, n int) {
				for i := 0; i < n; i++ {
					h.Record(int64(100 + i&1023))
				}
				sink.Add(uint64(h.Count()))
			}
		}},

		// At the sampling rate the traced run uses, so the figure is the
		// amortised cost per instrumented call, drops on a full ring included.
		{name: "trace.begin_end_ns", iters: 1_000_000, loop: func(e *ladderEnv) func(g, n int) {
			rec := trace.NewRecorder(locales, trace.Config{SampleRate: spanSample})
			return func(g, n int) {
				for i := 0; i < n; i++ {
					rec.Begin(0, trace.KindDispatch, 1, 0, 1, 0, 0).End()
				}
			}
		}},
	}
}

// dcasLoop returns a body of always-succeeding DCASes on w from c.
func dcasLoop(c *pgas.Ctx, w *pgas.Word128) func(g, n int) {
	return func(g, n int) {
		lo, hi := w.Read(c)
		for i := 0; i < n; i++ {
			if w.DCAS(c, lo, hi, lo+1, hi+1) {
				lo, hi = lo+1, hi+1
			}
		}
	}
}

// deferObjects allocates n objects on locale 0 and defers their
// deletion under one pin, returning the time the deferrals took.
func (e *ladderEnv) deferObjects(n int) time.Duration {
	c, tok := e.ctx[0], e.tok[0]
	addrs := make([]gas.Addr, n)
	for i := range addrs {
		addrs[i] = c.Alloc(&struct{ v int }{i})
	}
	tok.Pin(c)
	t0 := time.Now()
	for _, a := range addrs {
		tok.DeferDelete(c, a)
	}
	d := time.Since(t0)
	tok.Unpin(c)
	return d
}

// rungStats is the median, minimum and maximum ns per call over the
// repeats of one rung.
type rungStats struct{ Median, Min, Max float64 }

func summarize(perCall []float64) rungStats {
	sort.Float64s(perCall)
	return rungStats{Median: median(perCall), Min: perCall[0], Max: perCall[len(perCall)-1]}
}

// runLadder measures every rung with its call count multiplied by
// scale (1 is the measured configuration; the package test passes 100
// calls' worth) and returns the stats by metric name.
func runLadder(procs int, scale float64) map[string]rungStats {
	e := newLadderEnv()
	defer e.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	out := make(map[string]rungStats)
	for _, r := range rungs() {
		n := max(64, int(float64(r.iters)*scale))
		runtime.GOMAXPROCS(1)
		runtime.GC()
		perCall := make([]float64, ladderRepeats)
		if r.timed != nil {
			body := r.timed(e)
			for i := range perCall {
				perCall[i] = float64(body(n)) / float64(n)
			}
			out[r.name] = summarize(perCall)
			continue
		}
		body := r.loop(e)
		for i := range perCall {
			t0 := time.Now()
			body(0, n)
			perCall[i] = float64(time.Since(t0)) / float64(n)
		}
		out[r.name] = summarize(perCall)
		if r.par == 0 {
			continue
		}
		goroutines := r.par
		if goroutines == parProcs {
			goroutines = min(procs, locales)
		}
		runtime.GOMAXPROCS(procs)
		runtime.GC()
		for i := range perCall {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					body(g, n)
				}()
			}
			t0 := time.Now()
			close(start)
			wg.Wait()
			perCall[i] = float64(time.Since(t0)) / float64(n)
		}
		out[r.name+"_par"] = summarize(perCall)
	}
	return out
}
