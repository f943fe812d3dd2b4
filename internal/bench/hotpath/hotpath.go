// Package hotpath holds the measurement-plane hot-path benchmark
// bodies shared by the repository-root testing.B entry points
// (BenchmarkDispatchHotPath, BenchmarkHeapLoadParallel,
// BenchmarkAMOActiveMessage, BenchmarkDelayPaced) and
// cmd/benchsmoke, which runs the same workloads through
// testing.Benchmark to produce the BENCH_5 perf-trajectory JSON. One
// definition serves both consumers, so the CI bench-smoke gate and
// the recorded trajectory point cannot drift apart.
//
// The package imports testing and therefore belongs only in test
// binaries and the benchsmoke tool — library code must not depend on
// it.
package hotpath

import (
	"sync"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/hashmap"
	"gopgas/internal/structures/rebalance"
	"gopgas/internal/trace"
)

// Locales is the fixed sweep point the hot-path benchmarks run at.
const Locales = 8

// dispatchHotPath is the shared body: a synchronous remote
// on-statement storm under the zero latency profile, with an optional
// trace recorder attached to the system.
func dispatchHotPath(b *testing.B, rec *trace.Recorder) {
	s := pgas.NewSystem(pgas.Config{Locales: Locales, Backend: comm.BackendNone, Seed: 42, Tracer: rec})
	b.Cleanup(s.Shutdown)
	var nextTask atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := int(nextTask.Add(1)-1) % Locales
		c := s.Ctx(src)
		dst := (src + 1) % Locales
		var sink int
		fn := func(tc *pgas.Ctx) { sink++ }
		for pb.Next() {
			c.On(dst, fn)
		}
		_ = sink
	})
}

// DispatchHotPath measures the harness cost of a synchronous remote
// on-statement under the zero latency profile: what remains is pure
// measurement-plane overhead — counter and matrix increments plus
// task-context management — which is exactly what caps the wall-clock
// throughput of loadgen/soak sweeps. Tasks are spread across the
// source locales, each firing at its neighbour, so the diagnostic
// increments come from every shard at once. No trace recorder is
// attached: this is the BENCH_5 trajectory point, and the tracing
// plane's contract is that an absent recorder costs one nil check.
func DispatchHotPath(b *testing.B) { dispatchHotPath(b, nil) }

// TraceSampleRate is the sampling rate the traced dispatch arm runs
// at — the same 1-in-64 default the workload spec applies.
const TraceSampleRate = 64

// DispatchHotPathTraced is the BENCH_8 current arm: the same storm
// with a recorder attached and sampling at 1/TraceSampleRate. Sampled-
// out ops pay one atomic tick; sampled-in ops write two ring events.
// The rings are never drained mid-run, so steady state includes the
// wrap-around drop path — by design: the recorder must never block or
// allocate on the hot path no matter how full it gets.
func DispatchHotPathTraced(b *testing.B) {
	dispatchHotPath(b, trace.NewRecorder(Locales, trace.Config{SampleRate: TraceSampleRate}))
}

// DispatchHotPathTracerIdle is the attached-but-disabled point: a
// recorder is wired into the system with recording switched off, so
// every dispatch pays the enabled-flag load and nothing else. This is
// the cost a soak server pays while nobody is tracing.
func DispatchHotPathTracerIdle(b *testing.B) {
	rec := trace.NewRecorder(Locales, trace.Config{SampleRate: TraceSampleRate})
	rec.SetEnabled(false)
	dispatchHotPath(b, rec)
}

// writeStormHotKey measures the per-write cost of the aggregated
// hashmap upsert path under a hot-key storm: every writer hammers a
// small set of keys all homed on locale 0 through UpsertAgg, flushing
// its buffer every flushEvery writes so the timed region is the
// steady-state enqueue→ship→owner-replay cycle, not one unbounded
// buffer fill. The combine flag is the only difference between the
// two BENCH_6 arms: with absorption on, each flush window collapses
// to at most hotKeys shipped ops (8× fewer deliveries and owner-side
// list CASes per window). Writers run on locales 1..Locales-1 only —
// locale 0's writes would execute inline, bypassing the aggregation
// path under measurement.
func writeStormHotKey(b *testing.B, combine bool) {
	const hotKeys = 8
	const flushEvery = 64
	s := pgas.NewSystem(pgas.Config{
		Locales: Locales,
		Backend: comm.BackendNone,
		Seed:    42,
		Agg:     comm.AggConfig{Combine: combine},
	})
	b.Cleanup(s.Shutdown)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := hashmap.New[int](c0, 8*Locales, em)
	hot := make([]uint64, 0, hotKeys)
	for k := uint64(0); len(hot) < hotKeys; k++ {
		if m.HomeOf(k) == 0 {
			hot = append(hot, k)
		}
	}
	var nextTask atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := 1 + int(nextTask.Add(1)-1)%(Locales-1)
		c := s.Ctx(src)
		i := 0
		for pb.Next() {
			m.UpsertAgg(c, hot[i%hotKeys], i)
			i++
			if i%flushEvery == 0 {
				c.Flush()
			}
		}
		c.Flush()
	})
}

// WriteStormHotKeyUncombined is the BENCH_6 baseline arm: every
// enqueued write ships and replays on the owner.
func WriteStormHotKeyUncombined(b *testing.B) { writeStormHotKey(b, false) }

// WriteStormHotKeyCombined is the BENCH_6 current arm: repeat writes
// to a hot key absorb in flight before the buffer ships.
func WriteStormHotKeyCombined(b *testing.B) { writeStormHotKey(b, true) }

// HeapLoadParallel measures locale-local heap reads from many tasks
// at once, spread over the locales: the gas.Heap fast path every
// Deref in every structure rides on. The working set is preallocated;
// the timed region is Load only.
func HeapLoadParallel(b *testing.B) {
	const perLocale = 1024 // power of two
	s := pgas.NewSystem(pgas.Config{Locales: Locales, Backend: comm.BackendNone, Seed: 42})
	b.Cleanup(s.Shutdown)
	addrs := make([][]gas.Addr, Locales)
	for l := 0; l < Locales; l++ {
		c := s.Ctx(l)
		addrs[l] = make([]gas.Addr, perLocale)
		for i := range addrs[l] {
			addrs[l][i] = c.Alloc(&struct{ v int }{v: i})
		}
	}
	var nextTask atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		l := int(nextTask.Add(1)-1) % Locales
		c := s.Ctx(l)
		mine := addrs[l]
		i := 0
		for pb.Next() {
			if _, ok := c.Load(mine[i&(perLocale-1)]); !ok {
				b.Error("load of live object failed")
				return
			}
			i++
		}
	})
}

// AMOActiveMessage measures the harness cost of a remote 64-bit atomic
// under BackendNone and the zero latency profile: an active message
// whose modelled cost is zero, so what remains is the transport itself
// — the round-trip and occupancy charges, one handler-slot acquire and
// release on the target locale, and the counter and matrix increments.
// Each task adds to a word homed on its neighbour, so every locale's
// handler slots are in use at once under RunParallel; at GOMAXPROCS=1
// the same body is the serial per-op cost.
func AMOActiveMessage(b *testing.B) {
	s := pgas.NewSystem(pgas.Config{Locales: Locales, Backend: comm.BackendNone, Seed: 42})
	b.Cleanup(s.Shutdown)
	var words [Locales]*pgas.Word64
	for l := range words {
		words[l] = pgas.NewWord64(s.Ctx(0), (l+1)%Locales, 0)
	}
	var nextTask atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := int(nextTask.Add(1)-1) % Locales
		c, w := s.Ctx(src), words[src]
		for pb.Next() {
			w.Add(c, 1)
		}
	})
}

// delayPacedNS is the charge the DelayPaced rungs make: the calibrated
// profile's AM round trip, the commonest delay of a scale-1 run.
const delayPacedNS = 2500

// delayPaced has `tasks` tasks, each on its own locale, make b.N remote
// GET charges of delayPacedNS side by side. ns/op is the wall time one
// task needed per charge, so a faithful delay plane reads delayPacedNS:
// anything above it is overshoot the tasks' accounts failed to carry.
func delayPaced(b *testing.B, tasks int) {
	s := pgas.NewSystem(pgas.Config{
		Locales: Locales,
		Backend: comm.BackendNone,
		Latency: comm.LatencyProfile{PutGetNS: delayPacedNS},
		Seed:    42,
	})
	b.Cleanup(s.Shutdown)
	var wg sync.WaitGroup
	b.ResetTimer()
	for t := 0; t < tasks; t++ {
		wg.Add(1)
		go func(c *pgas.Ctx) {
			defer wg.Done()
			dst := (c.Here() + 1) % Locales
			for i := 0; i < b.N; i++ {
				c.ChargeGet(dst)
			}
		}(s.Ctx(t))
	}
	wg.Wait()
}

// DelayPaced is the serial rung: one task charging alone.
func DelayPaced(b *testing.B) { delayPaced(b, 1) }

// DelayPacedParallel is the contended rung: four tasks spinning in
// their delays side by side, the shape of the benchmark's closed loop,
// where every yield hands the CPU to another spinner.
func DelayPacedParallel(b *testing.B) { delayPaced(b, 4) }

// movingHotStorm measures the per-write cost of the owner-table-routed
// hashmap upsert path under a moving hot set: every writer hammers one
// hot key homed on locale 0, and the hot set jumps to fresh buckets
// (still homed on 0) every windowEvery writes — the workload static
// placement cannot serve without funnelling every window into one
// locale. The rebalance flag is the only difference between the two
// BENCH_7 arms: with the controller stepping, each window's hot
// buckets migrate off the overloaded locale through the epoch-coherent
// handoff, so writes land owner-local for the rest of the window;
// without it, every write ships to locale 0 and replays there behind
// its combiner. Writers run on locales 1..Locales-1 only — locale 0's
// writes would execute inline and blur the arms.
//
// In-flight absorption stays OFF: with combining on, a hot-key window
// collapses to one shipped op, and the comparison would measure
// absorption (BENCH_6's subject), not routing locality. On the plain
// aggregated path each static-arm write pays enqueue + ship + replay
// at the owner, while a rebalanced-arm write — once the bucket has
// migrated to its writer — pays only the local apply.
//
// The first writer steps the controller inline every stepEvery of its
// own writes (the workload engine uses a wall-clock ticker instead,
// but a timed benchmark needs the control loop deterministic and
// unstarvable — at GOMAXPROCS=1 a ticker goroutine barely runs under
// RunParallel, and an unlucky schedule would measure an arbitrary
// remote/local mix). The stepping cost is part of the measured arm, as
// it should be.
func movingHotStorm(b *testing.B, rebalanced bool) {
	const windows = 8
	const windowEvery = 2048
	const flushEvery = 64
	const stepEvery = 512
	s := pgas.NewSystem(pgas.Config{
		Locales: Locales,
		Backend: comm.BackendNone,
		Seed:    42,
	})
	b.Cleanup(s.Shutdown)
	c0 := s.Ctx(0)
	em := epoch.NewEpochManager(c0)
	// windows*(Locales-1) distinct hot buckets must all be homed on
	// locale 0, and only 1/Locales of the buckets are: size accordingly.
	m := hashmap.New[int](c0, 64*Locales, em)
	hot := make([][]uint64, windows)
	used := make(map[int]bool)
	k := uint64(0)
	for w := range hot {
		for len(hot[w]) < Locales-1 {
			if e := m.BucketOf(k); m.HomeOf(k) == 0 && !used[e] {
				used[e] = true
				hot[w] = append(hot[w], k)
			}
			k++
		}
	}
	em.Protect(c0, func(tok *epoch.Token) {
		for _, ks := range hot {
			for _, hk := range ks {
				m.Insert(c0, tok, hk, int(hk))
			}
		}
	})

	var ctrl *rebalance.Controller
	if rebalanced {
		// MinEvents is the per-step noise floor: a rerouted straggler
		// books a couple of on-stmt events, and without the floor a
		// single stray event reads as an over-ratio source and migrates
		// the (quiet, all-local) hot buckets right back off the writers.
		ctrl = rebalance.NewController(c0, m, rebalance.Config{
			Ratio:     1.5,
			MinEvents: 4,
			MaxMoves:  Locales,
			Cooldown:  1,
		})
	}

	var nextTask atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextTask.Add(1) - 1)
		src := 1 + id%(Locales-1)
		c := s.Ctx(src)
		i := 0
		for pb.Next() {
			w := (i / windowEvery) % windows
			m.UpsertAgg(c, hot[w][src-1], i)
			i++
			if i%flushEvery == 0 {
				c.Flush()
			}
			// One stepper only: the controller is single-threaded.
			if ctrl != nil && id == 0 && i%stepEvery == 0 {
				ctrl.Step(c)
			}
		}
		c.Flush()
	})
	b.StopTimer()
	if ctrl != nil {
		// A stale routed write re-routed by a late migration may still
		// be an async task in flight; quiesce before teardown.
		c0.Flush()
	}
}

// MovingHotStormStatic is the BENCH_7 baseline arm: ownership never
// moves, so every window's writes ship to locale 0.
func MovingHotStormStatic(b *testing.B) { movingHotStorm(b, false) }

// MovingHotStormRebalanced is the BENCH_7 current arm: the controller
// migrates each window's hot buckets to their writers, turning the
// steady-state write local.
func MovingHotStormRebalanced(b *testing.B) { movingHotStorm(b, true) }
