package pgas

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gopgas/internal/comm"
)

// Regression guards for the goroutine-free sync dispatch and the
// inline active-message handlers: storms of concurrent AsyncOn
// launches, nested async spawns, and AM atomics must quiesce cleanly,
// count exactly and respect the per-locale handler-slot bound. These
// tests earn their keep under -race (CI runs the suite with it).

// TestAsyncOnStormQuiesce hammers AsyncOn from many initiator tasks at
// once — each async body performing a remote AM atomic and a fraction
// of them spawning a nested AsyncOn — then quiesces and checks that
// every launch ran (the shared word's value is exact) and nothing is
// still in flight.
func TestAsyncOnStormQuiesce(t *testing.T) {
	const locales = 4
	const initiators = 8
	const perInitiator = 200
	s := NewSystem(Config{Locales: locales, Backend: comm.BackendNone})
	defer s.Shutdown()

	root := s.Ctx(0)
	total := NewWord64(root, 0, 0)

	var wg sync.WaitGroup
	for g := 0; g < initiators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % locales)
			for i := 0; i < perInitiator; i++ {
				dst := (g + i) % locales
				c.AsyncOn(dst, func(tc *Ctx) {
					total.Add(tc, 1)
					if tc.Here() != dst {
						t.Errorf("async body pinned to %d, want %d", tc.Here(), dst)
					}
					// Every fourth op spawns a nested async hop; Quiesce
					// must wait for these transitive tasks too.
					if i%4 == 0 {
						tc.AsyncOn((dst+1)%locales, func(nc *Ctx) {
							total.Add(nc, 1)
						})
					}
				})
			}
		}(g)
	}
	wg.Wait()
	s.Quiesce()
	if pending := s.AsyncPending(); pending != 0 {
		t.Fatalf("AsyncPending = %d after Quiesce", pending)
	}
	want := uint64(initiators * perInitiator)
	want += uint64(initiators * ((perInitiator + 3) / 4)) // nested hops
	if got := total.Read(root); got != want {
		t.Fatalf("storm lost updates: total = %d, want %d", got, want)
	}
}

// TestAMSlotBoundUnderStorm drives a storm of remote AM atomics
// (Word64.Add on words homed elsewhere, under none) from concurrent
// tasks on every locale, while a monitor samples how many handler slots
// each target holds. The handler-slot bound is the modelled
// serialisation of the "none" backend: no locale may ever run more than
// ProgressWorkers handlers concurrently, every call must run its
// handler exactly once (exact sums), and each call counts one AMAMO.
// The handler occupancy delay keeps slots held long enough for callers
// to pile up behind them.
func TestAMSlotBoundUnderStorm(t *testing.T) {
	const locales = 4
	const tasks = 16
	const perTask = 200
	for _, slots := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			s := NewSystem(Config{
				Locales:         locales,
				Backend:         comm.BackendNone,
				ProgressWorkers: slots,
				Latency:         comm.LatencyProfile{AMHandlerNS: 1000},
			})
			defer s.Shutdown()
			var words [locales]*Word64
			for l := range words {
				words[l] = NewWord64(s.Ctx(l), l, 0)
			}

			var highWater [locales]int64
			done := make(chan struct{})
			monitored := make(chan struct{})
			go func() {
				defer close(monitored)
				for {
					for l := range highWater {
						if n := int64(s.locales[l].amBusy.Load()); n > highWater[l] {
							highWater[l] = n
						}
					}
					select {
					case <-done:
						return
					default:
						runtime.Gosched() // let a bound violation show
					}
				}
			}()
			var wg sync.WaitGroup
			for g := 0; g < tasks; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := s.Ctx(g % locales)
					for i := 0; i < perTask; i++ {
						// Always a remote home, so the op must ride amCall.
						dst := (c.Here() + 1 + i%(locales-1)) % locales
						words[dst].Add(c, 1)
					}
				}(g)
			}
			wg.Wait()
			close(done)
			<-monitored

			var sum int64
			for l := 0; l < locales; l++ {
				if h := highWater[l]; h > int64(slots) {
					t.Errorf("locale %d ran %d handlers at once, bound is %d", l, h, slots)
				}
				if busy := s.locales[l].amBusy.Load(); busy != 0 {
					t.Errorf("locale %d still holds %d handler slots", l, busy)
				}
				sum += int64(words[l].v.Load())
			}
			if want := int64(tasks * perTask); sum != want {
				t.Fatalf("AM storm ran %d handlers, want %d", sum, want)
			}
			if got := s.Counters().Snapshot().AMAMOs; got != tasks*perTask {
				t.Fatalf("AMAMOs = %d, want %d", got, tasks*perTask)
			}
		})
	}
}

// TestZeroOccupancyTakesNoSlot holds locale 1's only handler slot
// while a task on locale 0 adds to a word homed there. Under the zero
// profile the handler has no occupancy to model, so the Add takes no
// slot and completes; with AMHandlerNS > 0 it must wait for the slot.
func TestZeroOccupancyTakesNoSlot(t *testing.T) {
	start := func(t *testing.T, lat comm.LatencyProfile) (*System, *Word64, chan struct{}) {
		s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, ProgressWorkers: 1, Latency: lat})
		t.Cleanup(s.Shutdown)
		c := s.Ctx(0)
		w := NewWord64(c, 1, 0)
		s.locales[1].acquireAMSlot(1)
		done := make(chan struct{})
		go func() {
			w.Add(c, 1)
			close(done)
		}()
		return s, w, done
	}
	completes := func(t *testing.T, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the Add did not complete")
		}
	}

	t.Run("zero-profile", func(t *testing.T) {
		s, w, done := start(t, comm.Zero())
		// Runs before Shutdown: a parked Add finishes once the slot is back.
		t.Cleanup(func() {
			s.locales[1].releaseAMSlot()
			<-done
		})
		completes(t, done)
		if got := w.v.Load(); got != 1 {
			t.Fatalf("word = %d, want 1", got)
		}
	})

	t.Run("handler-occupancy", func(t *testing.T) {
		s, w, done := start(t, comm.LatencyProfile{AMHandlerNS: 1})
		l := s.locales[1]
		for deadline := time.Now().Add(5 * time.Second); l.amWaiting.Load() != 1; runtime.Gosched() {
			if time.Now().After(deadline) {
				l.releaseAMSlot()
				<-done
				t.Fatalf("amWaiting = %d, want the Add parked on the held slot", l.amWaiting.Load())
			}
		}
		select {
		case <-done:
			t.Fatal("the Add completed while the only handler slot was held")
		default:
		}
		l.releaseAMSlot()
		completes(t, done)
		if got := w.Read(s.Ctx(0)); got != 1 {
			t.Fatalf("word = %d, want 1", got)
		}
		if busy := l.amBusy.Load(); busy != 0 {
			t.Fatalf("locale 1 still holds %d handler slots", busy)
		}
	})
}

// TestSyncOnPooledCtxStreams checks the determinism contract the Ctx
// pool must preserve: a pooled on-statement context draws a fresh task
// id and RNG seed exactly as a spawned one would, so (a) the callee's
// random stream differs from the caller's in-flight stream, and (b)
// two systems built with the same seed replay identical streams even
// though one has a warm pool and the other starts cold.
func TestSyncOnPooledCtxStreams(t *testing.T) {
	run := func() [][]int {
		s := NewSystem(Config{Locales: 2, Seed: 99})
		defer s.Shutdown()
		var draws [][]int
		c := s.Ctx(0)
		for i := 0; i < 5; i++ {
			var inner []int
			c.On(1, func(tc *Ctx) {
				if tc.Here() != 1 {
					t.Fatalf("callee Here() = %d", tc.Here())
				}
				for k := 0; k < 3; k++ {
					inner = append(inner, tc.RandIntn(1000))
				}
				// Nested sync hop back to the caller's locale: borrows a
				// second pooled Ctx while the first is still in use.
				tc.On(0, func(nc *Ctx) {
					inner = append(inner, nc.RandIntn(1000))
				})
			})
			inner = append(inner, c.RandIntn(1000))
			draws = append(draws, inner)
		}
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("draw shape mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("row %d shape mismatch", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("pooled Ctx perturbed the RNG streams: run1[%d][%d]=%d run2=%d",
					i, j, a[i][j], b[i][j])
			}
		}
	}
}
