package queue

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int, backend comm.Backend) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: backend})
	t.Cleanup(s.Shutdown)
	return s
}

func TestQueueFIFO(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 0, em)
		tok := em.Register(c)
		if !q.isEmpty(c, tok) {
			t.Fatal("fresh queue not empty")
		}
		for i := 0; i < 10; i++ {
			q.Enqueue(c, tok, i)
		}
		if q.Len(c, tok) != 10 {
			t.Fatalf("len = %d", q.Len(c, tok))
		}
		for i := 0; i < 10; i++ {
			v, ok := q.Dequeue(c, tok)
			if !ok || v != i {
				t.Fatalf("dequeue = (%d,%v), want %d", v, ok, i)
			}
		}
		if _, ok := q.Dequeue(c, tok); ok {
			t.Fatal("dequeue from empty succeeded")
		}
	})
}

func TestQueueInterleaved(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 0, em)
		tok := em.Register(c)
		next := 0
		expect := 0
		for round := 0; round < 20; round++ {
			for i := 0; i < 3; i++ {
				q.Enqueue(c, tok, next)
				next++
			}
			for i := 0; i < 2; i++ {
				v, ok := q.Dequeue(c, tok)
				if !ok || v != expect {
					t.Fatalf("dequeue = (%d,%v), want %d", v, ok, expect)
				}
				expect++
			}
		}
	})
}

// Per-producer FIFO order must hold under concurrency, and the value
// multiset must be preserved exactly.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 4, backend)
			em := epoch.NewEpochManager(s.Ctx(0))
			q := New[[2]int](s.Ctx(0), 0, em)
			const producers = 4
			const consumers = 4
			const perProducer = 150

			var wg sync.WaitGroup
			var mu sync.Mutex
			consumed := make([][]int, producers)

			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					c := s.Ctx(p % 4)
					tok := em.Register(c)
					defer tok.Unregister(c)
					for i := 0; i < perProducer; i++ {
						q.Enqueue(c, tok, [2]int{p, i})
					}
				}(p)
			}
			done := make(chan struct{})
			var cwg sync.WaitGroup
			for k := 0; k < consumers; k++ {
				cwg.Add(1)
				go func(k int) {
					defer cwg.Done()
					c := s.Ctx(k % 4)
					tok := em.Register(c)
					defer tok.Unregister(c)
					for {
						v, ok := q.Dequeue(c, tok)
						if !ok {
							select {
							case <-done:
								// Final drain: producers finished.
								if v2, ok2 := q.Dequeue(c, tok); ok2 {
									mu.Lock()
									consumed[v2[0]] = append(consumed[v2[0]], v2[1])
									mu.Unlock()
									continue
								}
								return
							default:
								continue
							}
						}
						mu.Lock()
						consumed[v[0]] = append(consumed[v[0]], v[1])
						n := len(consumed[v[0]])
						mu.Unlock()
						if n%64 == 0 {
							tok.TryReclaim(c)
						}
					}
				}(k)
			}
			wg.Wait()
			close(done)
			cwg.Wait()

			total := 0
			for p := 0; p < producers; p++ {
				seen := make(map[int]bool)
				for _, i := range consumed[p] {
					if seen[i] {
						t.Fatalf("producer %d item %d consumed twice", p, i)
					}
					seen[i] = true
				}
				total += len(consumed[p])
			}
			if total != producers*perProducer {
				t.Fatalf("consumed %d, want %d", total, producers*perProducer)
			}
			em.Clear(s.Ctx(0))
			if uaf := s.HeapStats().UAFLoads; uaf != 0 {
				t.Fatalf("%d use-after-free loads", uaf)
			}
		})
	}
}

// Single-consumer global FIFO order.
func TestQueueSingleConsumerOrder(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	em := epoch.NewEpochManager(s.Ctx(0))
	q := New[int](s.Ctx(0), 0, em)
	const n = 300

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.Ctx(1)
		tok := em.Register(c)
		defer tok.Unregister(c)
		for i := 0; i < n; i++ {
			q.Enqueue(c, tok, i)
		}
	}()

	c := s.Ctx(0)
	tok := em.Register(c)
	last := -1
	got := 0
	for got < n {
		v, ok := q.Dequeue(c, tok)
		if !ok {
			continue
		}
		if v <= last {
			t.Fatalf("out of order: %d after %d", v, last)
		}
		last = v
		got++
	}
	tok.Unregister(c)
	wg.Wait()
}

func TestQueueNodeReclamation(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 0, em)
		tok := em.Register(c)
		const n = 200
		for i := 0; i < n; i++ {
			q.Enqueue(c, tok, i)
			q.Dequeue(c, tok)
		}
		tok.Unregister(c)
		em.Clear(c)
		// n dummies retired (one per dequeue); all must be reclaimed.
		if got := em.Stats(c).Reclaimed; got != n {
			t.Fatalf("reclaimed %d, want %d", got, n)
		}
	})
}

// A queue cell is one host object, and retiring one costs nothing once
// the limbo list's node pool is warm: an enqueue allocates the cell and
// nothing else; a dequeue — its DeferDelete and the limbo push under it
// included — allocates nothing (the structure-level gate beside pgas's
// TestAMAtomicsZeroAlloc).
func TestQueueCellIsOneAllocation(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		q := New[int](c, 0, em)
		tok := em.Register(c)
		const n = 200
		// Warm the limbo pool with the blocks n+1 deferrals fill (one per
		// AllocsPerRun call, warm-up included): Clear hands the whole chain
		// back to the pool without advancing the epoch.
		for i := 0; i <= n; i++ {
			q.Enqueue(c, tok, i)
		}
		for i := 0; i <= n; i++ {
			q.Dequeue(c, tok)
		}
		em.Clear(c)
		if avg := testing.AllocsPerRun(n, func() { q.Enqueue(c, tok, 1) }); avg > 1 {
			t.Errorf("Enqueue allocates %.2f objects per cell, want at most 1", avg)
		}
		if avg := testing.AllocsPerRun(n, func() { q.Dequeue(c, tok) }); avg != 0 {
			t.Errorf("Dequeue allocates %.2f/op with a warm limbo pool", avg)
		}
		if st := em.Stats(c); st.Deferred != 2*(n+1) {
			t.Errorf("deferred %d cells, want %d", st.Deferred, 2*(n+1))
		}
	})
}
