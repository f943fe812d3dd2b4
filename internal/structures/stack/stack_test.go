package stack

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

func TestStackLIFO(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		st := New[int](c, 0, em)
		tok := em.Register(c)
		for i := 0; i < 10; i++ {
			st.Push(c, tok, i)
		}
		for i := 9; i >= 0; i-- {
			v, ok := st.Pop(c, tok)
			if !ok || v != i {
				t.Fatalf("pop = (%d,%v), want %d", v, ok, i)
			}
		}
		if _, ok := st.Pop(c, tok); ok {
			t.Fatal("pop from empty succeeded")
		}
		if !st.isEmpty(c) {
			t.Fatal("isEmpty false after draining")
		}
	})
}

func TestStackPeekLen(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		st := New[string](c, 0, em)
		tok := em.Register(c)
		if _, ok := st.peek(c, tok); ok {
			t.Fatal("peek on empty")
		}
		st.Push(c, tok, "a")
		st.Push(c, tok, "b")
		if v, ok := st.peek(c, tok); !ok || v != "b" {
			t.Fatalf("peek = %q", v)
		}
		if n := st.Len(c, tok); n != 2 {
			t.Fatalf("len = %d", n)
		}
	})
}

func TestStackConcurrentMultiLocale(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 4, backend)
			em := epoch.NewEpochManager(s.Ctx(0))
			st := New[int](s.Ctx(0), 0, em)
			const perTask = 150
			const tasksPerLocale = 2
			var wg sync.WaitGroup
			var mu sync.Mutex
			popped := make(map[int]int)
			for l := 0; l < 4; l++ {
				for k := 0; k < tasksPerLocale; k++ {
					wg.Add(1)
					go func(l, k int) {
						defer wg.Done()
						c := s.Ctx(l)
						tok := em.Register(c)
						defer tok.Unregister(c)
						base := (l*tasksPerLocale + k) * perTask
						for i := 0; i < perTask; i++ {
							st.Push(c, tok, base+i)
							if v, ok := st.Pop(c, tok); ok {
								mu.Lock()
								popped[v]++
								mu.Unlock()
							}
							if i%32 == 0 {
								tok.TryReclaim(c)
							}
						}
					}(l, k)
				}
			}
			wg.Wait()
			c := s.Ctx(0)
			tok := em.Register(c)
			for {
				v, ok := st.Pop(c, tok)
				if !ok {
					break
				}
				mu.Lock()
				popped[v]++
				mu.Unlock()
			}
			tok.Unregister(c)
			total := 0
			for v, n := range popped {
				if n != 1 {
					t.Fatalf("value %d popped %d times", v, n)
				}
				total++
			}
			if total != 4*tasksPerLocale*perTask {
				t.Fatalf("popped %d values, want %d", total, 4*tasksPerLocale*perTask)
			}
			em.Clear(c)
			if uaf := s.HeapStats().UAFLoads; uaf != 0 {
				t.Fatalf("%d use-after-free loads", uaf)
			}
			stats := st.Stats()
			if stats.Pushes != stats.Pops {
				t.Fatalf("pushes %d != pops %d", stats.Pushes, stats.Pops)
			}
		})
	}
}

// Node reclamation end-to-end: after churn + Clear, the only live heap
// slots are the epoch managers' recycled limbo blocks — every stack
// node must be gone.
func TestStackNodesReclaimed(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		st := New[int](c, 0, em)
		tok := em.Register(c)
		baseline := s.HeapStats().Live
		for round := 0; round < 5; round++ {
			for i := 0; i < 50; i++ {
				st.Push(c, tok, i)
			}
			for {
				if _, ok := st.Pop(c, tok); !ok {
					break
				}
			}
		}
		tok.Unregister(c)
		em.Clear(c)
		// All 250 nodes freed; live heap returns to the baseline plus
		// recycled limbo-block pool slots (they are never freed).
		live := s.HeapStats().Live
		mgr := em.Stats(c)
		if mgr.Reclaimed != 250 {
			t.Fatalf("reclaimed %d nodes, want 250", mgr.Reclaimed)
		}
		if live < baseline {
			t.Fatalf("heap went below baseline: %d < %d", live, baseline)
		}
	})
}
