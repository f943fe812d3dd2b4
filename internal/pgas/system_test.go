package pgas

import (
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
)

// newTestSystem boots a zero-latency system that is shut down with the
// test. Counters still count, so tests can assert communication volume.
func newTestSystem(t testing.TB, locales int, backend comm.Backend) *System {
	t.Helper()
	s := NewSystem(Config{Locales: locales, Backend: backend})
	t.Cleanup(s.Shutdown)
	return s
}

func TestSystemBasics(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	if s.NumLocales() != 4 {
		t.Fatalf("NumLocales = %d", s.NumLocales())
	}
	s.Run(func(c *Ctx) {
		if c.Here() != 0 {
			t.Errorf("main task runs on locale %d, want 0", c.Here())
		}
		if c.NumLocales() != 4 {
			t.Errorf("ctx locales = %d", c.NumLocales())
		}
	})
}

func TestSystemInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 locales")
		}
	}()
	NewSystem(Config{Locales: 0})
}

func TestOnSwitchesLocale(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	s.Run(func(c *Ctx) {
		var visited int
		c.On(2, func(rc *Ctx) {
			visited = rc.Here()
			if rc.NumLocales() != 3 {
				t.Errorf("remote ctx locales = %d", rc.NumLocales())
			}
		})
		if visited != 2 {
			t.Errorf("on-statement ran on locale %d, want 2", visited)
		}
	})
}

func TestOnHereIsFree(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		before := s.Counters().Snapshot()
		c.On(0, func(rc *Ctx) {})
		d := s.Counters().Snapshot().Sub(before)
		if d.OnStmts != 0 {
			t.Errorf("on-here counted %d on-statements", d.OnStmts)
		}
		c.On(1, func(rc *Ctx) {})
		d = s.Counters().Snapshot().Sub(before)
		if d.OnStmts != 1 {
			t.Errorf("remote on counted %d on-statements, want 1", d.OnStmts)
		}
	})
}

func TestCoforallLocalesVisitsAll(t *testing.T) {
	s := newTestSystem(t, 8, comm.BackendNone)
	s.Run(func(c *Ctx) {
		var mask atomic.Uint64
		c.CoforallLocales(func(lc *Ctx) {
			mask.Or(1 << lc.Here())
		})
		if mask.Load() != (1<<8)-1 {
			t.Errorf("visited mask = %b", mask.Load())
		}
	})
}

func TestCoforallSpawnsNTasks(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *Ctx) {
		var n atomic.Int64
		var tids atomic.Uint64
		c.Coforall(16, func(tc *Ctx, tid int) {
			n.Add(1)
			tids.Or(1 << tid)
			if tc.Here() != 0 {
				t.Errorf("task on locale %d", tc.Here())
			}
		})
		if n.Load() != 16 || tids.Load() != (1<<16)-1 {
			t.Errorf("n=%d tids=%b", n.Load(), tids.Load())
		}
	})
}

func TestForallCyclicDistribution(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *Ctx) {
		const n = 103
		seen := make([]atomic.Int32, n)
		ForallCyclic(c, n, 3,
			func(tc *Ctx) int { return tc.Here() },
			func(tc *Ctx, home int, i int) {
				seen[i].Add(1)
				// Cyclic distribution: iteration i runs on locale i % L.
				if want := i % 4; tc.Here() != want {
					t.Errorf("iter %d on locale %d, want %d", i, tc.Here(), want)
				}
				if home != tc.Here() {
					t.Errorf("task-private state crossed locales")
				}
			},
			nil)
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Errorf("iteration %d ran %d times", i, got)
			}
		}
	})
}

func TestForallCyclicTaskPrivateLifecycle(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		var created, destroyed atomic.Int64
		ForallCyclic(c, 40, 2,
			func(tc *Ctx) *int { created.Add(1); v := 0; return &v },
			func(tc *Ctx, p *int, i int) { *p++ },
			func(tc *Ctx, p *int) { destroyed.Add(1) },
		)
		if created.Load() != destroyed.Load() {
			t.Errorf("created %d != destroyed %d", created.Load(), destroyed.Load())
		}
		if created.Load() == 0 {
			t.Error("no task-private values created")
		}
	})
}

func TestForallCyclicFewerItersThanLocales(t *testing.T) {
	s := newTestSystem(t, 8, comm.BackendNone)
	s.Run(func(c *Ctx) {
		var n atomic.Int64
		ForallCyclic(c, 3, 4, nil, func(tc *Ctx, _ struct{}, i int) {
			n.Add(1)
		}, nil)
		if n.Load() != 3 {
			t.Errorf("ran %d iterations, want 3", n.Load())
		}
	})
}

func TestForallLocal(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		c.On(1, func(rc *Ctx) {
			sum := atomic.Int64{}
			ForallLocal(rc, 100, 4, nil, func(tc *Ctx, _ struct{}, i int) {
				if tc.Here() != 1 {
					t.Errorf("local forall escaped to locale %d", tc.Here())
				}
				sum.Add(int64(i))
			}, nil)
			if sum.Load() != 99*100/2 {
				t.Errorf("sum = %d", sum.Load())
			}
		})
	})
}

func TestRandDeterminism(t *testing.T) {
	s1 := NewSystem(Config{Locales: 2, Seed: 7})
	defer s1.Shutdown()
	s2 := NewSystem(Config{Locales: 2, Seed: 7})
	defer s2.Shutdown()
	c1, c2 := s1.Ctx(1), s2.Ctx(1)
	for i := 0; i < 100; i++ {
		if c1.RandUint64() != c2.RandUint64() {
			t.Fatal("same (seed, locale, task) must give identical streams")
		}
	}
	// Different seed → different stream (overwhelmingly likely).
	s3 := NewSystem(Config{Locales: 2, Seed: 8})
	defer s3.Shutdown()
	c3 := s3.Ctx(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c3.RandUint64() == s1.Ctx(1).RandUint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams with different seeds collide %d/100 times", same)
	}
}

func TestRandIntnBounds(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	for i := 0; i < 1000; i++ {
		v := c.RandIntn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("RandIntn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RandIntn(0) must panic")
		}
	}()
	c.RandIntn(0)
}

func TestShutdownIdempotent(t *testing.T) {
	s := NewSystem(Config{Locales: 2})
	s.Shutdown()
	s.Shutdown() // must not panic
}

// Shutdown ends a System's communication plane for good: both the
// async launch path and the inline active-message path refuse with an
// explicit check once it has returned.
func TestCommunicationAfterShutdownPanics(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone})
	c := s.Ctx(0)
	w64 := NewWord64(c, 1, 0)
	w128 := NewWord128(c, 1, 0, 0)
	s.Shutdown()
	cases := []struct {
		name, want string
		fn         func()
	}{
		{"AsyncOn", "pgas: AsyncOn after Shutdown", func() { c.AsyncOn(1, func(*Ctx) {}) }},
		{"AM atomic", "pgas: active message after Shutdown", func() { w64.Add(c, 1) }},
		{"remote DCAS", "pgas: active message after Shutdown", func() { w128.DCAS(c, 0, 0, 1, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Fatalf("recovered %v, want panic %q", got, tc.want)
				}
			}()
			tc.fn()
		})
	}
}

// AM handler occupancy follows the live fault plan: a locale slowed
// after boot (SetScales, the POST /api/fault path) services its
// inbound active messages at the scaled cost from the next call on.
func TestAMHandlerOccupancyFollowsLivePerturbation(t *testing.T) {
	const handlerNS = 100_000 // above comm.Delay's spin/sleep threshold
	const scale = 4
	s := NewSystem(Config{
		Locales: 2,
		Backend: comm.BackendNone,
		Latency: comm.LatencyProfile{AMHandlerNS: handlerNS},
	})
	defer s.Shutdown()
	c := s.Ctx(0)
	w := NewWord64(c, 1, 0)
	s.SetScales([]float64{1, scale})
	start := time.Now()
	w.Add(c, 1)
	if got, want := time.Since(start), time.Duration(scale*handlerNS); got < want {
		t.Fatalf("AM atomic toward the slowed locale took %v, want at least the scaled occupancy %v", got, want)
	}
}
