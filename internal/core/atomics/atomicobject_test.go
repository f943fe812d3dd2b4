package atomics

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int, backend comm.Backend) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: backend})
	t.Cleanup(s.Shutdown)
	return s
}

type node struct {
	v    int
	next gas.Addr
}

func TestAtomicObjectModes(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		auto := New(c, 0, Options{})
		if auto.Mode() != ModeCompressed {
			t.Errorf("auto resolved to %v on a small system", auto.Mode())
		}
	})
}

func TestAtomicObjectBasicOps(t *testing.T) {
	configs := []struct {
		name string
		opt  Options
		wide bool
	}{
		{"compressed", Options{Mode: ModeCompressed}, false},
		{"compressed+aba", Options{Mode: ModeCompressed, ABA: true}, false},
		{"wide", Options{Mode: ModeWide}, true},
	}
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		for _, cfg := range configs {
			t.Run(backend.String()+"/"+cfg.name, func(t *testing.T) {
				s := newTestSystem(t, 3, backend)
				nodes := pgas.NewSlab[node](s)
				s.Run(func(c *pgas.Ctx) {
					a := New(c, 1, cfg.opt)
					if got := a.Read(c); !got.IsNil() {
						t.Fatalf("fresh object reads %v", got)
					}
					n1 := nodes.AllocOn(c, 2, &node{v: 1})
					n2 := nodes.AllocOn(c, c.Here(), &node{v: 2})
					a.Write(c, n1)
					if got := a.Read(c); got != n1 {
						t.Fatalf("Read = %v want %v", got, n1)
					}
					if old := a.Exchange(c, n2); old != n1 {
						t.Fatalf("Exchange = %v", old)
					}
					if !a.CompareAndSwap(c, n2, n1) {
						t.Fatal("matching CAS failed")
					}
					if a.CompareAndSwap(c, n2, n2) {
						t.Fatal("stale CAS succeeded")
					}
					if got := a.Read(c); got != n1 {
						t.Fatalf("final = %v", got)
					}
					// Locality survives the representation round trip.
					if got := a.Read(c).Locale(); got != 2 {
						t.Fatalf("locale lost: %d", got)
					}
					// Back to nil.
					a.Write(c, gas.AddrNil)
					if got := a.Read(c); !got.IsNil() {
						t.Fatalf("nil write read back %v", got)
					}
				})
			})
		}
	}
}

func TestAtomicObjectABAOps(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	nodes := pgas.NewSlab[node](s)
	s.Run(func(c *pgas.Ctx) {
		a := New(c, 1, Options{ABA: true})
		n1 := nodes.AllocOn(c, c.Here(), &node{v: 1})
		n2 := nodes.AllocOn(c, c.Here(), &node{v: 2})

		r0 := a.ReadABA(c)
		if !r0.IsNil() || r0.Count() != 0 {
			t.Fatalf("fresh = %v", r0)
		}
		if !a.CompareAndSwapABA(c, r0, n1) {
			t.Fatal("CASABA from nil failed")
		}
		r1 := a.ReadABA(c)
		if r1.Object() != n1 || r1.Count() != 1 {
			t.Fatalf("after CASABA: %v", r1)
		}
		// Stale stamp must fail even with a matching pointer.
		if a.CompareAndSwapABA(c, r0, n2) {
			t.Fatal("CASABA with stale stamp succeeded")
		}
		a.WriteABA(c, n2)
		r2 := a.ReadABA(c)
		if r2.Object() != n2 || r2.Count() != 2 {
			t.Fatalf("after WriteABA: %v", r2)
		}
		old := a.ExchangeABA(c, n1)
		if old.Object() != n2 || old.Count() != 2 {
			t.Fatalf("ExchangeABA returned %v", old)
		}
		if r3 := a.ReadABA(c); r3.Object() != n1 || r3.Count() != 3 {
			t.Fatalf("after ExchangeABA: %v", r3)
		}
	})
}

// TestABAProblemDemonstration reproduces the paper's Section II.A
// scenario: τ1 reads head = α; τ2 pops and frees α; τ3 allocates a new
// node that reuses address α and pushes it. τ1's plain CAS then
// incorrectly succeeds, while the ABA-protected CAS correctly fails.
func TestABAProblemDemonstration(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	nodes := pgas.NewSlab[node](s)
	s.Run(func(c *pgas.Ctx) {
		// Plain CAS: vulnerable.
		{
			head := New(c, 0, Options{})
			alpha := nodes.AllocOn(c, c.Here(), &node{v: 1})
			head.Write(c, alpha)

			tau1Saw := head.Read(c) // τ1 preempted here

			// τ2: pop and free α.
			head.Write(c, gas.AddrNil)
			c.Free(alpha)
			// τ3: allocate (LIFO reuse gives the same address) and push.
			alphaReborn := nodes.AllocOn(c, c.Here(), &node{v: 99})
			if alphaReborn != alpha {
				t.Fatalf("allocator did not reuse the slot (%v vs %v)", alpha, alphaReborn)
			}
			head.Write(c, alphaReborn)

			// τ1 resumes: the CAS succeeds despite the world having
			// changed underneath it — the ABA problem.
			if !head.CompareAndSwap(c, tau1Saw, gas.AddrNil) {
				t.Fatal("expected the unprotected CAS to (wrongly) succeed")
			}
		}
		// ABA-protected CAS: safe.
		{
			head := New(c, 0, Options{ABA: true})
			alpha := nodes.AllocOn(c, c.Here(), &node{v: 1})
			head.WriteABA(c, alpha)

			tau1Saw := head.ReadABA(c) // τ1 preempted here

			head.WriteABA(c, gas.AddrNil)
			c.Free(alpha)
			alphaReborn := nodes.AllocOn(c, c.Here(), &node{v: 99})
			if alphaReborn != alpha {
				t.Fatalf("allocator did not reuse the slot")
			}
			head.WriteABA(c, alphaReborn)

			if head.CompareAndSwapABA(c, tau1Saw, gas.AddrNil) {
				t.Fatal("ABA-protected CAS succeeded on a recycled address")
			}
		}
	})
}

func TestAtomicObjectRouting(t *testing.T) {
	// Compressed, no ABA, ugni → NIC atomics; none+remote → AM.
	s := newTestSystem(t, 2, comm.BackendUGNI)
	s.Run(func(c *pgas.Ctx) {
		a := New(c, 1, Options{})
		before := s.Counters().Snapshot()
		a.Read(c)
		a.Write(c, gas.AddrNil)
		a.CompareAndSwap(c, gas.AddrNil, gas.AddrNil)
		d := s.Counters().Snapshot().Sub(before)
		if d.NICAMOs != 3 || d.AMAMOs != 0 || d.DCASRemote != 0 {
			t.Fatalf("ugni compressed routing: %v", d)
		}
	})

	s2 := newTestSystem(t, 2, comm.BackendNone)
	s2.Run(func(c *pgas.Ctx) {
		a := New(c, 1, Options{})
		before := s2.Counters().Snapshot()
		a.Read(c)
		d := s2.Counters().Snapshot().Sub(before)
		if d.AMAMOs != 1 || d.NICAMOs != 0 {
			t.Fatalf("none remote routing: %v", d)
		}
	})

	// ABA full-width ops are DCAS-class (remote execution) even on ugni.
	s3 := newTestSystem(t, 2, comm.BackendUGNI)
	s3.Run(func(c *pgas.Ctx) {
		a := New(c, 1, Options{ABA: true})
		before := s3.Counters().Snapshot()
		r := a.ReadABA(c)
		a.CompareAndSwapABA(c, r, gas.AddrNil)
		d := s3.Counters().Snapshot().Sub(before)
		if d.DCASRemote != 2 || d.NICAMOs != 0 {
			t.Fatalf("ABA routing must be remote execution: %v", d)
		}
		// ...but the normal (pointer-half) ops on the same object keep
		// their NIC fast path — the paper's mixed-mode design.
		before = s3.Counters().Snapshot()
		a.Read(c)
		a.Write(c, gas.AddrNil)
		d = s3.Counters().Snapshot().Sub(before)
		if d.NICAMOs != 2 || d.DCASRemote != 0 {
			t.Fatalf("mixed-mode normal ops lost the NIC path: %v", d)
		}
	})

	// Wide mode: every op is DCAS-class on both backends.
	s4 := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendUGNI})
	defer s4.Shutdown()
	s4.Run(func(c *pgas.Ctx) {
		a := New(c, 1, Options{Mode: ModeWide})
		before := s4.Counters().Snapshot()
		a.Read(c)
		a.CompareAndSwap(c, gas.AddrNil, gas.AddrNil)
		d := s4.Counters().Snapshot().Sub(before)
		if d.DCASRemote != 2 || d.NICAMOs != 0 {
			t.Fatalf("wide-mode routing: %v", d)
		}
	})
}

func TestWideModePanicsOnABA(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 1})
	defer s.Shutdown()
	s.Run(func(c *pgas.Ctx) {
		defer func() {
			if recover() == nil {
				t.Fatal("wide + ABA must panic (no room for the stamp)")
			}
		}()
		New(c, 0, Options{Mode: ModeWide, ABA: true})
	})
}

func TestABAOpsWithoutSupportPanic(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		a := New(c, 0, Options{})
		defer func() {
			if recover() == nil {
				t.Fatal("ReadABA without ABA support must panic")
			}
		}()
		a.ReadABA(c)
	})
}

// Concurrent Treiber-style push/pop through AtomicObject across
// locales: no element may be lost or duplicated.
func TestAtomicObjectConcurrentStack(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 4, backend)
			nodes := pgas.NewSlab[node](s)
			head := New(s.Ctx(0), 0, Options{ABA: true})
			const perLocale = 100
			var wg sync.WaitGroup
			for l := 0; l < 4; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					c := s.Ctx(l)
					for i := 0; i < perLocale; i++ {
						n := nodes.AllocOn(c, c.Here(), &node{v: l*perLocale + i})
						for {
							old := head.ReadABA(c)
							nodes.MustLoad(c, n).next = old.Object()
							if head.CompareAndSwapABA(c, old, n) {
								break
							}
						}
					}
				}(l)
			}
			wg.Wait()

			// Drain and verify the multiset.
			c := s.Ctx(0)
			seen := make(map[int]bool)
			for {
				old := head.ReadABA(c)
				if old.IsNil() {
					break
				}
				n := nodes.MustLoad(c, old.Object())
				if !head.CompareAndSwapABA(c, old, n.next) {
					continue
				}
				if seen[n.v] {
					t.Fatalf("duplicate element %d", n.v)
				}
				seen[n.v] = true
			}
			if len(seen) != 4*perLocale {
				t.Fatalf("drained %d elements, want %d", len(seen), 4*perLocale)
			}
		})
	}
}
