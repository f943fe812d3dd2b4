package hazard

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func newTestSystem(t testing.TB, locales int) *pgas.System {
	t.Helper()
	s := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone})
	t.Cleanup(s.Shutdown)
	return s
}

type payload struct{ v int }

func TestProtectValidates(t *testing.T) {
	s := newTestSystem(t, 2)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		d := NewDomain(c, 8)
		cell := atomics.New(c, 1, atomics.Options{})
		a := payloads.AllocOn(c, c.Here(), &payload{v: 1})
		cell.Write(c, a)
		hp := d.Acquire(c)
		got := hp.Protect(c, cell)
		if got != a {
			t.Fatalf("protected %v, want %v", got, a)
		}
		if gas.Addr(hp.val.Load()) != a {
			t.Fatal("hazard not published")
		}
		d.Release(c, hp)
		if hp.val.Load() != 0 {
			t.Fatal("release left the hazard set")
		}
	})
}

func TestScanSparesProtected(t *testing.T) {
	s := newTestSystem(t, 2)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		d := NewDomain(c, 1000) // manual scans only
		protected := payloads.AllocOn(c, c.Here(), &payload{v: 1})
		doomed := payloads.AllocOn(c, c.Here(), &payload{v: 2})

		hp := d.Acquire(c)
		hp.Set(protected)

		d.Retire(c, protected)
		d.Retire(c, doomed)
		d.Scan(c)

		if _, ok := payloads.Load(c, protected); !ok {
			t.Fatal("protected object was freed")
		}
		if _, ok := payloads.Load(c, doomed); ok {
			t.Fatal("unprotected object survived the scan")
		}

		// Clearing the hazard lets the next scan free it.
		hp.Clear()
		d.Scan(c)
		if _, ok := payloads.Load(c, protected); ok {
			t.Fatal("object survived after its hazard cleared")
		}
		st := d.Stats(c)
		if st.Freed != 2 || st.Retired != 2 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestScanHonoursRemoteHazards(t *testing.T) {
	s := newTestSystem(t, 3)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		d := NewDomain(c, 1000)
		obj := payloads.AllocOn(c, c.Here(), &payload{v: 7})
		// A task on locale 2 protects the object...
		var remote *Slot
		c.On(2, func(rc *pgas.Ctx) {
			remote = d.Acquire(rc)
			remote.Set(obj)
		})
		// ...and a retire+scan on locale 0 must spare it.
		d.Retire(c, obj)
		d.Scan(c)
		if _, ok := payloads.Load(c, obj); !ok {
			t.Fatal("scan ignored a remote locale's hazard")
		}
		c.On(2, func(rc *pgas.Ctx) {
			remote.Clear()
			d.Release(rc, remote)
		})
		d.Scan(c)
		if _, ok := payloads.Load(c, obj); ok {
			t.Fatal("object survived after remote hazard cleared")
		}
	})
}

func TestThresholdTriggersScan(t *testing.T) {
	s := newTestSystem(t, 1)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		d := NewDomain(c, 4)
		for i := 0; i < 4; i++ {
			d.Retire(c, payloads.AllocOn(c, c.Here(), &payload{v: i}))
		}
		st := d.Stats(c)
		if st.Scans != 1 || st.Freed != 4 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestSlotRecycling(t *testing.T) {
	s := newTestSystem(t, 1)
	s.Run(func(c *pgas.Ctx) {
		d := NewDomain(c, 8)
		s1 := d.Acquire(c)
		d.Release(c, s1)
		s2 := d.Acquire(c)
		if s1 != s2 {
			t.Fatal("slot not recycled")
		}
	})
}

// The classic HP guarantee: a reader that protected an object can
// dereference it even while writers retire and scans run concurrently.
func TestConcurrentProtectRetire(t *testing.T) {
	s := newTestSystem(t, 2)
	payloads := pgas.NewSlab[payload](s)
	c0 := s.Ctx(0)
	d := NewDomain(c0, 16)
	cell := atomics.New(c0, 0, atomics.Options{})
	cell.Write(c0, payloads.AllocOn(c0, c0.Here(), &payload{v: 0}))

	const readers = 3
	const iters = 400
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := s.Ctx(r % 2)
			hp := d.Acquire(c)
			defer d.Release(c, hp)
			for i := 0; i < iters; i++ {
				addr := hp.Protect(c, cell)
				if addr.IsNil() {
					continue
				}
				p := payloads.MustLoad(c, addr) // must be safe under the hazard
				_ = p.v
				hp.Clear()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := s.Ctx(0)
		for i := 1; i <= iters; i++ {
			fresh := payloads.AllocOn(c, c.Here(), &payload{v: i})
			old := cell.Exchange(c, fresh)
			if !old.IsNil() {
				d.Retire(c, old)
			}
		}
	}()
	wg.Wait()

	d.Drain(s.Ctx(0))
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d use-after-free loads under hazard protection", uaf)
	}
	st := d.Stats(s.Ctx(0))
	// Everything retired is eventually freed once hazards are clear
	// (the final object is still live in the cell, never retired).
	if st.Freed != st.Retired {
		t.Fatalf("freed %d of %d retired", st.Freed, st.Retired)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := newTestSystem(t, 4)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		d := NewDomain(c, 1000)
		c.CoforallLocales(func(lc *pgas.Ctx) {
			d.Retire(lc, payloads.AllocOn(lc, lc.Here(), &payload{}))
		})
		st := d.Stats(c)
		if st.Retired != 4 {
			t.Fatalf("retired = %d", st.Retired)
		}
		d.Drain(c)
		if st = d.Stats(c); st.Freed != 4 {
			t.Fatalf("freed = %d", st.Freed)
		}
	})
}
