package pgas

import (
	"sync"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
)

type privThing struct {
	locale int
	tag    int
}

// Concurrent NewPrivatized calls from many tasks must hand out
// distinct ids and resolve to the right per-locale instances under
// every interleaving (run with -race).
func TestPrivatizedConcurrentCreateAndLookup(t *testing.T) {
	s := NewSystem(Config{Locales: 4, Backend: comm.BackendNone})
	defer s.Shutdown()

	const creators = 8
	const perCreator = 10
	handles := make([][]Privatized[privThing], creators)
	var wg sync.WaitGroup
	for g := 0; g < creators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 4)
			for i := 0; i < perCreator; i++ {
				tag := g*perCreator + i
				h := NewPrivatized(c, func(lc *Ctx) *privThing {
					return &privThing{locale: lc.Here(), tag: tag}
				})
				handles[g] = append(handles[g], h)
				// Interleave lookups with other creators' registry writes.
				for l := 0; l < 4; l++ {
					got := h.GetOn(c, l)
					if got.locale != l || got.tag != tag {
						t.Errorf("handle %d resolved (%d,%d) on locale %d", tag, got.locale, got.tag, l)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// All ids distinct; every handle still resolves correctly.
	seen := map[int]bool{}
	for g := range handles {
		for i, h := range handles[g] {
			if !h.Valid() {
				t.Fatalf("handle %d/%d invalid", g, i)
			}
			if seen[h.pid] {
				t.Fatalf("pid %d handed out twice", h.pid)
			}
			seen[h.pid] = true
			c := s.Ctx(0)
			if got := h.Get(c); got.locale != 0 || got.tag != g*perCreator+i {
				t.Fatalf("handle %d/%d resolves (%d,%d)", g, i, got.locale, got.tag)
			}
		}
	}
}

// Get takes no lock: it reads whichever version of the locale's table
// was published last. Lookups of one long-lived handle racing creates
// and destroys of *other* handles — each of which republishes every
// locale's table — always resolve their own instance (run with -race).
func TestPrivatizedGetRacesTableRepublication(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	h := NewPrivatized(s.Ctx(0), func(lc *Ctx) *privThing {
		return &privThing{locale: lc.Here(), tag: -1}
	})
	want := [2]*privThing{h.GetOn(s.Ctx(0), 0), h.GetOn(s.Ctx(0), 1)}
	var churners, readers sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < 2; g++ {
		churners.Add(1)
		go func(g int) {
			defer churners.Done()
			c := s.Ctx(g)
			for i := 0; i < 200; i++ {
				other := NewPrivatized(c, func(lc *Ctx) *privThing {
					return &privThing{locale: lc.Here(), tag: i}
				})
				if other.ID() == h.ID() {
					t.Errorf("live id %d handed out again", h.ID())
				}
				other.Destroy(c, nil)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			c := s.Ctx(g % 2)
			for !stop.Load() {
				if got := h.Get(c); got != want[g%2] {
					t.Errorf("Get on locale %d resolved %+v", g%2, got)
					return
				}
				if got := h.GetOn(c, 1-g%2); got != want[1-g%2] {
					t.Errorf("GetOn(%d) resolved %+v", 1-g%2, got)
					return
				}
			}
		}(g)
	}
	churners.Wait()
	stop.Store(true)
	readers.Wait()
}

// Get performs zero communication from every locale.
func TestPrivatizedGetIsZeroComm(t *testing.T) {
	s := NewSystem(Config{Locales: 4, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	h := NewPrivatized(c, func(lc *Ctx) *privThing {
		return &privThing{locale: lc.Here()}
	})
	before := s.Counters().Snapshot()
	for l := 0; l < 4; l++ {
		lc := s.Ctx(l)
		for i := 0; i < 100; i++ {
			if h.Get(lc).locale != l {
				t.Fatalf("wrong instance on locale %d", l)
			}
		}
	}
	if delta := s.Counters().Snapshot().Sub(before); delta.Remote() != 0 {
		t.Fatalf("privatized Get communicated: %v", delta)
	}
}

// Destroy runs the per-locale finalizer hook everywhere, recycles the
// id, and a zero-value handle reports invalid.
func TestPrivatizedLifecycle(t *testing.T) {
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)

	var zero Privatized[privThing]
	if zero.Valid() {
		t.Fatal("zero handle claims validity")
	}

	h := NewPrivatized(c, func(lc *Ctx) *privThing {
		return &privThing{locale: lc.Here(), tag: 1}
	})
	var finalized atomic.Int64
	h.Destroy(c, func(lc *Ctx, inst *privThing) {
		if inst.locale != lc.Here() {
			t.Errorf("finalizer on %d got instance from %d", lc.Here(), inst.locale)
		}
		finalized.Add(1)
	})
	if finalized.Load() != 3 {
		t.Fatalf("finalizer ran %d times, want 3", finalized.Load())
	}

	// The freed id is recycled by the next create, on every locale.
	h2 := NewPrivatized(c, func(lc *Ctx) *privThing {
		return &privThing{locale: lc.Here(), tag: 2}
	})
	if h2.pid != h.pid {
		t.Fatalf("destroyed pid %d not recycled (got %d)", h.pid, h2.pid)
	}
	for l := 0; l < 3; l++ {
		if got := h2.GetOn(c, l); got.tag != 2 || got.locale != l {
			t.Fatalf("recycled handle resolves (%d,%d) on %d", got.locale, got.tag, l)
		}
	}
}

// A second Destroy of the same object is detected instead of
// double-freeing the id.
func TestPrivatizedDoubleDestroyPanics(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	h := NewPrivatized(c, func(lc *Ctx) *privThing {
		return &privThing{locale: lc.Here()}
	})
	h.Destroy(c, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Destroy did not panic")
		}
	}()
	h.Destroy(c, nil)
}

// Destroy under concurrent creates: ids stay unique among live
// objects, and recycled slots never alias a live handle (run with
// -race).
func TestPrivatizedChurn(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 2)
			for i := 0; i < 20; i++ {
				tag := g*1000 + i
				h := NewPrivatized(c, func(lc *Ctx) *privThing {
					return &privThing{locale: lc.Here(), tag: tag}
				})
				for l := 0; l < 2; l++ {
					if got := h.GetOn(c, l); got.tag != tag {
						t.Errorf("live handle %d resolved tag %d", tag, got.tag)
					}
				}
				h.Destroy(c, nil)
			}
		}(g)
	}
	wg.Wait()
}
