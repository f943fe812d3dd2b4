package pgas

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

type thing struct{ v int }

// The deprecated boxed face: Ctx.Alloc places obj on the caller's
// locale, and Ctx.Load reads it back for free there and for one GET
// from another locale.
func TestAllocLoadLocal(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := c.Alloc(&thing{v: 1})
		if a.Locale() != 0 {
			t.Fatalf("local alloc landed on locale %d", a.Locale())
		}
		for _, lc := range []*Ctx{c, s.Ctx(1)} {
			before := s.Counters().Snapshot()
			got, ok := lc.Load(a)
			if !ok || got.(*thing).v != 1 {
				t.Fatalf("load from %d = %v ok=%v", lc.Here(), got, ok)
			}
			if d := s.Counters().Snapshot().Sub(before); d.Gets != int64(lc.Here()) {
				t.Fatalf("load from %d cost %d GETs, want %d", lc.Here(), d.Gets, lc.Here())
			}
		}
	})
}

func TestAllocOnRemoteAndDeref(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	s.Run(func(c *Ctx) {
		things := NewSlab[thing](s)
		before := s.Counters().Snapshot()
		a := things.AllocOn(c, 2, &thing{v: 7})
		if a.Locale() != 2 {
			t.Fatalf("remote alloc landed on %d", a.Locale())
		}
		d := s.Counters().Snapshot().Sub(before)
		if d.OnStmts != 1 {
			t.Fatalf("remote alloc cost %d on-statements, want 1", d.OnStmts)
		}
		before = s.Counters().Snapshot()
		got := things.MustLoad(c, a)
		if got.v != 7 {
			t.Fatalf("load = %+v", got)
		}
		if d := s.Counters().Snapshot().Sub(before); d.Gets != 1 {
			t.Fatalf("remote load cost %d GETs, want 1", d.Gets)
		}
	})
}

// A Load after Free reports the use-after-free and counts it; MustLoad
// panics on it.
func TestDerefAfterFreeDetected(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *Ctx) {
		things := NewSlab[thing](s)
		a := things.AllocOn(c, 0, &thing{})
		if !c.Free(a) {
			t.Fatal("free failed")
		}
		if _, ok := things.Load(c, a); ok {
			t.Fatal("load after free must report use-after-free")
		}
		if got := s.HeapStats().UAFLoads; got != 1 {
			t.Fatalf("UAFLoads = %d, want 1", got)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("MustLoad after free must panic")
			}
		}()
		things.MustLoad(c, a)
	})
}

// A Slab[A].Load of a Slab[B] address panics: a slot is never read as
// a type it does not hold.
func TestDerefTypeMismatchPanics(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *Ctx) {
		type other struct{ s string }
		a := NewSlab[other](s).AllocOn(c, 0, &other{s: "a string"})
		defer func() {
			if recover() == nil {
				t.Fatal("type-mismatched load must panic")
			}
		}()
		NewSlab[thing](s).Load(c, a)
	})
}

func TestRemoteFreeCountsRPC(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := NewSlab[int](s).AllocOn(c, 1, new(int))
		before := s.Counters().Snapshot()
		c.Free(a)
		if d := s.Counters().Snapshot().Sub(before); d.OnStmts != 1 {
			t.Fatalf("remote free cost %d on-statements, want 1", d.OnStmts)
		}
	})
}

func TestFreeBulkOneTransferManyObjects(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		ints := NewSlab[int](s)
		var addrs []gas.Addr
		for i := 0; i < 100; i++ {
			addrs = append(addrs, ints.AllocOn(c, 1, &i))
		}
		before := s.Counters().Snapshot()
		if n := c.FreeBulk(1, addrs); n != 100 {
			t.Fatalf("bulk freed %d, want 100", n)
		}
		d := s.Counters().Snapshot().Sub(before)
		// The whole point of scatter lists: one transfer, not 100 RPCs.
		if d.BulkXfers != 1 || d.OnStmts != 0 {
			t.Fatalf("bulk free comm: %v", d)
		}
		if d.BulkBytes != 800 {
			t.Fatalf("bulk bytes = %d", d.BulkBytes)
		}
	})
}

func TestFreeBulkLocalIsFree(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		ints := NewSlab[int](s)
		addrs := []gas.Addr{ints.AllocOn(c, 0, new(int)), ints.AllocOn(c, 0, new(int))}
		before := s.Counters().Snapshot()
		c.FreeBulk(0, addrs)
		if d := s.Counters().Snapshot().Sub(before); d.Remote() != 0 {
			t.Fatalf("local bulk free cost communication: %v", d)
		}
	})
}

func TestFreeBulkForeignAddrPanics(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := NewSlab[int](s).AllocOn(c, 0, new(int))
		defer func() {
			if recover() == nil {
				t.Fatal("FreeBulk with a foreign addr must panic")
			}
		}()
		c.FreeBulk(1, []gas.Addr{a})
	})
}

func TestPrivatizedZeroCommunication(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *Ctx) {
		type inst struct{ locale int }
		p := NewPrivatized(c, func(lc *Ctx) *inst {
			return &inst{locale: lc.Here()}
		})
		// Lookup from every locale: each must resolve its own replica
		// with zero communication — the paper's central privatization
		// claim, verified by counters.
		c.CoforallLocales(func(lc *Ctx) {
			before := s.Counters().Snapshot()
			in := p.Get(lc)
			d := s.Counters().Snapshot().Sub(before)
			if in.locale != lc.Here() {
				t.Errorf("locale %d resolved replica of %d", lc.Here(), in.locale)
			}
			if d.Remote() != 0 {
				t.Errorf("privatized lookup cost communication: %v", d)
			}
		})
	})
}

func TestPrivatizedDistinctInstances(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	s.Run(func(c *Ctx) {
		type inst struct{ n int }
		p := NewPrivatized(c, func(lc *Ctx) *inst { return &inst{} })
		c.CoforallLocales(func(lc *Ctx) {
			p.Get(lc).n = lc.Here() + 1
		})
		for l := 0; l < 3; l++ {
			if got := p.GetOn(c, l).n; got != l+1 {
				t.Errorf("locale %d instance n = %d", l, got)
			}
		}
	})
}

func TestMultiplePrivatizedObjects(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		type a struct{ x int }
		type b struct{ y string }
		pa := NewPrivatized(c, func(lc *Ctx) *a { return &a{x: 1} })
		pb := NewPrivatized(c, func(lc *Ctx) *b { return &b{y: "z"} })
		if pa.Get(c).x != 1 || pb.Get(c).y != "z" {
			t.Fatal("privatization ids collided")
		}
	})
}

// A Slab's books are exact under the default profile: from locale 0,
// a remote AllocOn is one on-statement, a remote Load one GET, and a
// remote AllocBulkOn of two nodes one bulk transfer of 32 bytes; local
// ones book nothing. Each is charged its books' modelled price.
func TestSlabBooksExact(t *testing.T) {
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone, Latency: comm.DefaultProfile()})
	defer s.Shutdown()
	c := s.Ctx(0)
	things := NewSlab[thing](s)
	prices := comm.DefaultProfile().Prices()
	check := func(step string, home int, want comm.Snapshot, op func()) {
		t.Helper()
		before := s.Counters().Snapshot()
		m0, _, _ := s.DelayTotals()
		op()
		m1, _, _ := s.DelayTotals()
		if d := s.Counters().Snapshot().Sub(before); d != want {
			t.Errorf("%s(%d) booked %+v, want %+v", step, home, d, want)
		}
		if ns := m1 - m0; ns != prices.Modelled(want) {
			t.Errorf("%s(%d) charged %d ns, want %d", step, home, ns, prices.Modelled(want))
		}
	}
	for _, home := range []int{0, 2} {
		var allocD, loadD, bulkD comm.Snapshot
		if home != c.Here() {
			allocD = comm.Snapshot{OnStmts: 1}
			loadD = comm.Snapshot{Gets: 1}
			bulkD = comm.Snapshot{BulkXfers: 1, BulkBytes: 32}
		}
		var a gas.Addr
		check("AllocOn", home, allocD, func() { a = things.AllocOn(c, home, &thing{v: 1}) })
		check("Load", home, loadD, func() {
			if n := things.MustLoad(c, a); n.v != 1 {
				t.Errorf("Load(%d) = %+v", home, n)
			}
		})
		check("AllocBulkOn", home, bulkD, func() { things.AllocBulkOn(c, home, []*thing{{v: 2}, {v: 3}}) })
	}
}
