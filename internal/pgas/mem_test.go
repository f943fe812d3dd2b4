package pgas

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

type thing struct{ v int }

func TestAllocLoadLocal(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := c.Alloc(&thing{v: 1})
		if a.Locale() != 0 {
			t.Fatalf("local alloc landed on locale %d", a.Locale())
		}
		before := s.Counters().Snapshot()
		got := MustDeref[*thing](c, a)
		if got.v != 1 {
			t.Fatalf("deref = %+v", got)
		}
		if d := s.Counters().Snapshot().Sub(before); d.Gets != 0 {
			t.Fatalf("local deref cost %d GETs", d.Gets)
		}
	})
}

func TestAllocOnRemoteAndDeref(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	s.Run(func(c *Ctx) {
		before := s.Counters().Snapshot()
		a := c.AllocOn(2, &thing{v: 7})
		if a.Locale() != 2 {
			t.Fatalf("remote alloc landed on %d", a.Locale())
		}
		d := s.Counters().Snapshot().Sub(before)
		if d.OnStmts != 1 {
			t.Fatalf("remote alloc cost %d on-statements, want 1", d.OnStmts)
		}
		before = s.Counters().Snapshot()
		got := MustDeref[*thing](c, a)
		if got.v != 7 {
			t.Fatalf("deref = %+v", got)
		}
		if d := s.Counters().Snapshot().Sub(before); d.Gets != 1 {
			t.Fatalf("remote deref cost %d GETs, want 1", d.Gets)
		}
	})
}

func TestDerefAfterFreeDetected(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := c.Alloc(&thing{})
		if !c.Free(a) {
			t.Fatal("free failed")
		}
		if _, ok := Deref[*thing](c, a); ok {
			t.Fatal("deref after free must report use-after-free")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("MustDeref after free must panic")
			}
		}()
		MustDeref[*thing](c, a)
	})
}

func TestDerefTypeMismatchPanics(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := c.Alloc("a string")
		defer func() {
			if recover() == nil {
				t.Fatal("type-mismatched deref must panic")
			}
		}()
		Deref[*thing](c, a)
	})
}

func TestPutRemote(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := c.AllocOn(1, 10)
		before := s.Counters().Snapshot()
		if !c.Put(a, 20) {
			t.Fatal("put failed")
		}
		if d := s.Counters().Snapshot().Sub(before); d.Puts != 1 {
			t.Fatalf("remote put cost %d PUTs, want 1", d.Puts)
		}
		if got := MustDeref[int](c, a); got != 20 {
			t.Fatalf("after put: %d", got)
		}
	})
}

func TestRemoteFreeCountsRPC(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		a := c.AllocOn(1, 1)
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
		var addrs []gas.Addr
		for i := 0; i < 100; i++ {
			addrs = append(addrs, c.AllocOn(1, i))
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
		addrs := []gas.Addr{c.Alloc(1), c.Alloc(2)}
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
		a := c.Alloc(1)
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

// A Slab books and charges exactly what the untyped Ctx operations do:
// a remote AllocOn is one on-statement, a remote Load one GET, and a
// remote AllocBulkOn one bulk transfer of 16 bytes a node; local ones
// are free. Only the storage differs.
func TestSlabBooksAsCtx(t *testing.T) {
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone, Latency: comm.DefaultProfile()})
	defer s.Shutdown()
	c := s.Ctx(0)
	things := NewSlab[thing](s)
	cost := func(op func()) (comm.Snapshot, int64) {
		before := s.Counters().Snapshot()
		m0, _, _ := s.DelayTotals()
		op()
		m1, _, _ := s.DelayTotals()
		return s.Counters().Snapshot().Sub(before), m1 - m0
	}
	for _, home := range []int{0, 2} {
		var untyped, typed gas.Addr
		wantD, wantNS := cost(func() { untyped = c.AllocOn(home, &thing{v: 1}) })
		if d, ns := cost(func() { typed = things.AllocOn(c, home, &thing{v: 1}) }); d != wantD || ns != wantNS {
			t.Errorf("AllocOn(%d): slab booked %+v, %d ns; Ctx %+v, %d ns", home, d, ns, wantD, wantNS)
		}
		wantD, wantNS = cost(func() { MustDeref[*thing](c, untyped) })
		if d, ns := cost(func() { things.MustLoad(c, typed) }); d != wantD || ns != wantNS {
			t.Errorf("Load(%d): slab booked %+v, %d ns; Ctx %+v, %d ns", home, d, ns, wantD, wantNS)
		}
		wantD, wantNS = cost(func() {
			if home != c.Here() {
				c.ChargeBulk(home, 2*16)
			}
		})
		if d, ns := cost(func() { things.AllocBulkOn(c, home, []*thing{{v: 2}, {v: 3}}) }); d != wantD || ns != wantNS {
			t.Errorf("AllocBulkOn(%d): slab booked %+v, %d ns; a 32-byte bulk transfer %+v, %d ns", home, d, ns, wantD, wantNS)
		}
	}
}
