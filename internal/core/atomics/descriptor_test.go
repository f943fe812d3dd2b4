package atomics

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func TestDescriptorRegisterResolve(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	nodes := pgas.NewSlab[node](s)
	s.Run(func(c *pgas.Ctx) {
		tbl := NewDescriptorTable(c)
		a := nodes.AllocOn(c, 3, &node{v: 1})
		d := tbl.Register(c, a)
		if d == DescriptorNil {
			t.Fatal("register returned nil descriptor")
		}
		if got := tbl.Resolve(c, d); got != a {
			t.Fatalf("resolve = %v, want %v", got, a)
		}
		// Interning: same address, same descriptor.
		if d2 := tbl.Register(c, a); d2 != d {
			t.Fatalf("re-register gave %v, want %v", d2, d)
		}
		if tbl.Len() != 1 {
			t.Fatalf("table has %d entries", tbl.Len())
		}
		if got := tbl.Resolve(c, DescriptorNil); !got.IsNil() {
			t.Fatalf("nil descriptor resolved to %v", got)
		}
	})
}

func TestDescriptorModeKeepsNICAtomics(t *testing.T) {
	// The future-work claim: with descriptors, the word an AtomicObject
	// CASes stays 64-bit even when pointers cannot be compressed, so
	// NIC atomics survive — at the cost of resolution GETs.
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendUGNI})
	defer s.Shutdown()
	nodes := pgas.NewSlab[node](s)
	s.Run(func(c *pgas.Ctx) {
		tbl := NewDescriptorTable(c)
		a := New(c, 1, Options{Mode: ModeDescriptor, Table: tbl})
		n1 := nodes.AllocOn(c, 1, &node{v: 1})
		n2 := nodes.AllocOn(c, c.Here(), &node{v: 2})
		a.Write(c, n1)

		before := s.Counters().Snapshot()
		ok := a.CompareAndSwap(c, n1, n2)
		d := s.Counters().Snapshot().Sub(before)
		if !ok {
			t.Fatal("CAS failed")
		}
		if d.NICAMOs != 1 || d.DCASRemote != 0 {
			t.Fatalf("descriptor CAS routing: %v", d)
		}
		if got := a.Read(c); got != n2 {
			t.Fatalf("read back %v", got)
		}
	})
}

func TestDescriptorModeWithABA(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	nodes := pgas.NewSlab[node](s)
	s.Run(func(c *pgas.Ctx) {
		tbl := NewDescriptorTable(c)
		a := New(c, 0, Options{Mode: ModeDescriptor, Table: tbl, ABA: true})
		n1 := nodes.AllocOn(c, c.Here(), &node{v: 1})
		r := a.ReadABA(c)
		if !a.CompareAndSwapABA(c, r, n1) {
			t.Fatal("CASABA failed")
		}
		got := a.ReadABA(c)
		if got.Object() != n1 || got.Count() != 1 {
			t.Fatalf("got %v", got)
		}
	})
}

func TestDescriptorModeRequiresTable(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		defer func() {
			if recover() == nil {
				t.Fatal("ModeDescriptor without a table must panic")
			}
		}()
		New(c, 0, Options{Mode: ModeDescriptor})
	})
}

func TestDescriptorResolutionCost(t *testing.T) {
	// Resolving a descriptor whose shard is remote costs one GET; the
	// ablation bench quantifies this indirection.
	s := newTestSystem(t, 2, comm.BackendNone)
	nodes := pgas.NewSlab[node](s)
	s.Run(func(c *pgas.Ctx) {
		tbl := NewDescriptorTable(c)
		a := nodes.AllocOn(c, c.Here(), &node{})
		var d Descriptor
		for {
			d = tbl.Register(c, a)
			if tbl.shardOf(d) == 1 {
				break
			}
			// Shard depends on the descriptor value; register fresh
			// addresses until one lands on the remote shard.
			a = nodes.AllocOn(c, c.Here(), &node{})
		}
		before := s.Counters().Snapshot()
		tbl.Resolve(c, d)
		diff := s.Counters().Snapshot().Sub(before)
		if diff.Gets != 1 {
			t.Fatalf("remote-shard resolve cost %d GETs, want 1", diff.Gets)
		}
	})
}

func TestGasLimitInSystemConstructor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("systems beyond 2^16 locales must be rejected")
		}
	}()
	pgas.NewSystem(pgas.Config{Locales: gas.MaxLocales + 1})
}

// A remote Register and Resolve are charged through the dispatch layer
// like any other remote event: counter and matrix move together, on the
// (caller, shard) cell, and the cost follows the live fault plan.
func TestDescriptorChargesThroughDispatch(t *testing.T) {
	lat := comm.LatencyProfile{AMRoundTripNS: 2000, AMHandlerNS: 300, PutGetNS: 1000}
	price := lat.Prices().Event
	am, get := price[comm.KindAMAMO], price[comm.KindGet]
	s := pgas.NewSystem(pgas.Config{Locales: 4, Backend: comm.BackendNone, Latency: lat})
	defer s.Shutdown()
	nodes := pgas.NewSlab[node](s)
	c := s.Ctx(0)
	tbl := NewDescriptorTable(c)

	// step runs fn, which must make exactly one remote event toward
	// shard, and returns the nanoseconds the model charged for it: its
	// nominal price plus the live latency scale's excess.
	step := func(what string, shard int, fn func()) int64 {
		t.Helper()
		before, cell := s.Counters().Snapshot(), s.Matrix().Get(0, shard)
		m0, p0, _ := s.DelayTotals()
		fn()
		d := s.Counters().Snapshot().Sub(before)
		if d.Remote() != 1 || s.Matrix().Get(0, shard) != cell+1 || s.Matrix().Total() != before.Remote()+1 {
			t.Fatalf("%s: %d remote events, matrix cell (0,%d) %d -> %d, matrix total %d",
				what, d.Remote(), shard, cell, s.Matrix().Get(0, shard), s.Matrix().Total())
		}
		m1, p1, _ := s.DelayTotals()
		return m1 + p1 - m0 - p0
	}

	// Descriptors 1, 2, 3 live on shards 1, 2, 3: all remote from 0.
	var d1 Descriptor
	if ns := step("register", 1, func() { d1 = tbl.Register(c, nodes.AllocOn(c, c.Here(), &node{v: 1})) }); ns != am {
		t.Fatalf("remote register charged %dns, want an AM atomic's %dns", ns, am)
	}
	if ns := step("resolve", 1, func() { tbl.Resolve(c, d1) }); ns != get {
		t.Fatalf("remote resolve charged %dns, want %dns", ns, get)
	}

	const scale = 3
	s.SetScales([]float64{1, 1, scale, 1})
	var d2 Descriptor
	if ns := step("slowed register", 2, func() { d2 = tbl.Register(c, nodes.AllocOn(c, c.Here(), &node{v: 2})) }); ns != scale*am {
		t.Fatalf("register toward the slowed shard charged %dns, want %dns", ns, scale*am)
	}
	if ns := step("slowed resolve", 2, func() { tbl.Resolve(c, d2) }); ns != scale*get {
		t.Fatalf("resolve toward the slowed shard charged %dns, want %dns", ns, scale*get)
	}
}
