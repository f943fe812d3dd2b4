package pgas

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

// The comm matrix must attribute every remote event to the right
// (source, destination) pair.
func TestMatrixAttribution(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	s.Run(func(c *Ctx) {
		m := s.Matrix()

		c.On(2, func(rc *Ctx) {}) // 0 → 2
		if m.Get(0, 2) != 1 {
			t.Fatalf("on-statement not attributed: %v", m.Snapshot())
		}

		w := NewWord64(c, 3, 0)
		w.Read(c) // 0 → 3 AM atomic
		if m.Get(0, 3) != 1 {
			t.Fatalf("AM atomic not attributed: %v", m.Snapshot())
		}

		things := NewSlab[thing](s)
		a := things.AllocOn(c, 1, &thing{v: 7}) // 0 → 1
		before := m.Get(0, 1)
		things.MustLoad(c, a) // 0 → 1 GET
		if m.Get(0, 1) != before+1 {
			t.Fatal("GET not attributed")
		}

		// From locale 2, touching locale 1.
		c.On(2, func(rc *Ctx) {
			things.MustLoad(rc, a) // 2 → 1
		})
		if m.Get(2, 1) != 1 {
			t.Fatalf("GET not attributed to 2→1: %v", m.Snapshot())
		}
	})
}

func TestMatrixLocalOpsInvisible(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		w := NewWord64(c, 0, 0)
		things := NewSlab[thing](s)
		a := things.AllocOn(c, 0, &thing{v: 1})
		w.Read(c)
		things.MustLoad(c, a)
		c.On(0, func(*Ctx) {})
		if got := s.Matrix().Total(); got != 0 {
			t.Fatalf("local operations appeared in the matrix: %d", got)
		}
	})
}

func TestMatrixUGNILocalNICVisible(t *testing.T) {
	// Under ugni even a local atomic goes through the NIC; the matrix
	// records it as (l, l) traffic — a real wire round trip.
	s := newTestSystem(t, 2, comm.BackendUGNI)
	s.Run(func(c *Ctx) {
		w := NewWord64(c, 0, 0)
		w.Read(c)
		if got := s.Matrix().Get(0, 0); got != 1 {
			t.Fatalf("ugni local NIC atomic not recorded: %d", got)
		}
	})
}

func TestMatrixBulkAttribution(t *testing.T) {
	s := newTestSystem(t, 3, comm.BackendNone)
	s.Run(func(c *Ctx) {
		things := NewSlab[thing](s)
		var addrs []gas.Addr
		for i := 0; i < 10; i++ {
			addrs = append(addrs, things.AllocOn(c, 2, &thing{v: i}))
		}
		before := s.Matrix().Get(0, 2)
		c.FreeBulk(2, addrs)
		if got := s.Matrix().Get(0, 2) - before; got != 1 {
			t.Fatalf("bulk transfer attributed %d times", got)
		}
	})
}

// Scatter traffic from the EpochManager is visible in the matrix as
// one shipment per destination — validated at the pgas level here and
// at the epoch level in the epoch package's tests.
func TestMatrixCoforallFanOut(t *testing.T) {
	s := newTestSystem(t, 8, comm.BackendNone)
	s.Run(func(c *Ctx) {
		c.CoforallLocales(func(*Ctx) {})
		m := s.Matrix()
		for l := 1; l < 8; l++ {
			if m.Get(0, l) != 1 {
				t.Fatalf("fan-out to %d = %d", l, m.Get(0, l))
			}
		}
		if m.Get(0, 0) != 0 {
			t.Fatal("self traffic recorded for local spawn")
		}
	})
}
