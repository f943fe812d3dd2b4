package epoch

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
)

func TestProtectRunsPinned(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		ran := false
		em.Protect(c, func(tok *Token) {
			ran = true
			if !tok.Pinned() {
				t.Error("token not pinned inside Protect")
			}
			obj := payloads.AllocOn(c, c.Here(), &payload{v: 1})
			tok.DeferDelete(c, obj)
		})
		if !ran {
			t.Fatal("Protect did not run fn")
		}
		em.Clear(c)
		if st := em.Stats(c); st.Reclaimed != 1 {
			t.Fatalf("reclaimed = %d", st.Reclaimed)
		}
	})
}

func TestProtectUnregistersOnPanic(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		func() {
			defer func() { recover() }()
			em.Protect(c, func(tok *Token) {
				panic("boom")
			})
		}()
		// The token must have been unpinned and returned to the free
		// list: a subsequent advance must not be blocked, and Register
		// must recycle rather than mint.
		em.TryReclaim(c)
		em.TryReclaim(c)
		if got := em.readGlobal(c); got != 3 {
			t.Fatalf("epoch = %d — panicked token still pinned", got)
		}
		em.Register(c)
		if got := em.Stats(c).Tokens; got != 1 {
			t.Fatalf("minted %d tokens; panicked token not recycled", got)
		}
	})
}

func TestProtectNested(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		em.Protect(c, func(outer *Token) {
			em.Protect(c, func(inner *Token) {
				if outer == inner {
					t.Error("nested Protect shared a token")
				}
			})
			if !outer.Pinned() {
				t.Error("inner Protect unpinned the outer token")
			}
		})
	})
}

// The scatter matrix view: reclaiming remote objects must produce one
// bulk shipment per destination in the comm matrix.
func TestScatterVisibleInMatrix(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		tok.Pin(c)
		for l := 1; l < 4; l++ {
			for i := 0; i < 5; i++ {
				tok.DeferDelete(c, payloads.AllocOn(c, l, &payload{}))
			}
		}
		tok.Unpin(c)
		s.Matrix().Reset()
		before := s.Counters().Snapshot()
		em.Clear(c)
		d := s.Counters().Snapshot().Sub(before)
		if d.BulkXfers != 3 {
			t.Fatalf("Clear shipped %d bulk transfers, want 3", d.BulkXfers)
		}
		// Matrix view: per destination, one on-statement (the Clear
		// fan-out) plus one bulk shipment = 2 events, all from locale 0.
		m := s.Matrix()
		for l := 1; l < 4; l++ {
			if got := m.Get(0, l); got != 2 {
				t.Errorf("traffic 0→%d = %d events, want 2 (fan-out + bulk)", l, got)
			}
		}
		if rows, _ := m.Totals(); rows[1]+rows[2]+rows[3] != 0 {
			t.Errorf("unexpected traffic from non-coordinating locales: %v", rows)
		}
	})
}
