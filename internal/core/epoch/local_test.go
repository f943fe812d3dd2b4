package epoch

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
)

func TestLocalManagerBasics(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		if m.Epoch() != firstEpoch {
			t.Fatalf("fresh epoch = %d", m.Epoch())
		}
		tok := m.Register(c)
		tok.Pin()
		if !tok.Pinned() || tok.Epoch() != firstEpoch {
			t.Fatalf("token epoch = %d", tok.Epoch())
		}
		tok.Unpin()
		tok.Unregister()
	})
}

func TestLocalManagerTwoAdvanceRule(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		tok := m.Register(c)
		tok.Pin()
		obj := c.Alloc(&payload{v: 9})
		tok.DeferDelete(c, obj)
		tok.Unpin()

		// The same generation arithmetic as EpochManager: freed at the
		// third advance.
		for n := 1; n <= 2; n++ {
			m.TryReclaim(c)
			if _, ok := pgas.Deref[*payload](c, obj); !ok {
				t.Fatalf("freed after %d advance(s)", n)
			}
		}
		m.TryReclaim(c)
		if _, ok := pgas.Deref[*payload](c, obj); ok {
			t.Fatal("live after three advances")
		}
		if st := m.Stats(); st.Reclaimed != 1 || st.Deferred != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestLocalManagerPinnedBlocksAdvance(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		blocker := m.Register(c)
		blocker.Pin() // epoch 1

		m.TryReclaim(c) // 1 → 2 (blocker in current epoch 1? no: in thisEpoch → allowed)
		if m.Epoch() != 2 {
			t.Fatalf("epoch = %d", m.Epoch())
		}
		m.TryReclaim(c) // blocked by blocker still in epoch 1
		if m.Epoch() != 2 {
			t.Fatalf("advance past pinned token: epoch = %d", m.Epoch())
		}
		if m.Stats().AdvanceFail != 1 {
			t.Fatalf("advanceFail = %d", m.Stats().AdvanceFail)
		}
		blocker.Unpin()
		m.TryReclaim(c)
		if m.Epoch() != 3 {
			t.Fatalf("epoch = %d", m.Epoch())
		}
	})
}

func TestLocalManagerRejectsRemoteObjects(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		tok := m.Register(c)
		tok.Pin()
		remote := c.AllocOn(1, &payload{})
		defer func() {
			if recover() == nil {
				t.Fatal("remote object in LocalEpochManager must panic")
			}
		}()
		tok.DeferDelete(c, remote)
	})
}

func TestLocalManagerWrongLocalePanics(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		c.On(1, func(rc *pgas.Ctx) {
			defer func() {
				if recover() == nil {
					t.Error("cross-locale use must panic")
				}
			}()
			m.Register(rc)
		})
	})
}

func TestLocalManagerZeroCommunication(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		before := s.Counters().Snapshot()
		tok := m.Register(c)
		for i := 0; i < 50; i++ {
			tok.Pin()
			obj := c.Alloc(&payload{v: i})
			tok.DeferDelete(c, obj)
			tok.Unpin()
			m.TryReclaim(c)
		}
		tok.Unregister()
		m.Clear(c)
		if d := s.Counters().Snapshot().Sub(before); d.Remote() != 0 {
			t.Fatalf("LocalEpochManager communicated: %v", d)
		}
		if st := m.Stats(); st.Reclaimed != 50 {
			t.Fatalf("reclaimed %d of 50", st.Reclaimed)
		}
	})
}

func TestLocalManagerTokenRecycling(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		t1 := m.Register(c)
		t1.Unregister()
		t2 := m.Register(c)
		if t1 != t2 {
			t.Fatal("local token not recycled")
		}
		if m.Stats().Tokens != 1 {
			t.Fatalf("minted %d", m.Stats().Tokens)
		}
	})
}

func TestLocalManagerConcurrentChurn(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	m := NewLocalEpochManager(s.Ctx(0))
	const tasks = 6
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Ctx(0)
			tok := m.Register(c)
			for i := 0; i < iters; i++ {
				tok.Pin()
				tok.DeferDelete(c, c.Alloc(&payload{v: i}))
				tok.Unpin()
				if i%8 == 0 {
					m.TryReclaim(c)
				}
			}
			tok.Unregister()
		}()
	}
	wg.Wait()
	c := s.Ctx(0)
	m.Clear(c)
	st := m.Stats()
	if st.Deferred != tasks*iters || st.Reclaimed != st.Deferred {
		t.Fatalf("stats = %+v", st)
	}
	if uaf := s.HeapStats().UAFLoads + s.HeapStats().UAFFrees; uaf != 0 {
		t.Fatalf("%d UAF events", uaf)
	}
}

func TestLocalManagerBackoff(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *pgas.Ctx) {
		m := NewLocalEpochManager(c)
		m.isSettingEpoch.Store(1)
		m.TryReclaim(c)
		if m.Stats().Backoff != 1 {
			t.Fatalf("backoff = %d", m.Stats().Backoff)
		}
		if m.Epoch() != firstEpoch {
			t.Fatal("epoch moved during held election")
		}
		m.isSettingEpoch.Store(0)
	})
}
