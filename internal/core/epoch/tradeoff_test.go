package epoch

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/hazard"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// The classic EBR-vs-HP trade-off, demonstrated as a test: a single
// stalled reader (a token pinned and never unpinned) blocks *all*
// epoch advancement, so EBR garbage grows without bound; hazard
// pointers keep reclaiming everything except the one object the
// stalled reader actually protects. The paper chooses EBR for its
// cheap read path (Figure 7) and accepts this failure mode; the test
// pins down both sides of that trade.
func TestStalledReaderTradeoff(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)

	const churn = 300

	// --- EBR: one stalled token freezes reclamation. ---
	{
		em := NewEpochManager(c)
		stalled := em.Register(c)
		stalled.Pin(c) // never unpins

		writer := em.Register(c)
		for i := 0; i < churn; i++ {
			writer.Pin(c)
			writer.DeferDelete(c, c.Alloc(&payload{v: i}))
			writer.Unpin(c)
			writer.TryReclaim(c)
		}
		st := em.Stats(c)
		// One advance may succeed (the stalled token is in the current
		// epoch at first); after that, nothing.
		if st.Advances > 1 {
			t.Fatalf("EBR advanced %d times under a stalled reader", st.Advances)
		}
		if st.Reclaimed != 0 {
			t.Fatalf("EBR reclaimed %d objects under a stalled reader", st.Reclaimed)
		}
		// Release the stall: reclamation drains completely.
		stalled.Unpin(c)
		stalled.Unregister(c)
		writer.Unregister(c)
		em.Clear(c)
		if st = em.Stats(c); st.Reclaimed != churn {
			t.Fatalf("EBR reclaimed %d of %d after the stall cleared", st.Reclaimed, churn)
		}
	}

	// --- HP: the stalled reader only holds back one object. ---
	{
		dom := hazard.NewDomain(c, 32)
		hp := dom.Acquire(c)

		var protected gas.Addr
		for i := 0; i < churn; i++ {
			obj := c.Alloc(&payload{v: i})
			if i == 0 {
				protected = obj
				hp.Set(obj) // the stalled reader's single hazard
			}
			dom.Retire(c, obj)
		}
		dom.Scan(c)
		st := dom.Stats(c)
		if st.Freed != churn-1 {
			t.Fatalf("HP freed %d of %d (one may be protected)", st.Freed, churn)
		}
		if _, ok := pgas.Deref[*payload](c, protected); !ok {
			t.Fatal("HP freed the protected object")
		}
		hp.Clear()
		dom.Drain(c)
		if st = dom.Stats(c); st.Freed != churn {
			t.Fatalf("HP freed %d of %d after hazard cleared", st.Freed, churn)
		}
	}
}

// TestDeferEpochSafety is the regression test for a subtle reading of
// the paper: DeferDelete must target the locale's *current* epoch, not
// the token's pinned epoch. A retirer may legally be pinned one epoch
// behind; if its deferral landed in that older generation, the very
// next advance could free an object that a reader pinned in the
// current epoch still holds. The interleaving below is deterministic:
//
//	retirer pins at epoch 1 → epoch advances to 2 (legal) →
//	reader pins at 2 and grabs the object → retirer defers + unpins →
//	one advance (2→3, reclaims generation 1).
//
// Were the object in generation 1, the reader's dereference would be a
// use-after-free; in generation 2 it survives until the reader
// provably quiesces.
func TestDeferEpochSafety(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := NewEpochManager(c)

	retirer := em.Register(c)
	retirer.Pin(c) // epoch 1
	obj := c.Alloc(&payload{v: 42})

	em.TryReclaim(c) // 1 → 2 (retirer in thisEpoch, allowed)
	if em.readGlobal(c) != 2 {
		t.Fatal("setup: advance to 2 failed")
	}

	reader := em.Register(c)
	reader.Pin(c) // epoch 2
	held := obj   // the reader's reference, taken while obj is live

	retirer.DeferDelete(c, obj) // retirer still pinned at epoch 1
	retirer.Unpin(c)
	retirer.Unregister(c)

	em.TryReclaim(c) // 2 → 3, reclaims generation 1
	if em.readGlobal(c) != 3 {
		t.Fatal("advance to 3 blocked unexpectedly")
	}
	if _, ok := pgas.Deref[*payload](c, held); !ok {
		t.Fatal("use-after-free: object freed while a current-epoch reader holds it")
	}

	reader.Unpin(c)
	reader.Unregister(c)
	em.Clear(c)
	if _, ok := pgas.Deref[*payload](c, held); ok {
		t.Fatal("object leaked after quiescence")
	}
}

// Garbage bound comparison under a healthy (non-stalled) workload:
// both schemes keep live memory bounded.
func TestBoundedGarbageHealthyWorkload(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	c := s.Ctx(0)
	em := NewEpochManager(c)
	tok := em.Register(c)
	const churn = 2000
	for i := 0; i < churn; i++ {
		tok.Pin(c)
		tok.DeferDelete(c, c.Alloc(&payload{v: i}))
		tok.Unpin(c)
		if i%64 == 0 {
			tok.TryReclaim(c)
		}
	}
	// High-water must stay near the reclaim cadence, nowhere near the
	// total churn.
	if hw := s.HeapStats().HighWater; hw > churn/2 {
		t.Fatalf("high water %d for %d churn — reclamation not keeping up", hw, churn)
	}
	tok.Unregister(c)
	em.Clear(c)
	if st := em.Stats(c); st.Reclaimed != churn {
		t.Fatalf("reclaimed %d of %d", st.Reclaimed, churn)
	}
}
