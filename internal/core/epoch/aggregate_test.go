package epoch

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Reclamation deletes each scatter list with one bulk free on its
// owner (Listing 4's `on Locales[i] do delete objs`): one bulk transfer
// of one address per object to every remote destination, nothing
// through the aggregation buffers, and no on-statement beyond the
// visits themselves.
func TestReclaimFreesOneBulkPerDestination(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		tok.Pin(c)
		const perLocale = 40
		var objs []gas.Addr
		for l := 0; l < 4; l++ {
			for i := 0; i < perLocale; i++ {
				a := payloads.AllocOn(c, l, &payload{v: i})
				objs = append(objs, a)
				tok.DeferDelete(c, a)
			}
		}
		tok.Unpin(c)

		before := s.Counters().Snapshot()
		em.Clear(c)
		d := s.Counters().Snapshot().Sub(before)

		// Three remote destinations, one bulk transfer each; the
		// locale-local batch frees in place without one.
		if d.BulkXfers != 3 || d.BulkBytes != 3*perLocale*8 {
			t.Fatalf("Clear booked %d bulk transfers / %d B, want 3 / %d (%v)",
				d.BulkXfers, d.BulkBytes, 3*perLocale*8, d)
		}
		if d.AggOpsEnq != 0 || d.AggOps != 0 || d.AggFlushes != 0 {
			t.Fatalf("Clear went through the aggregation buffers: %v", d)
		}
		if d.OnStmts != 3 {
			t.Fatalf("Clear booked %d on-statements, want the 3 visits", d.OnStmts)
		}
		if got := em.Stats(c).Reclaimed; got != 4*perLocale {
			t.Fatalf("reclaimed = %d, want %d", got, 4*perLocale)
		}
		for _, a := range objs {
			if _, live := payloads.Load(c, a); live {
				t.Fatalf("object %v survived reclamation", a)
			}
		}
	})
}

// A scatter list longer than the aggregation buffer's capacity is
// still one bulk transfer: the batch is never split at the buffer's
// flush threshold.
func TestReclaimBatchSizeDoesNotSplitTheBulk(t *testing.T) {
	const locales, perDest = 4, 1000
	if perDest <= comm.DefaultAggCapacity {
		t.Fatalf("perDest %d must exceed the aggregation capacity %d", perDest, comm.DefaultAggCapacity)
	}
	s := newTestSystem(t, locales, comm.BackendNone)
	payloads := pgas.NewSlab[payload](s)
	s.Run(func(c *pgas.Ctx) {
		em := NewEpochManager(c)
		tok := em.Register(c)
		tok.Pin(c)
		for l := 1; l < locales; l++ {
			for i := 0; i < perDest; i++ {
				tok.DeferDelete(c, payloads.AllocOn(c, l, &payload{v: i}))
			}
		}
		tok.Unpin(c)

		before := s.Counters().Snapshot()
		em.Clear(c)
		d := s.Counters().Snapshot().Sub(before)
		if d.BulkXfers != locales-1 || d.BulkBytes != (locales-1)*perDest*8 {
			t.Fatalf("Clear booked %d bulk transfers / %d B, want %d / %d (%v)",
				d.BulkXfers, d.BulkBytes, locales-1, (locales-1)*perDest*8, d)
		}
		if got := em.Stats(c).Reclaimed; got != (locales-1)*perDest {
			t.Fatalf("reclaimed = %d, want %d", got, (locales-1)*perDest)
		}
	})
}

// Faults never strand a deferred deletion: a bulk free crosses no
// admission, so a generation holding objects homed on a crashed
// locale and across a severed pair is freed in full, by the epoch
// advances and by Clear alike, and nothing is parked or lost.
func TestReclaimUnderFaults(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			const locales, perDest = 4, 20
			s := newTestSystem(t, locales, backend)
			payloads := pgas.NewSlab[payload](s)
			c := s.Ctx(0)
			em := NewEpochManager(c)
			// Two generations' worth of objects, allocated before the
			// faults: deferrers on locales 0 and 1, each batch reaching
			// every locale.
			var objs [2][]gas.Addr
			for g := range objs {
				for range 2 { // one batch per deferrer
					for dst := 0; dst < locales; dst++ {
						for i := 0; i < perDest; i++ {
							objs[g] = append(objs[g], payloads.AllocOn(c, dst, &payload{v: i}))
						}
					}
				}
			}
			deferGen := func(g int) {
				per := len(objs[g]) / 2
				for src := 0; src < 2; src++ {
					sc := s.Ctx(src)
					tok := em.Register(sc)
					tok.Pin(sc)
					for _, a := range objs[g][src*per : (src+1)*per] {
						tok.DeferDelete(sc, a)
					}
					tok.Unpin(sc)
					tok.Unregister(sc)
				}
			}
			deferGen(0)
			if err := s.Crash(3); err != nil {
				t.Fatal(err)
			}
			if err := s.Sever(1, 2); err != nil {
				t.Fatal(err)
			}
			before := s.Counters().Snapshot()

			// Three advances reclaim the first generation.
			for i := 0; i < 3; i++ {
				em.TryReclaim(c)
			}
			if st := em.Stats(c); st.Advances != 3 || st.Reclaimed != st.Deferred {
				t.Fatalf("after the advances: %+v, want 3 advances and deferred == reclaimed", st)
			}
			// A second generation, deferred under the faults, drained
			// by Clear.
			deferGen(1)
			em.Clear(c)

			st := em.Stats(c)
			if want := int64(len(objs[0]) + len(objs[1])); st.Deferred != want || st.Reclaimed != want {
				t.Fatalf("deferred = %d, reclaimed = %d, want both %d", st.Deferred, st.Reclaimed, want)
			}
			d := s.Counters().Snapshot().Sub(before)
			if d.OpsLost != 0 || d.OpsParked != 0 {
				t.Fatalf("reclamation lost %d / parked %d ops", d.OpsLost, d.OpsParked)
			}
			if h := s.HeapStats(); h.UAFFrees != 0 {
				t.Fatalf("uafFrees = %d, want 0", h.UAFFrees)
			}
			for _, a := range append(objs[0], objs[1]...) {
				if _, live := payloads.Load(c, a); live {
					t.Fatalf("object %v survived reclamation", a)
				}
			}
		})
	}
}
