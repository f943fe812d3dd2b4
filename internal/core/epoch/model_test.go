package epoch

import (
	"testing"
	"testing/quick"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Model-based test: a single-threaded random sequence of
// pin/defer/unpin/tryReclaim calls is checked against a reference
// model that predicts, in absolute advance counts, *exactly* when each
// deferred object must be freed — the advance that reclaims the
// generation it was deferred under. The implementation must free each
// object at precisely that advance: never earlier (safety), never
// later (no leak).
func TestEpochModelConformance(t *testing.T) {
	s := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer s.Shutdown()
	payloads := pgas.NewSlab[payload](s)
	c := s.Ctx(0)

	f := func(ops []uint8) bool {
		em := NewEpochManager(c)
		tok := em.Register(c)
		type deferred struct {
			addr     gas.Addr
			deadline int // absolute advance count at which it dies
		}
		var objs []deferred
		modelEpoch := uint64(firstEpoch)
		advances := 0

		checkAll := func() bool {
			kept := objs[:0]
			for _, d := range objs {
				_, live := payloads.Load(c, d.addr)
				dead := advances >= d.deadline
				if live == dead {
					return false
				}
				// Once verified dead, drop the record: the heap's LIFO
				// free list may hand the same address to a later
				// allocation (the ABA-enabling reuse the paper builds
				// on), which would alias this stale entry.
				if live {
					kept = append(kept, d)
				}
			}
			objs = kept
			return true
		}

		for _, op := range ops {
			switch op % 4 {
			case 0:
				tok.Pin(c)
			case 1:
				tok.Unpin(c)
			case 2:
				if tok.Pinned() {
					a := payloads.AllocOn(c, c.Here(), &payload{})
					tok.DeferDelete(c, a)
					// Deferral goes to the locale's *current* epoch
					// (== modelEpoch here), and the object dies exactly
					// three advances later.
					objs = append(objs, deferred{
						addr:     a,
						deadline: advances + 3,
					})
				}
			case 3:
				wasPinned := tok.Pinned()
				pinnedEpoch := tok.Epoch()
				em.TryReclaim(c)
				// Model: the advance succeeds iff the token was
				// quiescent or already in the current epoch.
				if !wasPinned || pinnedEpoch == modelEpoch {
					modelEpoch = nextEpoch(modelEpoch)
					advances++
				}
				if em.readGlobal(c) != modelEpoch {
					return false
				}
			}
			if !checkAll() {
				return false
			}
		}
		// Cleanup so heaps don't accumulate across quick iterations.
		tok.Unpin(c)
		tok.Unregister(c)
		em.Clear(c)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
