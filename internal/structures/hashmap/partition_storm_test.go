package hashmap

import (
	"sync"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// TestPartitionFlapStorm is the retry plane's race-detector drill: a
// flapper goroutine severs and heals the pair (1, 2) every few hundred
// microseconds while every locale writes into the map through both
// refusable paths — synchronous Upserts (which block in parkSyncOn and
// retry across heal windows) and aggregated UpsertAggs (which park in
// the retry ledgers and redeliver at the next heal). The values are a
// pure function of the key, so redelivery order cannot change the
// final contents: after the last heal settles the ledgers, every key
// must read back exactly, the settlement identity must hold with zero
// expiries, and nothing may land in the fail-stop ledger.
func TestPartitionFlapStorm(t *testing.T) {
	const (
		locales     = 4
		keysPerPath = 300 // per locale, per write path
	)
	sys := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: comm.BackendNone,
		// A deadline far past the test plus generous capacity: every
		// parked op survives until a heal window redelivers it.
		Park: comm.ParkConfig{DeadlineNS: int64(time.Hour), Capacity: 1 << 16},
	})
	defer sys.Shutdown()

	value := func(k uint64) int64 { return int64(k)*3 + 1 }

	sys.Run(func(c *pgas.Ctx) {
		em := epoch.NewEpochManager(c)
		m := New[int64](c, 64, em)

		stop := make(chan struct{})
		var flapper sync.WaitGroup
		flapper.Add(1)
		go func() {
			defer flapper.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := sys.Sever(1, 2); err != nil {
					t.Errorf("sever: %v", err)
					return
				}
				time.Sleep(300 * time.Microsecond)
				if err := sys.Heal(1, 2); err != nil {
					t.Errorf("heal: %v", err)
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()

		c.CoforallLocales(func(lc *pgas.Ctx) {
			base := uint64(lc.Here()) * 2 * keysPerPath
			em.Protect(lc, func(tok *epoch.Token) {
				for i := uint64(0); i < keysPerPath; i++ {
					k := base + i
					m.Upsert(lc, tok, k, value(k))
				}
			})
			for i := uint64(0); i < keysPerPath; i++ {
				k := base + keysPerPath + i
				m.UpsertAgg(lc, k, value(k))
			}
			lc.Flush()
		})

		close(stop)
		flapper.Wait()
		// The flapper may have exited mid-window; a final heal settles any
		// ops still parked. "not severed" just means it exited healed.
		_ = sys.Heal(1, 2)
		sys.DrainParking()

		em.Protect(c, func(tok *epoch.Token) {
			for k := uint64(0); k < locales*2*keysPerPath; k++ {
				v, ok := m.Get(c, tok, k)
				if !ok || v != value(k) {
					t.Fatalf("key %d = (%d, %v), want (%d, true)", k, v, ok, value(k))
				}
			}
		})
	})

	if n := sys.ParkedOps(); n != 0 {
		t.Fatalf("%d ops still parked after the final heal", n)
	}
	snap := sys.Counters().Snapshot()
	if snap.OpsParked != snap.OpsRedelivered+snap.OpsExpired {
		t.Fatalf("retry books unsettled: parked=%d redelivered=%d expired=%d",
			snap.OpsParked, snap.OpsRedelivered, snap.OpsExpired)
	}
	if snap.OpsExpired != 0 {
		t.Fatalf("ops expired under an hour-long deadline: %d", snap.OpsExpired)
	}
	if snap.OpsLost != 0 {
		t.Fatalf("flapping leaked into the fail-stop ledger: opsLost=%d", snap.OpsLost)
	}
}
