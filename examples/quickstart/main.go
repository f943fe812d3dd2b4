// Quickstart: a five-minute tour of the library — boot a simulated
// multi-locale PGAS system, perform atomic operations on objects with
// and without ABA protection, and reclaim memory concurrently with an
// EpochManager, exactly along the lines of the paper's Listings 1–3.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

type record struct {
	Name  string
	Score int
}

func main() {
	// A 4-locale system with NIC atomics (the Cray "ugni" regime) and
	// the calibrated latency profile.
	sys := pgas.NewSystem(pgas.Config{
		Locales: 4,
		Backend: comm.BackendUGNI,
		Latency: comm.DefaultProfile(),
	})
	defer sys.Shutdown()

	sys.Run(func(c *pgas.Ctx) {
		fmt.Printf("booted %d locales, backend=%v\n\n", c.NumLocales(), sys.Backend())

		// --- AtomicObject: atomics on arbitrary objects ------------
		// Allocate two records on different locales and swap them
		// through an AtomicObject homed on locale 1.
		records := pgas.NewSlab[record](sys)
		alice := records.AllocOn(c, 2, &record{Name: "alice", Score: 1})
		bob := records.AllocOn(c, 3, &record{Name: "bob", Score: 2})

		cell := atomics.New(c, 1, atomics.Options{ABA: true})
		cell.Write(c, alice)

		got := cell.Read(c)
		fmt.Printf("cell holds %v (locale %d): %+v\n",
			got, got.Locale(), records.MustLoad(c, got))

		// Plain CAS — RDMA-able thanks to pointer compression.
		if cell.CompareAndSwap(c, alice, bob) {
			fmt.Printf("CAS alice -> bob succeeded\n")
		}

		// Stamped CAS — immune to address recycling.
		snapshot := cell.ReadABA(c)
		fmt.Printf("stamped read: %v\n", snapshot)
		if cell.CompareAndSwapABA(c, snapshot, alice) {
			fmt.Printf("CASABA bob -> alice succeeded (stamp bumped to %d)\n",
				cell.ReadABA(c).Count())
		}

		// --- EpochManager: concurrent-safe reclamation -------------
		// The Listing 3 pattern: a distributed forall where every task
		// registers its own token, defer-deletes objects, and the
		// manager reclaims them once quiescence is proven.
		em := epoch.NewEpochManager(c)

		const objects = 1000
		objs := make([]gas.Addr, objects)
		for i := range objs {
			objs[i] = records.AllocOn(c, i%c.NumLocales(), &record{Score: i})
		}

		pgas.ForallCyclic(c, objects, 2,
			func(tc *pgas.Ctx) *epoch.Token { return em.Register(tc) },
			func(tc *pgas.Ctx, tok *epoch.Token, i int) {
				tok.Pin(tc)
				tok.DeferDelete(tc, objs[i])
				tok.Unpin(tc)
				if i%256 == 0 {
					tok.TryReclaim(tc)
				}
			},
			func(tc *pgas.Ctx, tok *epoch.Token) { tok.Unregister(tc) },
		)
		em.Clear(c) // reclaim everything at once

		st := em.Stats(c)
		fmt.Printf("\nepoch manager: deferred=%d reclaimed=%d advances=%d\n",
			st.Deferred, st.Reclaimed, st.Advances)
		fmt.Printf("communication: %v\n", sys.Counters().Snapshot())
		fmt.Printf("heap:          %v\n", sys.HeapStats())
	})
}
