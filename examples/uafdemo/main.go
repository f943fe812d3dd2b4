// uafdemo: the paper's safety argument, made visible. The same
// reader/writer workload runs twice over a shared object slot:
//
//  1. with eager frees — the writer frees the old object as soon as it
//     swaps in a new one. Readers holding the old reference hit freed
//     (poisoned) slots: the use-after-free the gas heap detects is the
//     undefined behaviour a real system would suffer;
//  2. with the EpochManager — the writer defer-deletes instead, and
//     reclamation waits for proven quiescence. Zero UAFs, while memory
//     still gets reclaimed.
//
// Run with:
//
//	go run ./examples/uafdemo [-iters N]
package main

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

type blob struct{ payload [8]int64 }

func main() {
	iters := flag.Int("iters", 30000, "writer iterations")
	flag.Parse()

	fmt.Println("=== round 1: eager free (no reclamation protection) ===")
	uafs := run(*iters, false)
	fmt.Printf("detected use-after-free loads: %d  %s\n\n", uafs,
		verdict(uafs > 0, "← the bug EBR exists to prevent", "(timing-dependent; rerun to observe)"))

	fmt.Println("=== round 2: EpochManager (epoch-based reclamation) ===")
	uafs = run(*iters, true)
	fmt.Printf("detected use-after-free loads: %d  %s\n", uafs,
		verdict(uafs == 0, "← safe: reclamation deferred past quiescence", "UNEXPECTED"))
	if uafs != 0 {
		panic("EBR failed to prevent use-after-free")
	}
}

func verdict(ok bool, good, bad string) string {
	if ok {
		return good
	}
	return bad
}

func run(iters int, useEBR bool) int64 {
	sys := pgas.NewSystem(pgas.Config{Locales: 2, Backend: comm.BackendNone})
	defer sys.Shutdown()
	c0 := sys.Ctx(0)

	var em epoch.EpochManager
	if useEBR {
		em = epoch.NewEpochManager(c0)
	}

	blobs := pgas.NewSlab[blob](sys)
	var current atomic.Uint64 // the shared slot (a gas.Addr)
	current.Store(uint64(blobs.AllocOn(c0, 0, &blob{})))

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: dereference whatever the slot holds.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := sys.Ctx(r % 2)
			var tok *epoch.Token
			if useEBR {
				tok = em.Register(c)
				defer tok.Unregister(c)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if useEBR {
					tok.Pin(c)
				}
				addr := gas.Addr(current.Load())
				// Under EBR this deref is guaranteed safe; without it,
				// the slot may have been freed underneath us.
				if b, ok := blobs.Load(c, addr); ok {
					_ = b.payload[0]
				}
				if useEBR {
					tok.Unpin(c)
				}
			}
		}(r)
	}

	// Writer: replace the object every iteration.
	func() {
		c := c0
		var tok *epoch.Token
		if useEBR {
			tok = em.Register(c)
			defer tok.Unregister(c)
		}
		for i := 0; i < iters; i++ {
			fresh := blobs.AllocOn(c, c.Here(), &blob{})
			old := gas.Addr(current.Swap(uint64(fresh)))
			if useEBR {
				tok.Pin(c)
				tok.DeferDelete(c, old) // logical removal; free deferred
				tok.Unpin(c)
				if i%1024 == 0 {
					tok.TryReclaim(c)
				}
			} else {
				c.Free(old) // eager free: unsafe under concurrency
			}
		}
	}()
	close(stop)
	wg.Wait()

	if useEBR {
		em.Clear(c0)
		st := em.Stats(c0)
		fmt.Printf("reclaimed %d of %d deferred objects across %d epoch advances\n",
			st.Reclaimed, st.Deferred, st.Advances)
	}
	return sys.HeapStats().UAFLoads
}
