package bench

import (
	"sync"

	"gopgas/internal/core/atomics"
	"gopgas/internal/core/hazard"
	"gopgas/internal/pgas"
)

// AblationReclamation compares the paper's epoch-based reclamation
// against the PGAS-adapted Hazard Pointers baseline (Michael 2004,
// cited by the paper as shared-memory prior work) on an identical
// read-mostly churn workload: readers on every locale repeatedly
// dereference a shared cell homed on locale 0 while one writer swaps
// in fresh objects and retires the old ones.
//
// The structural difference under measurement: an EBR read is
// pin (local) + 1 cell read + deref; an HP read is
// publish + 2 cell reads (validate) + deref — one extra network
// operation per access when the cell is remote, against HP's tighter
// garbage bound.
func AblationReclamation(cfg Config) Figure {
	opsPerReader := cfg.ops(1 << 11)

	run := func(useHP bool) runFunc {
		return func(locales int) (Point, verdict) {
			return cfg.measure(machine{locales: locales}, func(tr *trial) {
				c0 := tr.c
				em := tr.epochs()
				dom := hazard.NewDomain(c0, 64)
				cell := atomics.New(c0, 0, atomics.Options{})
				type blob struct{ v int }
				cell.Write(c0, c0.Alloc(&blob{}))

				tr.timed(func() {
					var readers, writer sync.WaitGroup
					stop := make(chan struct{})
					for l := 0; l < locales; l++ {
						readers.Add(1)
						go func(l int) {
							defer readers.Done()
							c := tr.sys.Ctx(l)
							if useHP {
								s := dom.Acquire(c)
								defer dom.Release(c, s)
								for i := 0; i < opsPerReader; i++ {
									addr := s.Protect(c, cell)
									if !addr.IsNil() {
										pgas.MustDeref[*blob](c, addr)
									}
									s.Clear()
								}
								return
							}
							tok := em.Register(c)
							defer tok.Unregister(c)
							for i := 0; i < opsPerReader; i++ {
								tok.Pin(c)
								addr := cell.Read(c)
								if !addr.IsNil() {
									pgas.MustDeref[*blob](c, addr)
								}
								tok.Unpin(c)
							}
						}(l)
					}
					// Writer churns the cell for the duration.
					writer.Add(1)
					go func() {
						defer writer.Done()
						c := c0
						tok := em.Register(c)
						defer tok.Unregister(c)
						i := 0
						for {
							select {
							case <-stop:
								return
							default:
							}
							i++
							fresh := c.Alloc(&blob{v: i})
							old := cell.Exchange(c, fresh)
							if old.IsNil() {
								continue
							}
							if useHP {
								dom.Retire(c, old)
							} else {
								tok.Pin(c)
								tok.DeferDelete(c, old)
								tok.Unpin(c)
								if i%256 == 0 {
									tok.TryReclaim(c)
								}
							}
						}
					}()
					readers.Wait()
					close(stop)
					writer.Wait()
				})
				if useHP {
					dom.Drain(c0)
				}
			})
		}
	}

	return Figure{
		ID:      "A5",
		Title:   "Ablation: epoch-based reclamation vs hazard pointers",
		Caption: "Identical shared-cell churn under both schemes; HP pays a validating re-read per access (one extra network op when the cell is remote), EBR pays a locale-local pin.",
		Panels: []Panel{cfg.sweep("Shared-cell churn, readers on every locale (none backend)", "Locales", cfg.localeSweep(1),
			arm{"EpochManager (EBR)", "ablE ebr", run(false)},
			arm{"Hazard Pointers", "ablE hp", run(true)})},
	}
}
