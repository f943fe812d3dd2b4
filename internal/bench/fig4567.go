package bench

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Figures 4–7: EpochManager scalability, the paper's Listing 5
// microbenchmark under four regimes:
//
//	Fig 4 — deletion with tryReclaim once per 1024 iterations (sparse)
//	Fig 5 — deletion with tryReclaim every iteration (dense)
//	Fig 6 — deletion with reclamation only at the end (clear)
//	Fig 7 — read-only pin/unpin, no deletion at all
//
// Figures 4–6 have three panels varying the fraction of *remote*
// objects (allocated on a different locale than the task that
// defer-deletes them): 0%, 50%, 100%. Every panel compares the two
// network-atomic backends.

type workerState struct{ v int }

// buildObjs allocates n objects cyclically: iteration i is executed on
// locale i % L, and its object is placed on that locale (local) or a
// uniformly random *other* locale (remote) according to remotePct.
func buildObjs(c *pgas.Ctx, n int, remotePct int) []gas.Addr {
	L := c.NumLocales()
	objs := make([]gas.Addr, n)
	for i := range objs {
		owner := i % L
		target := owner
		if L > 1 && c.RandIntn(100) < remotePct {
			target = c.RandIntn(L - 1)
			if target >= owner {
				target++
			}
		}
		objs[i] = c.AllocOn(target, &workerState{v: i})
	}
	return objs
}

// runDeletion executes the Listing 5 loop: forall over the objects
// with a task-private token; pin, deferDelete, unpin, and tryReclaim
// every reclaimEvery iterations (0 disables in-loop reclamation). The
// final manager.Clear() is part of the timed region, as in Listing 5.
func (cfg Config) runDeletion(locales, numObjects, remotePct, reclaimEvery int, backend comm.Backend) (Point, verdict) {
	return cfg.measure(machine{locales: locales, backend: backend}, func(tr *trial) {
		c := tr.c
		em := tr.epochs()
		objs := buildObjs(c, numObjects, remotePct)
		type taskPriv struct {
			tok *epoch.Token
			m   int
		}
		tr.timed(func() {
			pgas.ForallCyclic(c, numObjects, cfg.TasksPerLocale,
				func(tc *pgas.Ctx) *taskPriv {
					return &taskPriv{tok: em.Register(tc)}
				},
				func(tc *pgas.Ctx, p *taskPriv, i int) {
					p.tok.Pin(tc)
					p.tok.DeferDelete(tc, objs[i])
					p.tok.Unpin(tc)
					p.m++
					if reclaimEvery > 0 && p.m%reclaimEvery == 0 {
						p.tok.TryReclaim(tc)
					}
				},
				func(tc *pgas.Ctx, p *taskPriv) { p.tok.Unregister(tc) },
			)
			em.Clear(c) // reclaim everything at the end
		})
		if st := em.Stats(c); st.Reclaimed != int64(numObjects) {
			panic(fmt.Sprintf("bench: reclaimed %d of %d objects", st.Reclaimed, numObjects))
		}
	})
}

// runPinUnpin executes the Figure 7 read-only loop.
func (cfg Config) runPinUnpin(locales, iters int, backend comm.Backend) (Point, verdict) {
	return cfg.measure(machine{locales: locales, backend: backend}, func(tr *trial) {
		em := epoch.NewEpochManager(tr.c)
		tr.timed(func() {
			pgas.ForallCyclic(tr.c, iters, cfg.TasksPerLocale,
				func(tc *pgas.Ctx) *epoch.Token { return em.Register(tc) },
				func(tc *pgas.Ctx, tok *epoch.Token, i int) {
					tok.Pin(tc)
					tok.Unpin(tc)
				},
				func(tc *pgas.Ctx, tok *epoch.Token) { tok.Unregister(tc) },
			)
		})
	})
}

// deletionFigure builds one of Figures 4–6.
func (cfg Config) deletionFigure(id, title string, reclaimEvery int) Figure {
	numObjects := cfg.ops(1 << 14)
	fig := Figure{
		ID:    id,
		Title: title,
		Caption: fmt.Sprintf("Listing 5 deletion loop over %d cyclically distributed objects, %d tasks per locale; reclaim cadence: %s.",
			numObjects, cfg.TasksPerLocale, cadence(reclaimEvery)),
	}
	for _, remotePct := range []int{0, 50, 100} {
		var arms []arm
		for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
			arms = append(arms, arm{backend.String(), fmt.Sprintf("fig%s %3d%% remote %s", id, remotePct, backend),
				func(locales int) (Point, verdict) {
					return cfg.runDeletion(locales, numObjects, remotePct, reclaimEvery, backend)
				}})
		}
		fig.Panels = append(fig.Panels,
			cfg.sweep(fmt.Sprintf("%d%% Remote Objects", remotePct), "Locales", cfg.localeSweep(2), arms...))
	}
	return fig
}

func cadence(every int) string {
	switch {
	case every == 1:
		return "every iteration (dense)"
	case every > 1:
		return fmt.Sprintf("every %d iterations (sparse)", every)
	default:
		return "only at the end (clear)"
	}
}

// Figure4 regenerates "Pin-Unpin w/ Sparse tryReclaim" (per 1024).
func Figure4(cfg Config) Figure {
	return cfg.deletionFigure("4", "Deletion with tryReclaim called once per 1024 iterations", 1024)
}

// Figure5 regenerates "Pin-Unpin w/ Dense tryReclaim" (every iteration).
func Figure5(cfg Config) Figure {
	return cfg.deletionFigure("5", "Deletion with tryReclaim called every iteration", 1)
}

// Figure6 regenerates "Pin-Unpin w/ Deletion + Cleanup" (reclaim at end).
func Figure6(cfg Config) Figure {
	return cfg.deletionFigure("6", "Deletion with reclamation only performed at end", 0)
}

// Figure7 regenerates the read-only pin/unpin workload.
func Figure7(cfg Config) Figure {
	iters := cfg.ops(1 << 16)
	var arms []arm
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		arms = append(arms, arm{backend.String(), "fig7 " + backend.String(), func(locales int) (Point, verdict) {
			return cfg.runPinUnpin(locales, iters, backend)
		}})
	}
	return Figure{
		ID:      "7",
		Title:   "Read-only workload without deletion",
		Caption: fmt.Sprintf("Pin/unpin loop over %d iterations; privatization keeps the loop communication-free, so curves stay flat.", iters),
		Panels:  []Panel{cfg.sweep("Pin-Unpin", "Locales", cfg.localeSweep(1), arms...)},
	}
}
