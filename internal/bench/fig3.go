package bench

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Figure 3: "AtomicObject vs atomic int". Strong scaling of a mixed
// atomic workload — 25% read, 25% write, 25% compare-and-swap, 25%
// exchange — against an array of cells, in two panels:
//
//   - Shared memory: one locale, 1..32 tasks, comparing Chapel's
//     atomic int (Word64) with AtomicObject with and without ABA.
//   - Distributed memory: 1..64 locales, cells distributed
//     cyclically and targets drawn uniformly (so ≈(L−1)/L of the
//     operations are remote), comparing atomic int and AtomicObject
//     under both network-atomic backends plus AtomicObject (ABA),
//     whose full-width operations never use the NIC.

const fig3Cells = 256

// atomicVariant abstracts "one mixed op against cell i" for each
// compared implementation.
type atomicVariant interface {
	name() string
	setup(c *pgas.Ctx, locales int)
	op(c *pgas.Ctx, cell int, kind int)
}

// intVariant is Chapel's `atomic int`: an array of network words.
type intVariant struct {
	label string
	cells []*pgas.Word64
}

func (v *intVariant) name() string { return v.label }

func (v *intVariant) setup(c *pgas.Ctx, locales int) {
	v.cells = make([]*pgas.Word64, fig3Cells)
	for i := range v.cells {
		v.cells[i] = pgas.NewWord64(c, i%locales, 0)
	}
}

func (v *intVariant) op(c *pgas.Ctx, cell int, kind int) {
	w := v.cells[cell]
	switch kind {
	case 0:
		w.Read(c)
	case 1:
		w.Write(c, uint64(cell))
	case 2:
		w.CompareAndSwap(c, uint64(cell), uint64(cell+1))
	default:
		w.Exchange(c, uint64(cell))
	}
}

// objVariant is AtomicObject, optionally with ABA-stamped operations.
type objVariant struct {
	label string
	aba   bool
	cells []*atomics.AtomicObject
	objs  []gas.Addr // two preallocated targets per cell's home locale
}

func (v *objVariant) name() string { return v.label }

func (v *objVariant) setup(c *pgas.Ctx, locales int) {
	v.cells = make([]*atomics.AtomicObject, fig3Cells)
	v.objs = make([]gas.Addr, 2*fig3Cells)
	type blob struct{ x int }
	for i := range v.cells {
		home := i % locales
		v.cells[i] = atomics.New(c, home, atomics.Options{ABA: v.aba})
		v.objs[2*i] = c.AllocOn(home, &blob{x: i})
		v.objs[2*i+1] = c.AllocOn(home, &blob{x: -i})
		v.cells[i].Write(c, v.objs[2*i])
	}
}

func (v *objVariant) op(c *pgas.Ctx, cell int, kind int) {
	w := v.cells[cell]
	a, b := v.objs[2*cell], v.objs[2*cell+1]
	if v.aba {
		switch kind {
		case 0:
			w.ReadABA(c)
		case 1:
			w.WriteABA(c, a)
		case 2:
			cur := w.ReadABA(c)
			w.CompareAndSwapABA(c, cur, b)
		default:
			w.ExchangeABA(c, a)
		}
		return
	}
	switch kind {
	case 0:
		w.Read(c)
	case 1:
		w.Write(c, a)
	case 2:
		cur := w.Read(c)
		w.CompareAndSwap(c, cur, b)
	default:
		w.Exchange(c, a)
	}
}

// atomicMix executes totalOps mixed operations on v's cells, split
// across the system's locales and tasks.
func (cfg Config) atomicMix(v atomicVariant, backend comm.Backend, totalOps, locales, tasksPerLocale int) (Point, verdict) {
	return cfg.measure(machine{locales: locales, backend: backend}, func(tr *trial) {
		v.setup(tr.c, locales)
		tr.timed(func() {
			pgas.ForallCyclic(tr.c, totalOps, tasksPerLocale, nil,
				func(tc *pgas.Ctx, _ struct{}, i int) {
					v.op(tc, tc.RandIntn(fig3Cells), tc.RandIntn(4))
				}, nil)
		})
	})
}

// Figure3 regenerates both panels of Figure 3.
func Figure3(cfg Config) Figure {
	sharedOps := cfg.ops(1 << 17)
	distOps := cfg.ops(1 << 14)

	var shared []arm
	for _, v := range []atomicVariant{
		&intVariant{label: "atomic int"},
		&objVariant{label: "AtomicObject (ABA)", aba: true},
		&objVariant{label: "AtomicObject"},
	} {
		shared = append(shared, arm{v.name(), "fig3 shared " + v.name(), func(tasks int) (Point, verdict) {
			return cfg.atomicMix(v, comm.BackendNone, sharedOps, 1, tasks)
		}})
	}

	var dist []arm
	for _, r := range []struct {
		variant atomicVariant
		backend comm.Backend
	}{
		{&intVariant{label: "atomic int (none)"}, comm.BackendNone},
		{&intVariant{label: "atomic int (ugni)"}, comm.BackendUGNI},
		{&objVariant{label: "AtomicObject (ABA)", aba: true}, comm.BackendNone},
		{&objVariant{label: "AtomicObject (none)"}, comm.BackendNone},
		{&objVariant{label: "AtomicObject (ugni)"}, comm.BackendUGNI},
	} {
		dist = append(dist, arm{r.variant.name(), "fig3 dist   " + r.variant.name(), func(locales int) (Point, verdict) {
			return cfg.atomicMix(r.variant, r.backend, distOps, locales, cfg.TasksPerLocale)
		}})
	}

	return Figure{
		ID:    "3",
		Title: "AtomicObject vs atomic int",
		Caption: fmt.Sprintf(
			"Strong scaling of a 25/25/25/25 read/write/CAS/exchange mix over %d cells; shared panel %d ops, distributed panel %d ops.",
			fig3Cells, sharedOps, distOps),
		Panels: []Panel{
			cfg.sweep("Shared Memory", "Tasks", cfg.taskSweep(), shared...),
			cfg.sweep("Distributed Memory", "Locales", cfg.localeSweep(1), dist...),
		},
	}
}
