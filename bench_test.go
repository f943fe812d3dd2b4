package gopgas

// Top-level testing.B entry points, one per figure/panel of the
// paper's evaluation plus the ablation studies. Each benchmark runs
// the corresponding workload at a fixed representative configuration
// with b.N operations, under the calibrated latency profile, so
// `go test -bench=. -benchmem` gives per-operation costs whose
// *ratios* mirror the figures. The full sweeps (every locale count,
// every remote fraction, both backends) are produced by
// `go run ./cmd/benchrunner`.

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func benchSystem(b *testing.B, locales int, backend comm.Backend) *pgas.System {
	b.Helper()
	s := pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: backend,
		Latency: comm.DefaultProfile(),
		Seed:    42,
	})
	b.Cleanup(s.Shutdown)
	return s
}

// --- Figure 3, shared-memory panel -----------------------------------

func benchSharedMix(b *testing.B, useObj, aba bool) {
	s := benchSystem(b, 1, comm.BackendNone)
	c := s.Ctx(0)
	const cells = 64
	words := make([]*pgas.Word64, cells)
	objs := make([]*atomics.AtomicObject, cells)
	targets := make([]gas.Addr, cells)
	for i := 0; i < cells; i++ {
		words[i] = pgas.NewWord64(c, 0, 0)
		objs[i] = atomics.New(c, 0, atomics.Options{ABA: aba})
		targets[i] = c.Alloc(&struct{ x int }{x: i})
		objs[i].Write(c, targets[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := c.RandIntn(cells)
		kind := c.RandIntn(4)
		switch {
		case !useObj:
			switch kind {
			case 0:
				words[k].Read(c)
			case 1:
				words[k].Write(c, uint64(i))
			case 2:
				words[k].CompareAndSwap(c, uint64(i), uint64(i+1))
			default:
				words[k].Exchange(c, uint64(i))
			}
		case aba:
			switch kind {
			case 0:
				objs[k].ReadABA(c)
			case 1:
				objs[k].WriteABA(c, targets[k])
			case 2:
				cur := objs[k].ReadABA(c)
				objs[k].CompareAndSwapABA(c, cur, targets[k])
			default:
				objs[k].ExchangeABA(c, targets[k])
			}
		default:
			switch kind {
			case 0:
				objs[k].Read(c)
			case 1:
				objs[k].Write(c, targets[k])
			case 2:
				cur := objs[k].Read(c)
				objs[k].CompareAndSwap(c, cur, targets[k])
			default:
				objs[k].Exchange(c, targets[k])
			}
		}
	}
}

func BenchmarkFig3SharedMemoryAtomicInt(b *testing.B)       { benchSharedMix(b, false, false) }
func BenchmarkFig3SharedMemoryAtomicObject(b *testing.B)    { benchSharedMix(b, true, false) }
func BenchmarkFig3SharedMemoryAtomicObjectABA(b *testing.B) { benchSharedMix(b, true, true) }

// --- Figure 3, distributed panel --------------------------------------

func benchDistMix(b *testing.B, backend comm.Backend, useObj, aba bool) {
	const locales = 8
	s := benchSystem(b, locales, backend)
	c := s.Ctx(0)
	const cells = 64
	words := make([]*pgas.Word64, cells)
	objs := make([]*atomics.AtomicObject, cells)
	targets := make([]gas.Addr, cells)
	for i := 0; i < cells; i++ {
		home := i % locales
		words[i] = pgas.NewWord64(c, home, 0)
		objs[i] = atomics.New(c, home, atomics.Options{ABA: aba})
		targets[i] = c.AllocOn(home, &struct{ x int }{x: i})
		objs[i].Write(c, targets[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := c.RandIntn(cells)
		switch {
		case !useObj:
			words[k].CompareAndSwap(c, 0, 1)
		case aba:
			cur := objs[k].ReadABA(c)
			objs[k].CompareAndSwapABA(c, cur, targets[k])
		default:
			cur := objs[k].Read(c)
			objs[k].CompareAndSwap(c, cur, targets[k])
		}
	}
}

func BenchmarkFig3DistributedAtomicIntNone(b *testing.B) {
	benchDistMix(b, comm.BackendNone, false, false)
}
func BenchmarkFig3DistributedAtomicIntUGNI(b *testing.B) {
	benchDistMix(b, comm.BackendUGNI, false, false)
}
func BenchmarkFig3DistributedAtomicObjectNone(b *testing.B) {
	benchDistMix(b, comm.BackendNone, true, false)
}
func BenchmarkFig3DistributedAtomicObjectUGNI(b *testing.B) {
	benchDistMix(b, comm.BackendUGNI, true, false)
}
func BenchmarkFig3DistributedAtomicObjectABA(b *testing.B) {
	benchDistMix(b, comm.BackendNone, true, true)
}

// --- Figures 4–6: the Listing 5 deletion loop -------------------------

func benchDeletion(b *testing.B, backend comm.Backend, remotePct, reclaimEvery int) {
	const locales = 4
	s := benchSystem(b, locales, backend)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	tok := em.Register(c)
	objs := make([]gas.Addr, b.N)
	for i := range objs {
		target := 0
		if locales > 1 && c.RandIntn(100) < remotePct {
			target = 1 + c.RandIntn(locales-1)
		}
		objs[i] = c.AllocOn(target, &struct{ v int }{v: i})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Pin(c)
		tok.DeferDelete(c, objs[i])
		tok.Unpin(c)
		if reclaimEvery > 0 && (i+1)%reclaimEvery == 0 {
			tok.TryReclaim(c)
		}
	}
	em.Clear(c)
	b.StopTimer()
	tok.Unregister(c)
}

func BenchmarkFig4SparseReclaimNone(b *testing.B) { benchDeletion(b, comm.BackendNone, 50, 1024) }
func BenchmarkFig4SparseReclaimUGNI(b *testing.B) { benchDeletion(b, comm.BackendUGNI, 50, 1024) }
func BenchmarkFig5DenseReclaimNone(b *testing.B)  { benchDeletion(b, comm.BackendNone, 50, 1) }
func BenchmarkFig5DenseReclaimUGNI(b *testing.B)  { benchDeletion(b, comm.BackendUGNI, 50, 1) }
func BenchmarkFig6DeferredCleanupNone(b *testing.B) {
	benchDeletion(b, comm.BackendNone, 50, 0)
}
func BenchmarkFig6DeferredCleanupUGNI(b *testing.B) {
	benchDeletion(b, comm.BackendUGNI, 50, 0)
}
func BenchmarkFig6DeferredCleanup100PctRemote(b *testing.B) {
	benchDeletion(b, comm.BackendNone, 100, 0)
}
func BenchmarkFig6DeferredCleanup0PctRemote(b *testing.B) {
	benchDeletion(b, comm.BackendNone, 0, 0)
}

// --- Figure 7: read-only pin/unpin ------------------------------------

func benchPinUnpin(b *testing.B, backend comm.Backend, locales int) {
	s := benchSystem(b, locales, backend)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	tok := em.Register(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Pin(c)
		tok.Unpin(c)
	}
	b.StopTimer()
	tok.Unregister(c)
}

func BenchmarkFig7PinUnpinNone(b *testing.B)      { benchPinUnpin(b, comm.BackendNone, 4) }
func BenchmarkFig7PinUnpinUGNI(b *testing.B)      { benchPinUnpin(b, comm.BackendUGNI, 4) }
func BenchmarkFig7PinUnpin64Locales(b *testing.B) { benchPinUnpin(b, comm.BackendNone, 64) }

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationCompressionVsDCAS measures the same CAS under the
// compressed (NIC) and wide (DCAS remote-execution) representations.
func benchRepCAS(b *testing.B, mode atomics.Mode) {
	const locales = 4
	s := benchSystem(b, locales, comm.BackendUGNI)
	c := s.Ctx(0)
	opt := atomics.Options{Mode: mode}
	if mode == atomics.ModeDescriptor {
		opt.Table = atomics.NewDescriptorTable(c)
	}
	cell := atomics.New(c, 1, opt)
	target := c.AllocOn(1, &struct{ x int }{})
	cell.Write(c, target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := cell.Read(c)
		cell.CompareAndSwap(c, cur, target)
	}
}

func BenchmarkAblationCompressionVsDCASCompressed(b *testing.B) {
	benchRepCAS(b, atomics.ModeCompressed)
}
func BenchmarkAblationCompressionVsDCASWide(b *testing.B) {
	benchRepCAS(b, atomics.ModeWide)
}
func BenchmarkAblationDescriptorTable(b *testing.B) {
	benchRepCAS(b, atomics.ModeDescriptor)
}

// BenchmarkAblationPrivatization contrasts the privatized pin (local
// cache read) with a simulated unprivatized pin (remote epoch read).
func BenchmarkAblationPrivatizationPrivatized(b *testing.B) {
	benchPinUnpin(b, comm.BackendNone, 8)
}

func BenchmarkAblationPrivatizationNaive(b *testing.B) {
	s := benchSystem(b, 8, comm.BackendNone)
	c := s.Ctx(1) // a locale away from the global epoch's home
	global := pgas.NewWord64(c, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		global.Read(c) // what every pin would cost without privatization
	}
}

// BenchmarkAblationScatterList contrasts bulk scatter frees with
// per-object remote frees.
func BenchmarkAblationScatterListBulk(b *testing.B) {
	s := benchSystem(b, 4, comm.BackendNone)
	c := s.Ctx(0)
	addrs := make([]gas.Addr, b.N)
	for i := range addrs {
		addrs[i] = c.AllocOn(1, &struct{ v int }{})
	}
	b.ResetTimer()
	c.FreeBulk(1, addrs)
}

func BenchmarkAblationScatterListRPC(b *testing.B) {
	s := benchSystem(b, 4, comm.BackendNone)
	c := s.Ctx(0)
	addrs := make([]gas.Addr, b.N)
	for i := range addrs {
		addrs[i] = c.AllocOn(1, &struct{ v int }{})
	}
	b.ResetTimer()
	for _, a := range addrs {
		c.Free(a)
	}
}

// BenchmarkAblationLimboPush contrasts the wait-free exchange push
// with a CAS-loop push over identical preallocated nodes (the fair
// mechanism-only comparison, matching ablation A4; single task, so the
// CAS loop never retries here — the full contention sweep is
// `benchrunner -figure ablations`). BenchmarkAblationLimboDeferDelete
// measures the complete DeferDelete path including node recycling.
func BenchmarkAblationLimboPushExchange(b *testing.B) {
	s := benchSystem(b, 1, comm.BackendNone)
	c := s.Ctx(0)
	head := atomics.NewLocal(0, false)
	type pushNode struct{ next gas.Addr }
	addrs := make([]gas.Addr, b.N)
	for i := range addrs {
		addrs[i] = c.Alloc(&pushNode{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := pgas.MustDeref[*pushNode](c, addrs[i])
		old := head.Exchange(addrs[i])
		n.next = old
	}
}

func BenchmarkAblationLimboPushCASLoop(b *testing.B) {
	s := benchSystem(b, 1, comm.BackendNone)
	c := s.Ctx(0)
	head := atomics.NewLocal(0, true)
	type pushNode struct{ next gas.Addr }
	addrs := make([]gas.Addr, b.N)
	for i := range addrs {
		addrs[i] = c.Alloc(&pushNode{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := pgas.MustDeref[*pushNode](c, addrs[i])
		for {
			top := head.ReadABA()
			n.next = top.Object()
			if head.CompareAndSwapABA(top, addrs[i]) {
				break
			}
		}
	}
}

func BenchmarkAblationLimboDeferDelete(b *testing.B) {
	s := benchSystem(b, 1, comm.BackendNone)
	c := s.Ctx(0)
	em := epoch.NewEpochManager(c)
	tok := em.Register(c)
	tok.Pin(c)
	addrs := make([]gas.Addr, b.N)
	for i := range addrs {
		addrs[i] = c.Alloc(&struct{ v int }{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.DeferDelete(c, addrs[i])
	}
	b.StopTimer()
	tok.Unpin(c)
	em.Clear(c)
}
