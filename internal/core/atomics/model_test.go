package atomics

import (
	"testing"
	"testing/quick"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// Model-based property test: a random single-task sequence of mixed
// normal and ABA operations against one AtomicObject must agree with a
// trivial reference model (a value plus a stamp that counts ABA-aware
// mutations) — across every representation and both backends.
func TestAtomicObjectModelConformance(t *testing.T) {
	backends := []comm.Backend{comm.BackendNone, comm.BackendUGNI}
	for _, backend := range backends {
		t.Run(backend.String(), func(t *testing.T) {
			s := pgas.NewSystem(pgas.Config{Locales: 3, Backend: backend})
			defer s.Shutdown()
			nodes := pgas.NewSlab[node](s)
			c := s.Ctx(0)

			// A pool of candidate addresses on various locales.
			pool := make([]gas.Addr, 8)
			for i := range pool {
				pool[i] = nodes.AllocOn(c, i%3, &node{v: i})
			}
			pick := func(x uint8) gas.Addr {
				if x%9 == 8 {
					return gas.AddrNil
				}
				return pool[x%8]
			}

			f := func(home uint8, ops []uint8) bool {
				a := New(c, int(home%3), Options{ABA: true})
				var modelVal gas.Addr
				var modelStamp uint64

				for i := 0; i < len(ops)-1; i += 2 {
					op, arg := ops[i], ops[i+1]
					target := pick(arg)
					switch op % 8 {
					case 0:
						if a.Read(c) != modelVal {
							return false
						}
					case 1:
						a.Write(c, target)
						modelVal = target
					case 2:
						old := a.Exchange(c, target)
						if old != modelVal {
							return false
						}
						modelVal = target
					case 3:
						expectOK := modelVal == pool[arg%8]
						ok := a.CompareAndSwap(c, pool[arg%8], target)
						if ok != expectOK {
							return false
						}
						if ok {
							modelVal = target
						}
					case 4:
						r := a.ReadABA(c)
						if r.Object() != modelVal || r.Count() != modelStamp {
							return false
						}
					case 5:
						a.WriteABA(c, target)
						modelVal = target
						modelStamp++
					case 6:
						old := a.ExchangeABA(c, target)
						if old.Object() != modelVal || old.Count() != modelStamp {
							return false
						}
						modelVal = target
						modelStamp++
					case 7:
						snap := ABA{addr: pool[arg%8], count: modelStamp}
						expectOK := modelVal == pool[arg%8]
						ok := a.CompareAndSwapABA(c, snap, target)
						if ok != expectOK {
							return false
						}
						if ok {
							modelVal = target
							modelStamp++
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The same model over the plain (non-ABA) representations, including
// wide mode and descriptors.
func TestAtomicObjectModelAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeCompressed, ModeWide, ModeDescriptor} {
		t.Run(mode.String(), func(t *testing.T) {
			s := pgas.NewSystem(pgas.Config{Locales: 2})
			defer s.Shutdown()
			nodes := pgas.NewSlab[node](s)
			c := s.Ctx(0)
			opt := Options{Mode: mode}
			if mode == ModeDescriptor {
				opt.Table = NewDescriptorTable(c)
			}
			pool := make([]gas.Addr, 6)
			for i := range pool {
				pool[i] = nodes.AllocOn(c, i%2, &node{v: i})
			}

			f := func(ops []uint8) bool {
				a := New(c, 1, opt)
				var model gas.Addr
				for i := 0; i < len(ops)-1; i += 2 {
					op, arg := ops[i], ops[i+1]
					target := pool[arg%6]
					switch op % 4 {
					case 0:
						if a.Read(c) != model {
							return false
						}
					case 1:
						a.Write(c, target)
						model = target
					case 2:
						if old := a.Exchange(c, target); old != model {
							return false
						}
						model = target
					case 3:
						expectOK := model == pool[arg%6]
						if ok := a.CompareAndSwap(c, pool[arg%6], target); ok != expectOK {
							return false
						}
						if expectOK {
							model = target
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
