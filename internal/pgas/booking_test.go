package pgas

import (
	"reflect"
	"sync"
	"testing"

	"gopgas/internal/comm"
)

// Every counted route, driven from every locale at once, books each
// event exactly once: the per-kind totals are exact, each matrix pair
// holds the sum of its kinds, Remote() == Matrix().Total(), and every
// CAS attempt and retry is counted. Each locale's task works on words
// and objects of its own, homed on itself and on its ring successor, so
// the expected books follow from the op list alone. A second, priced
// pass under the default profile books the same and is charged exactly
// its books' price (comm.Prices.Modelled): every route charges the
// price of the kind it books.
func TestEveryRouteBooksOnce(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			for _, lat := range []comm.LatencyProfile{comm.Zero(), comm.DefaultProfile()} {
				checkEveryRoute(t, backend, lat)
			}
		})
	}
}

// checkEveryRoute is TestEveryRouteBooksOnce's pass on one backend under
// one latency profile.
func checkEveryRoute(t *testing.T, backend comm.Backend, lat comm.LatencyProfile) {
	const n = 4
	s := NewSystem(Config{Locales: n, Backend: backend, Latency: lat})
	defer s.Shutdown()
	before, beforeM := s.Counters().SnapshotMatrix()
	modelled0, _, _ := s.DelayTotals()
	var wg sync.WaitGroup
	for l := 0; l < n; l++ {
		wg.Add(1)
		go func(c *Ctx) {
			defer wg.Done()
			driveEveryRoute(t, c, (c.Here()+1)%n)
		}(s.Ctx(l))
	}
	wg.Wait()
	s.Quiesce()

	// One task's books. A 64-bit op on a word: 8 per Word64
	// (Read, Write, Exchange, two CAS, Add, TestAndSet, Clear) and
	// 5 per Word128's low word; 7 full-width ops per Word128.
	const wordOps = 8 + 5
	per := comm.Snapshot{
		Puts: 1, Gets: 1,
		AMAMOs:  1, // ChargeAMAMO
		OnStmts: 4, // AllocOn, Free, On, AsyncOn
		// ChargeBulk, AllocBulkOn, FreeBulk, the aggregated flush.
		BulkXfers: 4, BulkBytes: 64 + 2*16 + 2*8 + 2*16,
		DCASLocal: 7, DCASRemote: 7,
		AggFlushes: 1, AggOps: 2, AggOpsEnq: 2, AggBytes: 2 * 16,
		// Per home: two CAS on the Word64, two DCAS and two
		// CASLo64 on the Word128, one of each pair failing.
		CASAttempts: 12, CASRetries: 6,
	}
	remotePair, ownPair := int64(1+1+1+4+4+7), int64(0) // GET, PUT, AM round trip, on, bulk, DCAS
	if backend == comm.BackendUGNI {
		per.NICAMOs = 2 * wordOps // the successor's words and, on the diagonal, its own
		remotePair += wordOps
		ownPair = wordOps
	} else {
		per.AMAMOs += wordOps
		per.LocalAMOs = wordOps
		remotePair += wordOps
	}
	var want comm.Snapshot
	for i, w := range fieldsOf(&per) {
		fieldsOf(&want)[i].SetInt(n * w.Int())
	}

	after, afterM := s.Counters().SnapshotMatrix()
	if got := after.Sub(before); got != want {
		t.Fatalf("books:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(afterM, s.Matrix().Snapshot()) {
		t.Fatalf("SnapshotMatrix pairs %v != Matrix().Snapshot() %v", afterM, s.Matrix().Snapshot())
	}
	var total int64
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			got := afterM[src][dst] - beforeM[src][dst]
			total += got
			var wantPair int64
			switch dst {
			case (src + 1) % n:
				wantPair = remotePair
			case src:
				wantPair = ownPair
			}
			if got != wantPair {
				t.Errorf("pair (%d, %d) = %d, want %d", src, dst, got, wantPair)
			}
		}
	}
	if r := want.Remote(); total != r || after.Remote() != s.Matrix().Total() {
		t.Fatalf("Σ pairs = %d, Remote() = %d; Remote() %d != Matrix().Total() %d",
			total, r, after.Remote(), s.Matrix().Total())
	}
	prices := lat.Prices()
	if modelled, _, _ := s.DelayTotals(); modelled-modelled0 != prices.Modelled(want) {
		t.Fatalf("%+v: modelled %d ns, want the books' price %d ns",
			lat, modelled-modelled0, prices.Modelled(want))
	}
}

// driveEveryRoute runs every counted route once from c, toward the
// remote locale r and, where the route has one, toward c's own locale.
func driveEveryRoute(t *testing.T, c *Ctx, r int) {
	for _, home := range []int{r, c.Here()} {
		w := NewWord64(c, home, 0)
		w.Read(c)
		w.Write(c, 1)
		w.Exchange(c, 2)
		if !w.CompareAndSwap(c, 2, 3) || w.CompareAndSwap(c, 2, 4) {
			t.Errorf("Word64 on %d: CAS outcomes wrong", home)
		}
		w.Add(c, 1)
		w.TestAndSet(c)
		w.Clear(c)

		u := NewWord128(c, home, 0, 0)
		u.Read(c)
		u.Write(c, 1, 1)
		u.Exchange(c, 2, 2)
		if !u.DCAS(c, 2, 2, 3, 3) || u.DCAS(c, 2, 2, 4, 4) {
			t.Errorf("Word128 on %d: DCAS outcomes wrong", home)
		}
		u.WriteLoBumpHi(c, 5)
		u.ExchangeLoBumpHi(c, 6)
		u.ReadLo64(c)
		u.WriteLo64(c, 7)
		u.ExchangeLo64(c, 8)
		if !u.CASLo64(c, 8, 9) || u.CASLo64(c, 8, 10) {
			t.Errorf("Word128 on %d: CASLo64 outcomes wrong", home)
		}

		c.On(home, func(*Ctx) {})
		c.AsyncOn(home, func(*Ctx) {})
		c.Aggregator(home).Call(func(*Ctx) {})
	}
	a := c.AllocOn(r, 1)
	if _, ok := c.Load(a); !ok || !c.Put(a, 2) || !c.Free(a) {
		t.Errorf("remote object on %d: load/put/free failed", r)
	}
	c.ChargeAMAMO(r)
	c.ChargeBulk(r, 64)
	if freed := c.FreeBulk(r, NewSlab[int](c.sys).AllocBulkOn(c, r, []*int{new(int), new(int)})); freed != 2 {
		t.Errorf("FreeBulk freed %d, want 2", freed)
	}
	c.Aggregator(r).Call(func(*Ctx) {})
	c.Flush()
}

// fieldsOf lists a Snapshot's counters by reflection.
func fieldsOf(s *comm.Snapshot) []reflect.Value {
	v := reflect.ValueOf(s).Elem()
	out := make([]reflect.Value, v.NumField())
	for i := range out {
		out[i] = v.Field(i)
	}
	return out
}
