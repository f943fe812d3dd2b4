package pgas

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"gopgas/internal/comm"
)

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// matrixDelta runs fn and returns what it added to every matrix cell.
func matrixDelta(s *System, fn func()) [][]int64 {
	before := s.Matrix().Snapshot()
	fn()
	after := s.Matrix().Snapshot()
	for i := range after {
		for j := range after[i] {
			after[i][j] -= before[i][j]
		}
	}
	return after
}

// A visit runs the body on every locale in id order, on the caller's
// goroutine, and books exactly what CoforallLocales books for the same
// body: its on-statements, matrix cells and modelled nanoseconds.
func TestVisitBooksLikeCoforall(t *testing.T) {
	const n = 4
	s := NewSystem(Config{Locales: n, Backend: comm.BackendNone, Latency: paceProfile})
	defer s.Shutdown()
	c := s.Ctx(1)
	body := func(tc *Ctx) {
		tc.ChargeGet((tc.Here() + 1) % n)
		tc.On((tc.Here()+2)%n, func(*Ctx) {})
	}
	type books struct {
		counters comm.Snapshot
		matrix   [][]int64
		modelled int64
	}
	measure := func(fanOut func(func(*Ctx))) books {
		var b books
		before := s.Counters().Snapshot()
		m0, _, _ := s.DelayTotals()
		b.matrix = matrixDelta(s, func() { fanOut(body) })
		b.counters = s.Counters().Snapshot().Sub(before)
		m1, _, _ := s.DelayTotals()
		b.modelled = m1 - m0
		return b
	}
	coforall := measure(c.CoforallLocales)

	caller := goid()
	var order []int
	visit := measure(func(fn func(*Ctx)) {
		c.VisitLocales(func(tc *Ctx) {
			if g := goid(); g != caller {
				t.Errorf("locale %d's body ran on goroutine %s, caller is %s", tc.Here(), g, caller)
			}
			order = append(order, tc.Here())
			fn(tc)
		})
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("visit order = %v, want 0..3", order)
	}
	if !reflect.DeepEqual(visit, coforall) {
		t.Fatalf("visit booked %+v\ncoforall booked %+v", visit, coforall)
	}
	// One per remote locale visited, one per body's On.
	if want := int64(n - 1 + n); visit.counters.OnStmts != want {
		t.Fatalf("visit booked %d on-statements, want %d", visit.counters.OnStmts, want)
	}
}

// The control plane must still reach a crashed locale: a visit is not
// refused, and books the dead locale's on-statement like any other.
func TestVisitReachesCrashedLocale(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	if err := s.Crash(2); err != nil {
		t.Fatal(err)
	}
	c := s.Ctx(0)
	before := s.Counters().Snapshot()
	var order []int
	c.VisitLocales(func(tc *Ctx) { order = append(order, tc.Here()) })
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("visit order with locale 2 down = %v, want 0..3", order)
	}
	if d := s.Counters().Snapshot().Sub(before); d.OnStmts != 3 || d.OpsLost != 0 {
		t.Fatalf("visit booked %d on-statements and %d lost ops, want 3 and 0", d.OnStmts, d.OpsLost)
	}
}

// Under the calibrated profile the caller waits once, for the longest
// body — one round trip plus the largest body charge — not for the sum
// of them, as it waited for the slowest of the coforall's parallel
// tasks. The caller's account is a tab here, so its wait reads exactly.
func TestVisitWaitsForTheMakespan(t *testing.T) {
	const n = 4
	lat := comm.DefaultProfile()
	s := NewSystem(Config{Locales: n, Backend: comm.BackendNone, Latency: lat})
	defer s.Shutdown()
	c := s.Ctx(0)
	var tab comm.Pacer
	tab.OpenTab()
	c.pace = &tab
	m0, _, _ := s.DelayTotals()
	// Locale l charges l+1 GETs toward its neighbour.
	c.VisitLocales(func(tc *Ctx) {
		for i := 0; i <= tc.Here(); i++ {
			tc.ChargeGet((tc.Here() + 1) % n)
		}
	})
	m1, _, _ := s.DelayTotals()
	price := lat.Prices().Event
	rt, get := price[comm.KindOnStmt], price[comm.KindGet]
	if want := rt + n*get; tab.Owed() != want {
		t.Fatalf("caller waited %dns, want one round trip plus the largest body, %dns", tab.Owed(), want)
	}
	if want := (n-1)*rt + n*(n+1)/2*get; m1-m0 != want {
		t.Fatalf("visit modelled %dns, want every charge once, %dns", m1-m0, want)
	}
}
