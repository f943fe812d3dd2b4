package pgas

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
)

// TestAdmitBooksEachRefusalOnce drives one op from locale 0 toward
// locale 1 through every surface that crosses admit, under every kind
// of refusal, from a plain and from a salvage context, and asserts the
// whole ledger afterwards: each refused op is on exactly one book,
// exactly once; an exempt op (salvage context) is on none and runs; a
// dropped op charged no on-statement and no matrix entry beyond the
// flush that carried it. A remote free (Ctx.FreeBulk) rides along as
// the memory plane's witness: it never crosses admit, so under every
// fault it is on no book and frees.
func TestAdmitBooksEachRefusalOnce(t *testing.T) {
	type books struct{ lost, parked, redelivered, expired int64 }

	// issue sends the op and returns once it has been handed to the
	// runtime; flights is the number of matrix entries the surface pays
	// before admission (an aggregated op's flush flies either way).
	surfaces := []struct {
		name    string
		free    bool
		flights int64
		issue   func(c *Ctx, body func(*Ctx))
	}{
		{name: "sync-on", issue: func(c *Ctx, body func(*Ctx)) { c.On(1, body) }},
		{name: "async-on", issue: func(c *Ctx, body func(*Ctx)) { c.AsyncOn(1, body) }},
		{name: "agg-call", flights: 1, issue: func(c *Ctx, body func(*Ctx)) {
			c.Aggregator(1).Call(body)
			c.Aggregator(1).Flush()
		}},
		{name: "free-bulk", free: true},
	}

	// inject installs the fault; heals says a concurrent healer repairs
	// the pair once the op has parked; refused is the ledger a refusable
	// op from a plain context must end on.
	faults := []struct {
		name    string
		park    comm.ParkConfig
		inject  func(s *System) error
		heals   bool
		refused books
	}{
		{name: "crashed", inject: func(s *System) error { return s.Crash(1) },
			refused: books{lost: 1}},
		{name: "severed-healed", inject: func(s *System) error { return s.Sever(0, 1) }, heals: true,
			refused: books{parked: 1, redelivered: 1}},
		{name: "severed-expired", park: comm.ParkConfig{DeadlineNS: int64(time.Millisecond)},
			inject:  func(s *System) error { return s.Sever(0, 1) },
			refused: books{parked: 1, expired: 1}},
		{name: "severed-retry-off", park: comm.ParkConfig{Disable: true},
			inject:  func(s *System) error { return s.Sever(0, 1) },
			refused: books{lost: 1}},
	}

	for _, sf := range surfaces {
		for _, f := range faults {
			for _, salvage := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/salvage=%v", sf.name, f.name, salvage), func(t *testing.T) {
					s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, Park: f.park})
					defer s.Shutdown()
					exempt := salvage || sf.free
					want := f.refused
					if exempt {
						want = books{}
					}
					var wantRuns int64
					if exempt || f.heals {
						wantRuns = 1
					}

					var ran atomic.Int64
					var before comm.Snapshot
					var flightsBefore int64
					s.Run(func(c *Ctx) {
						issue := func(ic *Ctx) { sf.issue(ic, func(*Ctx) { ran.Add(1) }) }
						if sf.free {
							addr := c.AllocOn(1, &struct{ v int }{})
							issue = func(ic *Ctx) {
								ran.Add(int64(ic.FreeBulk(1, []gas.Addr{addr})))
							}
						}
						if err := f.inject(s); err != nil {
							t.Fatalf("inject: %v", err)
						}
						before = s.Counters().Snapshot()
						flightsBefore = s.Matrix().Get(0, 1)

						ic := c
						if salvage {
							ic = c.Salvage()
						}
						// The healer waits on the event, not a clock: the op
						// has parked, or (exempt ops never park) been issued.
						var issued atomic.Bool
						healed := make(chan struct{})
						go func() {
							defer close(healed)
							if !f.heals {
								return
							}
							for s.Counters().Snapshot().OpsParked == 0 && !issued.Load() {
								runtime.Gosched()
							}
							if err := s.Heal(0, 1); err != nil {
								t.Errorf("heal: %v", err)
							}
						}()
						issue(ic)
						issued.Store(true)
						<-healed
					})
					s.DrainParking()

					d := s.Counters().Snapshot().Sub(before)
					got := books{d.OpsLost, d.OpsParked, d.OpsRedelivered, d.OpsExpired}
					if got != want {
						t.Errorf("books (lost, parked, redelivered, expired) = %+v, want %+v", got, want)
					}
					if ran.Load() != wantRuns {
						t.Errorf("body ran %d times, want %d", ran.Load(), wantRuns)
					}
					if wantRuns == 0 {
						if d.OnStmts != 0 {
							t.Errorf("dropped op charged %d on-statements", d.OnStmts)
						}
						if got := s.Matrix().Get(0, 1) - flightsBefore; got != sf.flights {
							t.Errorf("dropped op charged %d matrix entries, want %d", got, sf.flights)
						}
					}
				})
			}
		}
	}
}
