package pgas

import (
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/trace"
)

// The tracing plane's dispatch-path contract: a system without a
// recorder pays one nil check, a disabled recorder one atomic flag
// load, and an enabled recorder writes fixed-size events into a
// preallocated ring — none of the three may allocate on a remote
// on-statement. The ns/op side of the same contract is the benchmark
// ladder's pgas.on_sync_ns rung (benchmark/README.md).
func TestDispatchZeroAllocAcrossTracerStates(t *testing.T) {
	disabled := trace.NewRecorder(2, trace.Config{BufferSize: 256})
	disabled.SetEnabled(false)
	cases := []struct {
		name string
		rec  *trace.Recorder
	}{
		{"nil-tracer", nil},
		{"disabled-tracer", disabled},
		{"enabled-tracer", trace.NewRecorder(2, trace.Config{BufferSize: 256})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, Tracer: tc.rec})
			defer s.Shutdown()
			c := s.Ctx(0)
			fn := func(rc *Ctx) {}
			if avg := testing.AllocsPerRun(200, func() { c.On(1, fn) }); avg != 0 {
				t.Fatalf("remote dispatch allocates %.2f/op with %s", avg, tc.name)
			}
		})
	}
}

// Active-message atomics run inline on the calling goroutine: no
// request, no completion channel, and the handler closures stay on the
// caller's stack. Under BackendNone every remote 64-bit atomic and
// every remote 128-bit operation rides that path — without a handler
// slot under the zero profile, through one when the handler has
// occupancy.
func TestAMAtomicsZeroAlloc(t *testing.T) {
	profiles := []struct {
		name string
		lat  comm.LatencyProfile
	}{
		{"zero-profile", comm.Zero()},
		{"handler-occupancy", comm.LatencyProfile{AMHandlerNS: 1}},
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, Latency: p.lat})
			defer s.Shutdown()
			c := s.Ctx(0)
			w64 := NewWord64(c, 1, 0)
			w128 := NewWord128(c, 1, 0, 0)
			cases := []struct {
				name string
				fn   func()
			}{
				{"Word64.Add", func() { w64.Add(c, 1) }},
				{"Word64.CompareAndSwap", func() { w64.CompareAndSwap(c, 0, 0) }},
				{"Word64.Read", func() { w64.Read(c) }},
				{"Word128.DCAS", func() { w128.DCAS(c, 0, 0, 0, 0) }},
				{"Word128.Read", func() { w128.Read(c) }},
				{"Word128.CASLo64", func() { w128.CASLo64(c, 0, 0) }},
				{"Ctx.ChargeGet", func() { c.ChargeGet(1) }},
			}
			for _, tc := range cases {
				if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
					t.Errorf("remote %s allocates %.2f/op", tc.name, avg)
				}
			}
			if p.lat != comm.Zero() {
				return
			}
			// Under the zero profile a charge leaves System.delay at its first
			// branch: it never reaches the task's account, so it reads no clock.
			if m, _, w := s.DelayTotals(); m != 0 || w != 0 {
				t.Errorf("zero-profile charges reached the delay account: modelled %dns, waited %dns", m, w)
			}
		})
	}
}

// The direct routes run the atomic in the method itself: a NIC atomic
// under ugni (remote and on the word's own locale) and a processor
// atomic on the own locale under none build no closure, so they cannot
// allocate one either.
func TestDirectAtomicsZeroAlloc(t *testing.T) {
	routes := []struct {
		name    string
		backend comm.Backend
		home    int
	}{
		{"ugni-remote", comm.BackendUGNI, 1},
		{"ugni-own", comm.BackendUGNI, 0},
		{"none-own", comm.BackendNone, 0},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			s := NewSystem(Config{Locales: 2, Backend: r.backend})
			defer s.Shutdown()
			c := s.Ctx(0)
			w64 := NewWord64(c, r.home, 0)
			w128 := NewWord128(c, r.home, 0, 0)
			cases := []struct {
				name string
				fn   func()
			}{
				{"Word64.Read", func() { w64.Read(c) }},
				{"Word64.Write", func() { w64.Write(c, 1) }},
				{"Word64.Exchange", func() { w64.Exchange(c, 2) }},
				{"Word64.CompareAndSwap", func() { w64.CompareAndSwap(c, 2, 3) }},
				{"Word64.Add", func() { w64.Add(c, 1) }},
				{"Word64.TestAndSet", func() { w64.TestAndSet(c) }},
				{"Word64.Clear", func() { w64.Clear(c) }},
				{"Word128.ReadLo64", func() { w128.ReadLo64(c) }},
				{"Word128.WriteLo64", func() { w128.WriteLo64(c, 1) }},
				{"Word128.ExchangeLo64", func() { w128.ExchangeLo64(c, 2) }},
				{"Word128.CASLo64", func() { w128.CASLo64(c, 2, 3) }},
			}
			for _, tc := range cases {
				if avg := testing.AllocsPerRun(200, tc.fn); avg != 0 {
					t.Errorf("%s %s allocates %.2f/op", r.name, tc.name, avg)
				}
			}
		})
	}
}

// The aggregation layer's own allocation contract: asking a combinable
// op for its merge key boxes nothing (the key is built on every
// enqueue), and a lookup that finds nothing to merge into costs nothing.
func TestAggregationPathsZeroAlloc(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, Agg: comm.AggConfig{Combine: true}})
	defer s.Shutdown()
	c := s.Ctx(0)
	add := &addOp{w: NewWord64(c, 1, 0), delta: 1}
	local, remote := c.Aggregator(0), c.Aggregator(1)
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"addOp.CombineKey", 0, func() { add.CombineKey() }},
		{"AggBuffer.Buffered miss", 0, func() { remote.Buffered(add.CombineKey()) }},
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(200, tc.fn); avg != tc.want {
			t.Errorf("%s allocates %.2f/op, want %.0f", tc.name, avg, tc.want)
		}
	}

	// Buffered sees only what is in flight toward a remote destination.
	remote.Add(add.w, 2)
	before := s.Counters().Snapshot()
	if got := remote.Buffered(add.CombineKey()); got == nil || got.(*addOp).delta != 2 {
		t.Errorf("Buffered = %v, want the buffered add", got)
	}
	if d := s.Counters().Snapshot().Sub(before); d.AggOpsEnq != 1 || d.AggCombined != 1 {
		t.Errorf("a hit booked %+v, want one enqueue and one combine", d)
	}
	before = s.Counters().Snapshot()
	if got := local.Buffered(add.CombineKey()); got != nil {
		t.Errorf("Buffered on the local destination = %v", got)
	}
	if d := s.Counters().Snapshot().Sub(before); d.AggOpsEnq != 0 || d.AggCombined != 0 {
		t.Errorf("a local lookup booked %+v", d)
	}
	c.Flush()
}
