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
// every remote 128-bit operation rides that path.
func TestAMAtomicsZeroAlloc(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone})
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
	// Under the zero profile a charge leaves System.delay at its first
	// branch: it never reaches the task's account, so it reads no clock.
	if m, w := s.DelayTotals(); m != 0 || w != 0 {
		t.Errorf("zero-profile charges reached the delay account: modelled %dns, waited %dns", m, w)
	}
}
