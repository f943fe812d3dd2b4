package main

import (
	"math"
	"testing"

	"gopgas/internal/workload"
)

func TestCheckSlowFactor(t *testing.T) {
	for _, c := range []struct {
		f  float64
		ok bool
	}{{0, true}, {4, true}, {-1, false}, {math.NaN(), false}} {
		if err := checkSlowFactor(c.f); (err == nil) != c.ok {
			t.Errorf("checkSlowFactor(%v) = %v, want ok=%v", c.f, err, c.ok)
		}
	}
}

// A slowed soak runs at the calibrated profile, so locale 0's scale
// stretches real prices: every phase models delay and books an excess.
// An unslowed one stays at zero latency with no fault event.
func TestSlowFactorStretchesPrices(t *testing.T) {
	if s := soakSpec(workload.StructureHashmap, 2, 1, "none", 1, 0.2, 0); s.LatencyScale != 0 || s.Faults.Events != nil {
		t.Fatalf("unslowed spec: latency_scale %v, events %v", s.LatencyScale, s.Faults.Events)
	}
	rep, err := workload.Run(soakSpec(workload.StructureHashmap, 2, 1, "none", 1, 0.2, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rep.Phases {
		if ph.ModelledNS <= 0 || ph.PerturbNS <= 0 {
			t.Errorf("phase %q: modelled_ns %d, perturb_ns %d, want both > 0", ph.Name, ph.ModelledNS, ph.PerturbNS)
		}
	}
	for _, inv := range rep.Invariants() {
		if !inv.Held {
			t.Errorf("%s: %s", inv.Name, inv.Detail)
		}
	}
}
