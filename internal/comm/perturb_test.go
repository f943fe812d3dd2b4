package comm

import "testing"

func TestPerturbationZeroValue(t *testing.T) {
	var p Perturbation
	if p.Enabled() {
		t.Fatal("zero Perturbation must be disabled")
	}
	if got := p.ScaleFor(0); got != 1.0 {
		t.Fatalf("ScaleFor on zero value = %v, want 1.0", got)
	}
	if got := p.PairScale(3, 7); got != 1.0 {
		t.Fatalf("PairScale on zero value = %v, want 1.0", got)
	}
}

func TestPerturbationScaleFor(t *testing.T) {
	p := Perturbation{Scales: []float64{1, 4, 0, -2}}
	cases := []struct {
		locale int
		want   float64
	}{
		{0, 1}, {1, 4},
		{2, 1},  // non-positive entry -> nominal
		{3, 1},  // negative entry -> nominal
		{9, 1},  // beyond the slice -> nominal
		{-1, 1}, // out of range -> nominal
	}
	for _, c := range cases {
		if got := p.ScaleFor(c.locale); got != c.want {
			t.Errorf("ScaleFor(%d) = %v, want %v", c.locale, got, c.want)
		}
	}
}

func TestPerturbationPairScaleTakesSlowerEndpoint(t *testing.T) {
	p := SlowLocale(4, 2, 8.0)
	if !p.Enabled() {
		t.Fatal("SlowLocale plan must be enabled")
	}
	if got := p.PairScale(0, 1); got != 1.0 {
		t.Fatalf("unperturbed pair = %v, want 1.0", got)
	}
	if got := p.PairScale(0, 2); got != 8.0 {
		t.Fatalf("toward slow locale = %v, want 8.0", got)
	}
	if got := p.PairScale(2, 3); got != 8.0 {
		t.Fatalf("from slow locale = %v, want 8.0", got)
	}
	if got := p.PairScale(2, 2); got != 8.0 {
		t.Fatalf("slow-local pair = %v, want 8.0", got)
	}
}

func TestPerturbationProfileFor(t *testing.T) {
	base := DefaultProfile()
	p := SlowLocale(2, 1, 3.0)
	nominal := p.ProfileFor(base, 0)
	if nominal != base {
		t.Fatalf("nominal locale profile changed: %+v vs %+v", nominal, base)
	}
	slow := p.ProfileFor(base, 1)
	if slow.NICAtomicNS != 3*base.NICAtomicNS || slow.AMRoundTripNS != 3*base.AMRoundTripNS {
		t.Fatalf("slow locale profile not scaled 3x: %+v", slow)
	}
}
