package comm

import "testing"

func TestPerturbationZeroValue(t *testing.T) {
	var p Perturbation
	if p.Faulted() || p.Scales != nil {
		t.Fatal("zero Perturbation must carry no fault")
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
	if len(p.Scales) != 4 || p.Faulted() {
		t.Fatalf("SlowLocale plan = %+v, want a scale per locale and no liveness fault", p)
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
