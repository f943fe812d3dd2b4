package workload

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestHistIndexMonotoneAndContiguous(t *testing.T) {
	// Bucket index must be non-decreasing in the value and cover the
	// array without gaps for increasing magnitudes.
	prev := -1
	for _, v := range []uint64{0, 1, 2, 63, 64, 65, 127, 128, 1 << 10, 1<<10 + 17, 1 << 20, 1 << 40, 1 << 62, math.MaxInt64} {
		i := histIndex(v)
		if i < prev {
			t.Fatalf("histIndex(%d) = %d < previous %d", v, i, prev)
		}
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0, %d)", v, i, histBuckets)
		}
		prev = i
	}
	// Small values are exact.
	for v := uint64(0); v < histSubCount; v++ {
		if histIndex(v) != int(v) {
			t.Fatalf("small value %d not exact: bucket %d", v, histIndex(v))
		}
	}
	// Adjacent power-of-two boundary is contiguous.
	if histIndex(63)+1 != histIndex(64) {
		t.Fatalf("boundary gap: idx(63)=%d idx(64)=%d", histIndex(63), histIndex(64))
	}
	if histIndex(127)+1 != histIndex(128) {
		t.Fatalf("boundary gap: idx(127)=%d idx(128)=%d", histIndex(127), histIndex(128))
	}
}

func TestHistUpperBoundsBucket(t *testing.T) {
	for _, v := range []uint64{0, 5, 63, 64, 100, 1000, 1 << 20, 1<<20 + 12345, 1 << 50} {
		i := histIndex(v)
		up := histUpper(i)
		if uint64(up) < v {
			t.Fatalf("histUpper(%d) = %d < value %d", i, up, v)
		}
		// The upper edge itself must map back to the same bucket.
		if histIndex(uint64(up)) != i {
			t.Fatalf("histUpper(%d) = %d maps to bucket %d", i, up, histIndex(uint64(up)))
		}
		// Relative error bound: upper edge within ~2/histHalf of v.
		if v > histSubCount && float64(up) > float64(v)*(1+2.0/histHalf) {
			t.Fatalf("bucket too wide: value %d upper %d", v, up)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	check := func(q float64, want int64) {
		got := h.Quantile(q)
		if math.Abs(float64(got-want)) > float64(want)*0.05+1 {
			t.Errorf("Quantile(%v) = %d, want ≈%d", q, got, want)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	check(0.999, 999)
	if h.Quantile(1) != 1000 || h.Max() != 1000 {
		t.Fatalf("max quantile %d, Max %d", h.Quantile(1), h.Max())
	}
	s := h.Summary()
	if s.P50NS > s.P95NS || s.P95NS > s.P99NS || s.P99NS > s.P999NS || s.P999NS > s.MaxNS {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamps to zero
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative record mishandled: count=%d q50=%d", h.Count(), h.Quantile(0.5))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for i := int64(0); i < 500; i++ {
		a.Record(i * 3)
		whole.Record(i * 3)
	}
	for i := int64(500); i < 1000; i++ {
		b.Record(i * 3)
		whole.Record(i * 3)
	}
	a.Merge(&b)
	a.Merge(nil) // no-op
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.Mean() != whole.Mean() {
		t.Fatalf("merge drifted: %+v vs %+v", a.Summary(), whole.Summary())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("Quantile(%v) differs after merge: %d vs %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

// A weighted record counts its value n times toward the quantiles but
// adds its given sum, and merges with plain records as their union.
func TestHistogramRecordWeighted(t *testing.T) {
	var w Histogram
	w.RecordWeighted(100, 16, 1700)
	w.RecordWeighted(-5, 3, 0) // clamps to 0
	if w.Count() != 19 || w.sum != 1700 || w.Max() != 100 {
		t.Fatalf("weighted: count %d sum %d max %d, want 19 1700 100", w.Count(), w.sum, w.Max())
	}
	if w.Quantile(3.0/19) != 0 || w.Quantile(4.0/19) != 100 {
		t.Fatalf("weighted quantiles %d %d, want 0 100", w.Quantile(3.0/19), w.Quantile(4.0/19))
	}
	var p Histogram
	p.Record(50)
	p.Record(300)
	w.Merge(&p)
	if w.Count() != 21 || w.sum != 2050 || w.Max() != 300 || w.Mean() != 2050.0/21 {
		t.Fatalf("merged: count %d sum %d max %d mean %v", w.Count(), w.sum, w.Max(), w.Mean())
	}
	want := map[float64]int64{3.0 / 21: 0, 4.0 / 21: 50, 20.0 / 21: histUpper(histIndex(100)), 1: 300}
	for q, v := range want {
		if got := w.Quantile(q); got != v {
			t.Errorf("merged Quantile(%.3f) = %d, want %d", q, got, v)
		}
	}
}

// TestSegmentsMatchEveryOp feeds the closed loop's estimator a seeded
// synthetic latency stream — a log-normal body around 300 ns with a 2 %
// tail at 20× — as four tasks at different offsets, with reclaim pauses,
// and holds it against recording every op. A fifth task ends before its
// first timed op and must record its five ops at their mean. Count and sum must be equal exactly. A sampled
// quantile q must lie between the every-op quantiles at q ∓ 4 binomial
// standard errors of m timed ops (4·√(q(1−q)/m)), each widened by one
// 3 % bucket for the segments' uneven weights. No clock is read.
func TestSegmentsMatchEveryOp(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	var every, sampled Histogram
	var timed int
	task := func(dst *Histogram, ops, off int) {
		s := segments{hist: dst, lat: -1}
		now := int64(rng.IntN(1 << 30))
		s.from = now
		for i := 0; i < ops; i++ {
			lat := int64(300 * math.Exp(0.5*rng.NormFloat64()))
			if rng.IntN(50) == 0 {
				lat *= 20
			}
			every.Record(lat)
			if i%segmentOps == off {
				s.timed(now, now+lat)
				timed++
			} else {
				s.n++
			}
			now += lat
			if i%1000 == 999 { // a reclaim attempt: its time is in no op
				pause := int64(rng.IntN(5000))
				now += pause
				s.from += pause
			}
		}
		s.close(now)
	}
	for off := 0; off < 4; off++ {
		task(&sampled, 100_000, off*5)
	}
	var short Histogram // no timed op: its five ops are recorded at their mean
	task(&short, 5, 10)
	if short.Count() != 5 || short.Max() != short.sum/5 {
		t.Fatalf("untimed task: count %d max %d sum %d, want 5 ops at the mean", short.Count(), short.Max(), short.sum)
	}
	sampled.Merge(&short)
	if sampled.Count() != every.Count() || sampled.sum != every.sum {
		t.Fatalf("sampled count %d sum %d, every-op count %d sum %d",
			sampled.Count(), sampled.sum, every.Count(), every.sum)
	}
	const bucket = 1.0 / histHalf
	for _, q := range []float64{0.50, 0.99} {
		se := 4 * math.Sqrt(q*(1-q)/float64(timed))
		lo := float64(every.Quantile(q-se)) * (1 - bucket)
		hi := float64(every.Quantile(q+se)) * (1 + bucket)
		got := float64(sampled.Quantile(q))
		t.Logf("p%g: sampled %.0f, every op %d, band [%.0f, %.0f] (%d timed ops)",
			100*q, got, every.Quantile(q), lo, hi, timed)
		if got < lo || got > hi {
			t.Errorf("p%g: sampled %.0f outside [%.0f, %.0f]", 100*q, got, lo, hi)
		}
	}
}
