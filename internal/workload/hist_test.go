package workload

import (
	"math"
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
