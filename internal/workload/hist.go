package workload

import "math/bits"

// HDR-style log-bucketed latency histogram. Values (nanoseconds) below
// histSubCount are recorded exactly; above that, each power-of-two
// range is split into histSubCount/2 linear sub-buckets, bounding the
// relative quantization error at 1/(histSubCount/2) ≈ 3% while keeping
// the whole histogram a fixed, merge-friendly array — the same layout
// HdrHistogram uses, sized for the nanosecond..minutes range the
// workload engine records.

const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // values below this are exact
	histHalf     = histSubCount / 2
	histBuckets  = histSubCount + (63-histSubBits)*histHalf
)

// Histogram is a fixed-size log-bucketed histogram of non-negative
// int64 values (nanoseconds, by convention). The zero value is an
// empty, ready-to-use histogram. Not safe for concurrent use: record
// into per-task histograms and Merge.
type Histogram struct {
	counts [histBuckets]int64
	count  int64
	sum    int64
	max    int64
}

// histIndex maps a value to its bucket.
func histIndex(u uint64) int {
	if u < histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) // MSB position, >= histSubBits+1
	shift := uint(exp - histSubBits)
	mant := int(u >> shift) // in [histHalf, histSubCount)
	return histSubCount + (int(shift)-1)*histHalf + (mant - histHalf)
}

// histUpper returns the largest value that maps to bucket i — the
// value quantiles report, so percentiles never understate latency by
// more than one bucket width.
func histUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	j := i - histSubCount
	shift := uint(j/histHalf) + 1
	mant := uint64(j%histHalf + histHalf)
	return int64((mant+1)<<shift - 1)
}

// Record adds one value. Negative values clamp to zero.
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i, n := range o.counts {
		if n != 0 {
			h.counts[i] += n
		}
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest recorded value (exact, not bucketed).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of recorded values (exact).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at quantile q in [0, 1]: the upper edge
// of the bucket holding the ceil(q·count)-th smallest value, clamped
// to the exact maximum. Zero when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, n := range h.counts {
		cum += n
		if cum >= rank {
			v := histUpper(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// LatencySummary is the serializable digest of a Histogram: the
// percentile family the workload reports carry.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  int64   `json:"p50_ns"`
	P95NS  int64   `json:"p95_ns"`
	P99NS  int64   `json:"p99_ns"`
	P999NS int64   `json:"p999_ns"`
	MaxNS  int64   `json:"max_ns"`
}

// Summary digests the histogram into its percentile family.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.count,
		MeanNS: h.Mean(),
		P50NS:  h.Quantile(0.50),
		P95NS:  h.Quantile(0.95),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
		MaxNS:  h.max,
	}
}
