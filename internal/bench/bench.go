// Package bench regenerates every measured figure of the paper's
// evaluation (Figures 3–7) plus the ablation studies DESIGN.md calls
// out. Each figure function builds fresh Systems per sweep point, runs
// the workload the paper describes, and reports both wall time and the
// deterministic communication counters.
//
// Two caveats, recorded here and in DESIGN.md ("Figures and ablations"),
// follow from running a 64-node Cray simulation on one machine:
//
//   - Injected latencies are busy-wait (spin-yield) delays because this
//     host's sleep granularity (~1.2 ms) would crush the microsecond
//     regime ordering. Spinning shares the CPUs, so wall time measures
//     aggregate simulated cost on fixed cores rather than true
//     parallel speedup; curve *separation* (ugni vs none, ABA vs
//     plain, dense vs sparse) is preserved, absolute
//     speedup-vs-locales is not.
//   - Communication counters are exact and hardware-independent; they
//     are the primary reproduction evidence for the scaling claims
//     (e.g. pin/unpin performs zero communication at any locale count).
package bench

import (
	"fmt"
	"io"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
)

// Config controls sweep sizes. The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// Scale multiplies every operation count; 1.0 is the calibrated
	// default that completes the full sweep in a few minutes.
	Scale float64
	// TasksPerLocale is the task fan-out used by distributed loops.
	TasksPerLocale int
	// MaxLocales caps the locale sweep (the paper uses 64).
	MaxLocales int
	// MaxSharedTasks caps the shared-memory task sweep (paper: 32).
	MaxSharedTasks int
	// Latency is the injected-delay profile for timed runs.
	Latency comm.LatencyProfile
	// Seed drives all workload randomness.
	Seed uint64
	// Repeats runs each sweep point this many times and keeps the
	// fastest, suppressing GC and scheduler noise spikes.
	Repeats int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Scale:          1.0,
		TasksPerLocale: 2,
		MaxLocales:     64,
		MaxSharedTasks: 32,
		Latency:        comm.DefaultProfile(),
		Seed:           0xD15C0,
		Repeats:        3,
	}
}

// best runs the point measurement cfg.Repeats times and returns the
// fastest run (standard microbenchmark practice; the slower runs are
// GC or scheduler artifacts of the simulation host, not the system
// under test).
func (cfg Config) best(run func() Point) Point {
	n := cfg.Repeats
	if n < 1 {
		n = 1
	}
	var bestPt Point
	for i := 0; i < n; i++ {
		p := run()
		if i == 0 || p.Seconds < bestPt.Seconds {
			bestPt = p
		}
	}
	return bestPt
}

// ops scales a base operation count.
func (cfg Config) ops(base int) int {
	n := int(float64(base) * cfg.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

// localeSweep returns the powers of two 'from'..MaxLocales.
func (cfg Config) localeSweep(from int) []int {
	var out []int
	for l := from; l <= cfg.MaxLocales; l *= 2 {
		out = append(out, l)
	}
	return out
}

func (cfg Config) taskSweep() []int {
	var out []int
	for t := 1; t <= cfg.MaxSharedTasks; t *= 2 {
		out = append(out, t)
	}
	return out
}

func (cfg Config) progressf(format string, args ...any) {
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, format, args...)
	}
}

// Point is one measurement: x (tasks or locales), wall-clock seconds,
// and the communication performed during the timed region.
type Point struct {
	X       int
	Seconds float64
	Comm    comm.Snapshot

	// Matrix, when non-nil, is the (source, destination) locale-pair
	// event delta of the timed region — captured by figures that make
	// per-pair claims (A7's hotspot argument) and dumped by the
	// benchrunner's -matrix CSV.
	Matrix [][]int64

	// MaxInbound is the busiest destination column total of Matrix:
	// the hotspot metric (how much of the system's traffic lands on
	// one locale). Zero when Matrix was not captured.
	MaxInbound int64
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// Panel is one plot: several curves over a shared x axis.
type Panel struct {
	Title  string
	XLabel string
	Series []Series
}

// Figure is one of the paper's figures (or an ablation study).
type Figure struct {
	ID      string
	Title   string
	Caption string
	Panels  []Panel
}

// timed runs fn and returns elapsed seconds plus the comm delta.
func timed(sys *pgas.System, fn func()) (float64, comm.Snapshot) {
	before := sys.Counters().Snapshot()
	start := time.Now()
	fn()
	secs := time.Since(start).Seconds()
	return secs, sys.Counters().Snapshot().Sub(before)
}

// timedMatrix is timed plus the locale-pair matrix delta and its
// busiest inbound column, for figures that argue about hotspots.
func timedMatrix(sys *pgas.System, fn func()) (float64, comm.Snapshot, [][]int64, int64) {
	beforeM := sys.Matrix().Snapshot()
	secs, snap := timed(sys, fn)
	delta := SubMatrix(sys.Matrix().Snapshot(), beforeM)
	return secs, snap, delta, MaxInboundOf(delta)
}

// SubMatrix returns the element-wise difference a - b of two comm
// matrix snapshots — the per-pair delta of a timed or measured region.
// Exported for the workload engine, which captures the same evidence
// per phase.
func SubMatrix(a, b [][]int64) [][]int64 {
	out := make([][]int64, len(a))
	for i := range a {
		out[i] = make([]int64, len(a[i]))
		for j := range a[i] {
			out[i][j] = a[i][j] - b[i][j]
		}
	}
	return out
}

// TotalsOf returns the outbound (row) and inbound (column) totals of a
// comm matrix snapshot from one pass over the cells — the snapshot-side
// twin of comm.Matrix.Totals, for deltas produced by SubMatrix. The
// workload engine's hotspot metric and the examples' traffic summaries
// both derive from this single pass.
func TotalsOf(m [][]int64) (rows, cols []int64) {
	rows = make([]int64, len(m))
	cols = make([]int64, len(m))
	for i := range m {
		for j := range m[i] {
			rows[i] += m[i][j]
			cols[j] += m[i][j]
		}
	}
	return rows, cols
}

// MaxInboundOf returns the largest inbound (column) total of m: the
// hotspot metric — how much of the system's traffic lands on the
// busiest single locale.
func MaxInboundOf(m [][]int64) int64 {
	_, cols := TotalsOf(m)
	var best int64
	for _, col := range cols {
		if col > best {
			best = col
		}
	}
	return best
}

// newSystem builds a benchmark system.
func (cfg Config) newSystem(locales int, backend comm.Backend) *pgas.System {
	return cfg.newSystemAgg(locales, backend, comm.AggConfig{})
}

// newSystemAgg builds a benchmark system with an explicit aggregation
// policy — the write-absorption ablation flips Combine per arm.
func (cfg Config) newSystemAgg(locales int, backend comm.Backend, agg comm.AggConfig) *pgas.System {
	return pgas.NewSystem(pgas.Config{
		Locales: locales,
		Backend: backend,
		Latency: cfg.Latency,
		Seed:    cfg.Seed,
		Agg:     agg,
	})
}
