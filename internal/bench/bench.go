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
	"strings"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/rebalance"
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

// machine says which system one measurement boots. The zero backend is
// BackendNone; zero agg and park are the system defaults.
type machine struct {
	locales int
	backend comm.Backend
	agg     comm.AggConfig
	park    comm.ParkConfig
	// matrix also captures the locale-pair delta of the timed region
	// (Point.Matrix, Point.MaxInbound) for figures that argue about
	// where traffic lands; those points are the benchrunner -matrix rows.
	matrix bool
}

// trial is one booted machine, handed to the arm's body: everything the
// body does before timed is setup, everything after it is the arm's own
// teardown. v holds the scenario books a body may fill in (Ctrl,
// Shards/Bytes/Tokens); measure fills the rest after the body returns.
type trial struct {
	sys *pgas.System
	c   *pgas.Ctx // locale 0's task, the one that orchestrates the run
	v   verdict

	matrix bool
	em     *epoch.EpochManager
	pt     Point
}

// verdict is the evidence a run leaves behind beside its Point: the
// whole-run comm counters (setup included, unlike Point.Comm), the
// poisoned-heap totals and the epoch manager's reclamation balance after
// the final clear, plus the books of the scenarios that keep any —
// A10's controller, A11's failover.
type verdict struct {
	Comm  comm.Snapshot
	Heap  gas.Stats
	Epoch epoch.Stats

	Ctrl                  rebalance.Stats
	Shards, Bytes, Tokens int64
}

// epochs returns the run's epoch manager. measure clears it and books
// its stats into the verdict once the body is done.
func (t *trial) epochs() epoch.EpochManager {
	em := epoch.NewEpochManager(t.c)
	t.em = &em
	return em
}

// timed marks the measured region: wall-clock seconds and the comm
// counter delta of fn, plus the matrix delta and its busiest inbound
// column when the machine asked for them.
func (t *trial) timed(fn func()) {
	before, beforeM := t.sys.Counters().SnapshotMatrix()
	start := time.Now()
	fn()
	t.pt.Seconds = time.Since(start).Seconds()
	after, afterM := t.sys.Counters().SnapshotMatrix()
	t.pt.Comm = after.Sub(before)
	if t.matrix {
		t.pt.Matrix = SubMatrix(afterM, beforeM)
		t.pt.MaxInbound = MaxInboundOf(t.pt.Matrix)
	}
}

// measure is the one boot/time/teardown path of the package: it boots
// m, runs body on locale 0, clears the epoch manager the body asked for,
// captures the verdict and shuts the system down. Point.X is left to
// sweep, which knows what the x axis is.
func (cfg Config) measure(m machine, body func(t *trial)) (Point, verdict) {
	sys := pgas.NewSystem(pgas.Config{
		Locales: m.locales,
		Backend: m.backend,
		Latency: cfg.Latency,
		Seed:    cfg.Seed,
		Agg:     m.agg,
		Park:    m.park,
	})
	defer sys.Shutdown()
	t := &trial{sys: sys, matrix: m.matrix}
	sys.Run(func(c *pgas.Ctx) {
		t.c = c
		body(t)
		if t.em != nil {
			t.em.Clear(c)
			t.v.Epoch = t.em.Stats(c)
		}
	})
	t.v.Comm = sys.Counters().Snapshot()
	t.v.Heap = sys.HeapStats()
	return t.pt, t.v
}

// runFunc measures one arm at sweep coordinate x (a locale or task
// count, as the panel's x axis says).
type runFunc func(x int) (Point, verdict)

// arm is one row of a sweep: a labelled series and the run that
// produces its points.
type arm struct {
	label string // series label
	tag   string // progress-line prefix
	run   runFunc
}

// sweep measures every arm at every x — the fastest of cfg.Repeats runs
// each — and returns the panel, one series per arm in arm order. It
// stamps Point.X and prints the progress line.
func (cfg Config) sweep(title, xLabel string, xs []int, arms ...arm) Panel {
	panel := Panel{Title: title, XLabel: xLabel, Series: make([]Series, len(arms))}
	tagWidth := 0
	for i, a := range arms {
		panel.Series[i].Label = a.label
		tagWidth = max(tagWidth, len(a.tag))
	}
	for _, x := range xs {
		for i, a := range arms {
			p := cfg.best(func() Point {
				p, _ := a.run(x)
				return p
			})
			p.X = x
			panel.Series[i].Points = append(panel.Series[i].Points, p)
			hot := ""
			if p.Matrix != nil {
				hot = fmt.Sprintf("hotCol=%-8d ", p.MaxInbound)
			}
			cfg.progressf("%-*s %s=%-3d %8.4fs  %s[%v]\n",
				tagWidth, a.tag, strings.ToLower(xLabel), x, p.Seconds, hot, p.Comm)
		}
	}
	return panel
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
