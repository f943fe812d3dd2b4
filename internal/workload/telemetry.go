package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/pgas"
	"gopgas/internal/telemetry"
	"gopgas/internal/trace"
)

// Telemetry bridges a running scenario to the telemetry HTTP server:
// the engine attaches the live System and trace recorder for each run
// (RunLive), worker tasks stream latency samples into a merged live
// histogram, and Options lowers everything into the provider functions
// telemetry.Start serves. One Telemetry outlives many runs — cmd/soak
// attaches it to each scenario in turn while the server stays up.
type Telemetry struct {
	start time.Time

	mu       sync.Mutex
	scenario string
	sys      *pgas.System
	tracer   *trace.Recorder
	hist     Histogram // every op of the run, weighted as recorded

	// scaled is set when /api/fault installs latency scales, before they
	// land; the engine reads and clears it at each phase's ends (run.scaled).
	scaled atomic.Bool
}

// NewTelemetry creates an empty bridge; pass it to RunLive and serve
// Options() via telemetry.Start.
func NewTelemetry() *Telemetry { return &Telemetry{start: time.Now()} }

// attach points the bridge at a freshly built System (engine-internal).
// The live histogram restarts with the run.
func (t *Telemetry) attach(scenario string, sys *pgas.System, tracer *trace.Recorder) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scenario = scenario
	t.sys = sys
	t.tracer = tracer
	t.hist = Histogram{}
}

// detach clears the live System before it shuts down; the endpoints
// report unattached (empty) payloads until the next run attaches.
func (t *Telemetry) detach() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sys = nil
	t.tracer = nil
}

// liveChunkSize is how many ops' latency a worker batches before
// taking the bridge mutex — big enough that live telemetry costs the
// workers one uncontended merge per few hundred ops, small enough that
// /api/hist lags the run by well under a second.
const liveChunkSize = 256

// liveChunk is one worker's latency batch toward the bridge.
type liveChunk struct {
	tel  *Telemetry
	hist Histogram
}

func (t *Telemetry) newChunk() *liveChunk { return &liveChunk{tel: t} }

// record adds n ops at latency ns summing to sum (see segments).
func (lc *liveChunk) record(ns, n, sum int64) {
	lc.hist.RecordWeighted(ns, n, sum)
	if lc.hist.Count() >= liveChunkSize {
		lc.flush()
	}
}

func (lc *liveChunk) flush() {
	if lc.hist.Count() == 0 {
		return
	}
	lc.tel.mu.Lock()
	lc.tel.hist.Merge(&lc.hist)
	lc.tel.mu.Unlock()
	lc.hist = Histogram{}
}

// LiveStatus is the /api/status payload.
type LiveStatus struct {
	Scenario      string         `json:"scenario"`
	Running       bool           `json:"running"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Ops           int64          `json:"ops"`
	AsyncPending  int64          `json:"async_pending"`
	Comm          *comm.Snapshot `json:"comm,omitempty"`
	TraceDropped  int64          `json:"trace_dropped"`
}

// Options lowers the bridge into telemetry provider functions. Every
// provider tolerates the unattached state (between runs): it reports
// empty data rather than erroring, so the server survives scenario
// boundaries.
func (t *Telemetry) Options() telemetry.Options {
	return telemetry.Options{
		Status: func() any {
			t.mu.Lock()
			defer t.mu.Unlock()
			st := LiveStatus{
				Scenario:      t.scenario,
				Running:       t.sys != nil,
				UptimeSeconds: time.Since(t.start).Seconds(),
				Ops:           t.hist.Count(),
			}
			if t.sys != nil {
				snap := t.sys.Counters().Snapshot()
				st.Comm = &snap
				st.AsyncPending = t.sys.AsyncPending()
			}
			if t.tracer != nil {
				st.TraceDropped = t.tracer.Dropped()
			}
			return st
		},
		Matrix: func() [][]int64 {
			t.mu.Lock()
			sys := t.sys
			t.mu.Unlock()
			if sys == nil {
				return nil
			}
			return sys.Matrix().Snapshot()
		},
		Hist: func() any {
			t.mu.Lock()
			defer t.mu.Unlock()
			return t.hist.Summary()
		},
		Trace: func(max int) []trace.Event {
			t.mu.Lock()
			tr := t.tracer
			t.mu.Unlock()
			if tr == nil {
				return nil
			}
			return tr.Drain(max)
		},
		Fault: func(req telemetry.FaultRequest) error {
			t.mu.Lock()
			sys := t.sys
			t.mu.Unlock()
			if sys == nil {
				return fmt.Errorf("workload: no scenario is running")
			}
			switch {
			case req.Crash:
				// Comm-plane only: the locale stops answering and its
				// budget drains to the lost-ops ledger, but no failover
				// runs — recovery is the spec-scheduled crash's job.
				return sys.Crash(req.CrashLocale)
			case req.Sever:
				return sys.Sever(req.SeverA, req.SeverB)
			case req.Heal:
				// Heal settles the retry ledgers synchronously; a pair
				// that is not currently severed errors into the 422 path.
				return sys.Heal(req.HealA, req.HealB)
			// The latency forms replace only the Scales half: a crashed
			// locale stays crashed and a severed pair stays severed.
			case req.Clear:
				sys.SetScales(nil)
			case len(req.Scales) > 0:
				t.scaled.Store(true)
				sys.SetScales(req.Scales)
			default:
				return fmt.Errorf("workload: fault request needs crash, sever, heal, clear or scales")
			}
			return nil
		},
	}
}
