package workload

import (
	"errors"
	"io"
	"sync"
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

	// posts is the attached run's inbox of /api/fault faults, which its
	// round clock lands; gone closes when the run detaches.
	posts chan<- livePost
	gone  chan struct{}
}

// livePost is one /api/fault fault on its way to the round's clock, and
// the channel apply's verdict on it comes back on.
type livePost struct {
	fault  Fault
	landed chan error
}

// NewTelemetry creates an empty bridge; pass it to RunLive and serve
// Options() via telemetry.Start.
func NewTelemetry() *Telemetry { return &Telemetry{start: time.Now()} }

// attach points the bridge at a freshly built System (engine-internal)
// and returns the inbox the run's round clocks take /api/fault posts
// from. The live histogram restarts with the run.
func (t *Telemetry) attach(scenario string, sys *pgas.System, tracer *trace.Recorder) <-chan livePost {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scenario = scenario
	t.sys = sys
	t.tracer = tracer
	t.hist = Histogram{}
	posts := make(chan livePost)
	t.posts, t.gone = posts, make(chan struct{})
	return posts
}

// detach clears the live System before it shuts down and refuses every
// post still waiting for a clock; the endpoints report unattached
// (empty) payloads until the next run attaches.
func (t *Telemetry) detach() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sys = nil
	t.tracer = nil
	t.posts = nil
	close(t.gone)
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

var errNotRunning = errors.New("workload: no scenario is running")

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
		// A post waits for the attached run's next round clock, which
		// lands it through run.apply: between rounds it waits for the next
		// round, and a run that detaches first refuses it.
		Fault: func(body io.Reader) error {
			f, err := decodeFault(body)
			if err != nil {
				return err
			}
			t.mu.Lock()
			posts, gone := t.posts, t.gone
			t.mu.Unlock()
			if posts == nil {
				return errNotRunning
			}
			p := livePost{f, make(chan error, 1)}
			select {
			case posts <- p:
				return <-p.landed
			case <-gone:
				return errNotRunning
			}
		},
	}
}
