// Package telemetry is the live observability surface: an opt-in HTTP
// server exposing counter snapshots, the communication matrix, live
// latency percentiles, trace windows and a fault-injection control —
// the portal/API split over the measurement and tracing planes. It
// depends only on the trace plane plus net/http; the workload engine
// lowers its richer state into the provider functions of Options, so
// the server never imports the simulator.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"gopgas/internal/trace"
)

// FaultRequest is the POST body of /api/fault: a fault to apply
// system-wide, in the vocabulary of comm.Perturbation but declared
// here so the server stays simulator-free. Exactly one form applies,
// checked in order: Crash kills CrashLocale fail-stop (irreversible —
// a later Clear does not resurrect it), Sever partitions the unordered
// pair (SeverA, SeverB), Heal repairs a severed pair (422 when the
// pair is not currently severed), Clear removes the latency
// perturbation, Scales installs an explicit per-locale factor vector,
// and SlowLocale/SlowFactor slows one locale.
type FaultRequest struct {
	Crash       bool      `json:"crash,omitempty"`
	CrashLocale int       `json:"crash_locale,omitempty"`
	Sever       bool      `json:"sever,omitempty"`
	SeverA      int       `json:"sever_a,omitempty"`
	SeverB      int       `json:"sever_b,omitempty"`
	Heal        bool      `json:"heal,omitempty"`
	HealA       int       `json:"heal_a,omitempty"`
	HealB       int       `json:"heal_b,omitempty"`
	Clear       bool      `json:"clear,omitempty"`
	Scales      []float64 `json:"scales,omitempty"`
	SlowLocale  int       `json:"slow_locale,omitempty"`
	SlowFactor  float64   `json:"slow_factor,omitempty"`
}

// Options wires the server's endpoints to whatever is running. Any nil
// provider turns its endpoint into 503 Service Unavailable — the
// server stays up across scenario boundaries and simply reports what
// is currently attached.
type Options struct {
	// Status returns the /api/status payload: any JSON-serializable
	// snapshot (scenario name, uptime, counters).
	Status func() any
	// Matrix returns the locale-pair communication matrix; the handler
	// adds row and column totals.
	Matrix func() [][]int64
	// Hist returns the workload engine's live latency percentiles as
	// any JSON-serializable value (a workload.LatencySummary).
	Hist func() any
	// Trace drains up to max buffered trace events (max <= 0: all).
	Trace func(max int) []trace.Event
	// Fault applies a fault request to the running system.
	Fault func(FaultRequest) error
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. ":8077" or "127.0.0.1:0") and serves the
// telemetry API plus net/http/pprof in a background goroutine.
func Start(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: newHandler(opts)}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// newHandler routes the telemetry API and pprof to opts' providers.
func newHandler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/status", func(w http.ResponseWriter, r *http.Request) {
		if opts.Status == nil {
			unavailable(w)
			return
		}
		writeJSON(w, opts.Status())
	})
	mux.HandleFunc("/api/matrix", func(w http.ResponseWriter, r *http.Request) {
		if opts.Matrix == nil {
			unavailable(w)
			return
		}
		m := opts.Matrix()
		rows := make([]int64, len(m))
		var cols []int64
		if len(m) > 0 {
			cols = make([]int64, len(m[0]))
		}
		for i, row := range m {
			for j, v := range row {
				rows[i] += v
				cols[j] += v
			}
		}
		writeJSON(w, map[string]any{
			"matrix": m, "row_totals": rows, "col_totals": cols,
		})
	})
	mux.HandleFunc("/api/hist", func(w http.ResponseWriter, r *http.Request) {
		if opts.Hist == nil {
			unavailable(w)
			return
		}
		writeJSON(w, opts.Hist())
	})
	mux.HandleFunc("/api/trace", func(w http.ResponseWriter, r *http.Request) {
		if opts.Trace == nil {
			unavailable(w)
			return
		}
		window := 0
		if q := r.URL.Query().Get("window"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				http.Error(w, "telemetry: window must be a non-negative integer", http.StatusBadRequest)
				return
			}
			window = n
		}
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteChromeTrace(w, opts.Trace(window)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/api/fault", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "telemetry: /api/fault requires POST", http.StatusMethodNotAllowed)
			return
		}
		if opts.Fault == nil {
			unavailable(w)
			return
		}
		// One JSON value and nothing after it: a request with a tail
		// is malformed, not a request plus noise.
		dec := json.NewDecoder(r.Body)
		var req FaultRequest
		err := dec.Decode(&req)
		if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
			err = errors.New("data after the request")
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("telemetry: bad fault request: %v", err), http.StatusBadRequest)
			return
		}
		if err := opts.Fault(req); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	})
	// pprof on the same mux (the default ServeMux registrations from
	// importing net/http/pprof don't apply to a custom mux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func unavailable(w http.ResponseWriter) {
	http.Error(w, "telemetry: no provider attached", http.StatusServiceUnavailable)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort response write
}
