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

// ErrBadRequest marks a Fault provider's error as the request's own: a
// body the provider could not read as a fault is a 400, where any other
// provider error — a fault it refused — is a 422.
var ErrBadRequest = errors.New("telemetry: bad request")

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
	// Fault reads a POST body and applies the fault it names to the
	// running system, returning once it has landed. The server keeps no
	// fault vocabulary: decoding the body is the provider's job.
	Fault func(body io.Reader) error
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
		if err := opts.Fault(r.Body); err != nil {
			code := http.StatusUnprocessableEntity
			if errors.Is(err, ErrBadRequest) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
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
