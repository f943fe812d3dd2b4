package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gopgas/internal/trace"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func get(t *testing.T, s *Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", s.Addr(), path))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestEndpoints(t *testing.T) {
	r := trace.NewRecorder(2, trace.Config{BufferSize: 256})
	r.Begin(0, trace.KindDispatch, 1, 0, 1, 0, 0).End()
	var faults []string
	s := startTestServer(t, Options{
		Status: func() any { return map[string]any{"scenario": "test", "ops": 42} },
		Matrix: func() [][]int64 { return [][]int64{{0, 3}, {5, 0}} },
		Hist:   func() any { return map[string]any{"count": 2, "p50_ns": 1000} },
		Trace:  func(max int) []trace.Event { return r.Drain(max) },
		Fault:  fakeFault(&faults),
	})

	code, body := get(t, s, "/api/status")
	if code != http.StatusOK {
		t.Fatalf("/api/status: %d %s", code, body)
	}
	var status map[string]any
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatalf("/api/status not JSON: %v", err)
	}
	if status["scenario"] != "test" {
		t.Fatalf("status payload: %v", status)
	}

	code, body = get(t, s, "/api/matrix")
	if code != http.StatusOK {
		t.Fatalf("/api/matrix: %d %s", code, body)
	}
	var matrix struct {
		Matrix    [][]int64 `json:"matrix"`
		RowTotals []int64   `json:"row_totals"`
		ColTotals []int64   `json:"col_totals"`
	}
	if err := json.Unmarshal(body, &matrix); err != nil {
		t.Fatalf("/api/matrix not JSON: %v", err)
	}
	if matrix.RowTotals[0] != 3 || matrix.RowTotals[1] != 5 ||
		matrix.ColTotals[0] != 5 || matrix.ColTotals[1] != 3 {
		t.Fatalf("totals wrong: %+v", matrix)
	}

	code, body = get(t, s, "/api/hist")
	if code != http.StatusOK {
		t.Fatalf("/api/hist: %d %s", code, body)
	}
	var hist struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		t.Fatalf("/api/hist not JSON: %v", err)
	}
	if hist.Count != 2 {
		t.Fatalf("hist count %d, want 2", hist.Count)
	}

	code, body = get(t, s, "/api/trace?window=10")
	if code != http.StatusOK {
		t.Fatalf("/api/trace: %d %s", code, body)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/api/trace not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/api/trace drained nothing")
	}

	if code, body = get(t, s, "/api/trace?window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window accepted: %d %s", code, body)
	}

	for _, c := range []struct {
		body string
		code int
	}{
		{`{"scales":[1,8]}`, http.StatusOK},
		{`{"scales":[1,8]} junk`, http.StatusBadRequest},
		{`{"refuse":true}`, http.StatusUnprocessableEntity},
	} {
		if code := post(t, s, c.body); code != c.code {
			t.Fatalf("/api/fault %s: %d, want %d", c.body, code, c.code)
		}
	}
	if want := []string{`{"scales":[1,8]}`, `{"scales":[1,8]} junk`, `{"refuse":true}`}; !reflect.DeepEqual(faults, want) {
		t.Fatalf("provider saw %q, want every body verbatim: %q", faults, want)
	}
	if code, _ = get(t, s, "/api/fault"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /api/fault returned %d", code)
	}

	if code, _ = get(t, s, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("pprof index: %d", code)
	}
}

func TestNilProviders(t *testing.T) {
	s := startTestServer(t, Options{})
	for _, path := range []string{"/api/status", "/api/matrix", "/api/hist", "/api/trace"} {
		if code, _ := get(t, s, path); code != http.StatusServiceUnavailable {
			t.Fatalf("%s with nil provider returned %d, want 503", path, code)
		}
	}
	if code := post(t, s, `{}`); code != http.StatusServiceUnavailable {
		t.Fatalf("/api/fault with nil provider returned %d, want 503", code)
	}
}

func post(t *testing.T, s *Server, body string) int {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", s.Addr()),
		"application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// fakeFault is a Fault provider that records each body it reads and
// knows no fault vocabulary: a body that is not one JSON value is a
// bad request, one that names "refuse" is refused, and the rest land.
func fakeFault(seen *[]string) func(io.Reader) error {
	return func(body io.Reader) error {
		b, err := io.ReadAll(body)
		if err != nil {
			return err
		}
		*seen = append(*seen, string(b))
		switch {
		case !json.Valid(b):
			return fmt.Errorf("%w: not one JSON value", ErrBadRequest)
		case bytes.Contains(b, []byte("refuse")):
			return errors.New("refused")
		}
		return nil
	}
}

// FuzzFaultRequest posts arbitrary bodies to /api/fault with fakeFault
// as the provider. The handler never panics, hands the provider the body
// verbatim exactly once, and answers by its verdict: 400 for an error
// wrapping ErrBadRequest, 422 for any other error, 200 for none.
func FuzzFaultRequest(f *testing.F) {
	for _, body := range []string{
		// TestEndpoints, TestNilProviders and the live workload tests.
		`{"scales":[1,8]}`,
		`{"slow_factor":-1}`,
		`{}`,
		`{"scales":[1,4]}`,
		// CI's telemetry smoke.
		`{"crash":{"locale":1}}`,
		`{"crash":{"locale":0}}`,
		`{"sever":[2,3]}`,
		`{"heal":[2,3]}`,
		// The other forms, a body with a tail and one the fake refuses.
		`{"clear":true}`,
		`{"scales":[1,2.5,1,1]}`,
		`{"heal":[2,3]} {"crash":{"locale":1}} junk`,
		`{"refuse":true}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var seen []string
		h := newHandler(Options{Fault: fakeFault(&seen)})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/fault", bytes.NewReader(body)))

		want := http.StatusOK
		switch {
		case !json.Valid(body):
			want = http.StatusBadRequest
		case bytes.Contains(body, []byte("refuse")):
			want = http.StatusUnprocessableEntity
		}
		if rec.Code != want {
			t.Fatalf("status %d, want %d", rec.Code, want)
		}
		if len(seen) != 1 || seen[0] != string(body) {
			t.Fatalf("provider saw %q, want the body once", seen)
		}
	})
}
