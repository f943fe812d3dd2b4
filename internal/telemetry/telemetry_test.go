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
	var faults []FaultRequest
	s := startTestServer(t, Options{
		Status: func() any { return map[string]any{"scenario": "test", "ops": 42} },
		Matrix: func() [][]int64 { return [][]int64{{0, 3}, {5, 0}} },
		Hist:   func() any { return map[string]any{"count": 2, "p50_ns": 1000} },
		Trace:  func(max int) []trace.Event { return r.Drain(max) },
		Fault: func(req FaultRequest) error {
			if req.Crash && req.CrashLocale == 0 {
				return fmt.Errorf("locale 0 cannot crash")
			}
			faults = append(faults, req)
			return nil
		},
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

	resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", s.Addr()),
		"application/json", bytes.NewBufferString(`{"scales":[1,8]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/fault POST: %d", resp.StatusCode)
	}
	if len(faults) != 1 || !reflect.DeepEqual(faults[0].Scales, []float64{1, 8}) {
		t.Fatalf("fault not delivered: %+v", faults)
	}
	resp, err = http.Post(fmt.Sprintf("http://%s/api/fault", s.Addr()),
		"application/json", bytes.NewBufferString(`{"crash":true,"crash_locale":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rejected fault returned %d", resp.StatusCode)
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
	resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", s.Addr()),
		"application/json", bytes.NewBufferString(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/api/fault with nil provider returned %d, want 503", resp.StatusCode)
	}
}

// A fault request is one JSON value: a body with anything after it is
// a 400, and the provider never sees its first value.
func TestFaultRejectsTrailingData(t *testing.T) {
	var faults []FaultRequest
	s := startTestServer(t, Options{Fault: func(req FaultRequest) error {
		faults = append(faults, req)
		return nil
	}})
	for _, body := range []string{
		`{"heal":true,"heal_a":2,"heal_b":3} {"crash":true} junk`,
		`{"scales":[1,8]}}`,
	} {
		resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", s.Addr()),
			"application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if len(faults) != 0 {
		t.Fatalf("provider saw %+v from bodies with trailing data", faults)
	}
}

// A fault request names only known fields: a retired field or a typo
// beside a valid form is a 400 the provider never sees, while the
// bodies the CI telemetry smoke posts still reach it.
func TestFaultRejectsUnknownFields(t *testing.T) {
	var faults []FaultRequest
	s := startTestServer(t, Options{Fault: func(req FaultRequest) error {
		faults = append(faults, req)
		return nil
	}})
	post := func(body string) int {
		resp, err := http.Post(fmt.Sprintf("http://%s/api/fault", s.Addr()),
			"application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{`{"slow_factor":4}`, `{"scales":[1,4],"sevr":true}`} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, code)
		}
	}
	if len(faults) != 0 {
		t.Fatalf("provider saw %+v from bodies with unknown fields", faults)
	}
	smoke := []string{
		`{"crash":true,"crash_locale":1}`,
		`{"sever":true,"sever_a":2,"sever_b":3}`,
		`{"heal":true,"heal_a":2,"heal_b":3}`,
	}
	for _, body := range smoke {
		if code := post(body); code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", body, code)
		}
	}
	if len(faults) != len(smoke) {
		t.Fatalf("provider saw %d of the %d smoke bodies", len(faults), len(smoke))
	}
}

// FuzzFaultRequest posts arbitrary bodies to /api/fault with a
// recording provider that refuses a crash of locale 0. The handler
// never panics and answers 200, 400 or 422: a body that does not
// decode strictly as one FaultRequest (a tail, or a field it does not
// know) is a 400 the provider never sees, and any
// other body reaches the provider exactly once, as its decode — a 200
// when the provider accepts it, a 422 when it refuses.
func FuzzFaultRequest(f *testing.F) {
	for _, body := range []string{
		// TestEndpoints, TestNilProviders and the live workload test.
		`{"scales":[1,8]}`,
		`{"slow_factor":-1}`, // a retired field: a 400 the provider never sees
		`{}`,
		`{"scales":[1,4]}`,
		// CI's telemetry smoke.
		`{"crash":true,"crash_locale":1}`,
		`{"crash":true,"crash_locale":0}`,
		`{"sever":true,"sever_a":2,"sever_b":3}`,
		`{"heal":true,"heal_a":2,"heal_b":3}`,
		// The other forms, and a body with a tail.
		`{"clear":true}`,
		`{"scales":[1,2.5,1,1]}`,
		`{"heal":true,"heal_a":2,"heal_b":3} {"crash":true} junk`,
		`{"scales":[1,4],"sevr":true}`, // a typo beside a valid form
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var seen []FaultRequest
		h := newHandler(Options{Fault: func(req FaultRequest) error {
			seen = append(seen, req)
			if req.Crash && req.CrashLocale == 0 {
				return errors.New("locale 0 cannot crash")
			}
			return nil
		}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/fault", bytes.NewReader(body)))

		// The oracle: one JSON value and nothing after it (Unmarshal),
		// whose every field FaultRequest knows (a strict decoder).
		var want FaultRequest
		decodeErr := json.Unmarshal(body, &want)
		if decodeErr == nil {
			strict := json.NewDecoder(bytes.NewReader(body))
			strict.DisallowUnknownFields()
			decodeErr = strict.Decode(new(FaultRequest))
		}
		switch rec.Code {
		case http.StatusOK, http.StatusUnprocessableEntity:
			if decodeErr != nil {
				t.Fatalf("status %d for a body that does not decode (%v)", rec.Code, decodeErr)
			}
			if len(seen) != 1 || !reflect.DeepEqual(seen[0], want) {
				t.Fatalf("provider saw %+v, want exactly [%+v]", seen, want)
			}
			if refused := want.Crash && want.CrashLocale == 0; refused != (rec.Code == http.StatusUnprocessableEntity) {
				t.Fatalf("status %d for %+v", rec.Code, want)
			}
		case http.StatusBadRequest:
			if decodeErr == nil {
				t.Fatalf("400 for a body that decodes to %+v", want)
			}
			if len(seen) != 0 {
				t.Fatalf("provider saw %+v from a rejected body", seen)
			}
		default:
			t.Fatalf("status %d, want 200, 400 or 422", rec.Code)
		}
	})
}
