package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry in the Chrome trace-event JSON format
// (the "JSON Array Format" Perfetto and chrome://tracing load).
// Spans export as async begin/end pairs ("b"/"e") keyed by id — async
// rather than duration events because dispatch spans from one task
// overlap freely and combiner passes run under tasks the recorder
// never saw, so strict B/E nesting cannot be guaranteed.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int64          `json:"pid"`
	TID   uint64         `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports events as Chrome trace-event JSON with
// locale mapped to "process" and task to "thread", loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Timestamps are
// microseconds (fractional) since the recorder epoch.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := chromeTrace{DisplayTimeUnit: "ns"}
	locales := map[int64]bool{}
	for _, ev := range events {
		pid := int64(ev.Src)
		if !locales[pid] {
			locales[pid] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": fmt.Sprintf("locale %d", pid)},
			})
		}
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Cat:  "gopgas",
			TS:   float64(ev.TS) / 1e3,
			PID:  pid,
			TID:  ev.Task,
			Args: map[string]any{
				"src": ev.Src, "dst": ev.Dst, "seq": ev.Seq,
			},
		}
		if ev.Bytes != 0 {
			ce.Args["bytes"] = ev.Bytes
		}
		if ev.Arg != 0 {
			ce.Args["arg"] = ev.Arg
		}
		switch ev.Phase {
		case PhaseBegin:
			ce.Ph = "b"
			ce.ID = fmt.Sprintf("%#x", ev.Seq)
		case PhaseEnd:
			ce.Ph = "e"
			ce.ID = fmt.Sprintf("%#x", ev.Seq)
		default:
			ce.Ph = "i"
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// KindStats is one kind's share of a drained event stream.
type KindStats struct {
	Kind     string `json:"kind"`
	Begins   int64  `json:"begins"`
	Ends     int64  `json:"ends"`
	Instants int64  `json:"instants,omitempty"`
	// Spans counts begin/end pairs matched by seq; TotalNS/MaxNS sum
	// and bound their durations.
	Spans   int64 `json:"spans"`
	TotalNS int64 `json:"total_ns"`
	MaxNS   int64 `json:"max_ns"`
	// Bytes sums the end-half payload of matched spans.
	Bytes int64 `json:"bytes,omitempty"`
}

// Summary aggregates a drained event stream per kind.
type Summary struct {
	Events int64       `json:"events"`
	Kinds  []KindStats `json:"kinds"`
}

// Summarize aggregates events (as returned by Drain) into per-kind
// span counts and durations. Event-level begins equal ends whenever
// the recorder dropped nothing; the recorder's Books are the
// drop-proof accounting.
func Summarize(events []Event) Summary {
	s := Summary{Events: int64(len(events)), Kinds: make([]KindStats, numKinds)}
	for k := 0; k < int(numKinds); k++ {
		s.Kinds[k].Kind = Kind(k).String()
	}
	begins := make(map[uint64]int64, len(events)/2)
	for _, ev := range events {
		ks := &s.Kinds[ev.Kind]
		switch ev.Phase {
		case PhaseBegin:
			ks.Begins++
			begins[ev.Seq] = ev.TS
		case PhaseEnd:
			ks.Ends++
			if t0, ok := begins[ev.Seq]; ok {
				delete(begins, ev.Seq)
				dur := ev.TS - t0
				ks.Spans++
				ks.TotalNS += dur
				if dur > ks.MaxNS {
					ks.MaxNS = dur
				}
				ks.Bytes += ev.Bytes
			}
		default:
			ks.Instants++
		}
	}
	return s
}
