package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestSpanRoundTrip drains a handful of spans and instants back out
// and checks every recorded field survives.
func TestSpanRoundTrip(t *testing.T) {
	r := NewRecorder(2, Config{BufferSize: 128})
	sp := r.Begin(0, KindDispatch, 7, 0, 1, 64, 3)
	if !sp.active() {
		t.Fatal("unsampled recorder declined a span")
	}
	sp.End()
	r.Instant(1, KindReroute, 9, 1, 0, 0, 42)
	mig := r.Begin(1, KindMigrate, 9, 1, 0, 0, 5)
	mig.EndWith(4096, 5)

	evs := r.Drain(0)
	if len(evs) != 5 {
		t.Fatalf("drained %d events, want 5", len(evs))
	}
	var begin, end, inst, migEnd *Event
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Kind == KindDispatch && ev.Phase == PhaseBegin:
			begin = ev
		case ev.Kind == KindDispatch && ev.Phase == PhaseEnd:
			end = ev
		case ev.Kind == KindReroute:
			inst = ev
		case ev.Kind == KindMigrate && ev.Phase == PhaseEnd:
			migEnd = ev
		}
	}
	if begin == nil || end == nil || inst == nil || migEnd == nil {
		t.Fatalf("missing events in %+v", evs)
	}
	if begin.Seq != end.Seq {
		t.Fatalf("span halves disagree on seq: %d vs %d", begin.Seq, end.Seq)
	}
	if begin.Src != 0 || begin.Dst != 1 || begin.Bytes != 64 || begin.Arg != 3 || begin.Task != 7 {
		t.Fatalf("begin fields corrupted: %+v", begin)
	}
	if end.TS < begin.TS {
		t.Fatalf("end before begin: %d < %d", end.TS, begin.TS)
	}
	if inst.Phase != PhaseInstant || inst.Arg != 42 {
		t.Fatalf("instant fields corrupted: %+v", inst)
	}
	if migEnd.Bytes != 4096 || migEnd.Arg != 5 {
		t.Fatalf("EndWith did not update payload: %+v", migEnd)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped %d events from an uncontended run", r.Dropped())
	}
}

// TestDisabledAndZeroSpan checks the inert paths: a disabled recorder
// declines everything, and the zero Span's End is a no-op.
func TestDisabledAndZeroSpan(t *testing.T) {
	r := NewRecorder(1, Config{BufferSize: 64})
	r.SetEnabled(false)
	sp := r.Begin(0, KindDispatch, 1, 0, 0, 0, 0)
	if sp.active() {
		t.Fatal("disabled recorder handed out a live span")
	}
	sp.End() // must not panic or record
	r.Instant(0, KindReroute, 1, 0, 0, 0, 0)
	if evs := r.Drain(0); len(evs) != 0 {
		t.Fatalf("disabled recorder buffered %d events", len(evs))
	}
	var zero Span
	zero.End()
	zero.EndWith(1, 1)
}

// TestSampling checks the 1-in-N clock for sampled kinds and that
// control-plane kinds bypass it entirely.
func TestSampling(t *testing.T) {
	r := NewRecorder(1, Config{BufferSize: 1 << 12, SampleRate: 4})
	const n = 1000
	for i := 0; i < n; i++ {
		r.Begin(0, KindDispatch, 1, 0, 0, 0, 0).End()
	}
	for i := 0; i < 10; i++ {
		r.Begin(0, KindMigrate, 1, 0, 0, 0, 0).End()
	}
	books := r.Books()
	if got := books[KindDispatch].Begins; got != n/4 {
		t.Fatalf("sampled 1/4 of %d dispatches: recorded %d, want %d", n, got, n/4)
	}
	if got := books[KindMigrate].Begins; got != 10 {
		t.Fatalf("control-plane kind was sampled: recorded %d of 10 migrations", got)
	}
	if !BooksBalanced(books) {
		t.Fatalf("books unbalanced: %+v", books)
	}
}

// TestWrapAroundDropsNeverBlock storms a deliberately tiny ring with
// no consumer: pushes must return (never block), losses must land in
// the TraceDropped counter, and the decision books must still balance.
func TestWrapAroundDropsNeverBlock(t *testing.T) {
	r := NewRecorder(2, Config{BufferSize: 64})
	const writers, spansEach = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			loc := w % 2
			for i := 0; i < spansEach; i++ {
				r.Begin(loc, KindDispatch, uint64(w), loc, 1-loc, 8, 0).End()
			}
		}(w)
	}
	wg.Wait()
	if r.Dropped() == 0 {
		t.Fatal("a 64-slot ring absorbed 16000 events without dropping")
	}
	books := r.Books()
	if !BooksBalanced(books) {
		t.Fatalf("books unbalanced after drops: %+v", books)
	}
	want := int64(writers * spansEach)
	if books[KindDispatch].Begins != want {
		t.Fatalf("books counted %d begins, want %d", books[KindDispatch].Begins, want)
	}
	// Everything still buffered + everything dropped == everything recorded.
	drained := int64(len(r.Drain(0)))
	if drained+r.Dropped() != 2*want {
		t.Fatalf("events unaccounted for: drained %d + dropped %d != %d",
			drained, r.Dropped(), 2*want)
	}
}

// TestConcurrentWritersVsDrainer is the -race satellite: concurrent
// writers across locales race a draining exporter. Asserts no torn
// records (a checksum ties every field together), begins == ends
// books, and complete accounting between drained and dropped events.
func TestConcurrentWritersVsDrainer(t *testing.T) {
	const locales, writersPerLocale, spansEach = 4, 4, 3000
	r := NewRecorder(locales, Config{BufferSize: 1 << 10})

	var wg sync.WaitGroup
	for loc := 0; loc < locales; loc++ {
		for w := 0; w < writersPerLocale; w++ {
			wg.Add(1)
			go func(loc, w int) {
				defer wg.Done()
				task := uint64(loc*writersPerLocale + w)
				for i := 0; i < spansEach; i++ {
					dst := (loc + i) % locales
					bytes := int64(i % 512)
					// Arg carries a checksum over the other payload
					// fields so a torn read is detectable.
					arg := int64(loc) + int64(dst)*3 + bytes*7 + int64(task)*11
					sp := r.Begin(loc, KindDispatch, task, loc, dst, bytes, arg)
					r.Instant(loc, KindReroute, task, loc, dst, bytes, arg)
					sp.End()
				}
			}(loc, w)
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var drained []Event
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		drained = append(drained, r.Drain(0)...)
	}
	drained = append(drained, r.Drain(0)...)

	open := map[uint64]Event{}
	for _, ev := range drained {
		if arg := int64(ev.Src) + int64(ev.Dst)*3 + ev.Bytes*7 + int64(ev.Task)*11; ev.Arg != arg {
			t.Fatalf("torn record: %+v (checksum %d)", ev, arg)
		}
		switch ev.Phase {
		case PhaseBegin:
			if _, dup := open[ev.Seq]; dup {
				t.Fatalf("duplicate begin for seq %d", ev.Seq)
			}
			open[ev.Seq] = ev
		case PhaseEnd:
			if b, ok := open[ev.Seq]; ok {
				if b.Src != ev.Src || b.Dst != ev.Dst || b.Task != ev.Task {
					t.Fatalf("span halves disagree: begin %+v end %+v", b, ev)
				}
				delete(open, ev.Seq)
			}
		}
	}
	books := r.Books()
	if !BooksBalanced(books) {
		t.Fatalf("books unbalanced: %+v", books)
	}
	total := int64(locales * writersPerLocale * spansEach)
	if books[KindDispatch].Begins != total {
		t.Fatalf("dispatch begins %d, want %d", books[KindDispatch].Begins, total)
	}
	if books[KindReroute].Instants != total {
		t.Fatalf("reroute instants %d, want %d", books[KindReroute].Instants, total)
	}
	if got := int64(len(drained)) + r.Dropped(); got != 3*total {
		t.Fatalf("events unaccounted for: drained+dropped %d, want %d", got, 3*total)
	}
}

// TestChromeExport checks the exported JSON parses as the Chrome
// trace-event array format with paired async begin/end ids.
func TestChromeExport(t *testing.T) {
	r := NewRecorder(2, Config{BufferSize: 256})
	r.Begin(0, KindDispatch, 3, 0, 1, 128, 0).End()
	r.Begin(1, KindMigrate, 4, 1, 0, 0, 9).EndWith(2048, 9)
	r.Instant(0, KindPinned, 3, 0, 0, 0, 2)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Drain(0)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	byPhase := map[string]int{}
	ids := map[string][]string{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		byPhase[ph]++
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing %q: %v", field, ev)
			}
		}
		if ph == "b" || ph == "e" {
			id, _ := ev["id"].(string)
			if id == "" {
				t.Fatalf("async event without id: %v", ev)
			}
			ids[ph] = append(ids[ph], id)
		}
	}
	if byPhase["b"] != 2 || byPhase["e"] != 2 || byPhase["i"] != 1 || byPhase["M"] != 2 {
		t.Fatalf("phase counts off: %v", byPhase)
	}
	if len(ids["b"]) != len(ids["e"]) {
		t.Fatalf("unpaired async ids: %v", ids)
	}
}

// TestSummarize checks per-kind span matching and the begin/end/instant
// counts.
func TestSummarize(t *testing.T) {
	r := NewRecorder(1, Config{BufferSize: 256})
	for i := 0; i < 5; i++ {
		r.Begin(0, KindFlush, 1, 0, 1, 100, 4).End()
	}
	r.Instant(0, KindPinned, 1, 0, 0, 0, 1)
	sum := Summarize(r.Drain(0))
	if sum.Events != 11 {
		t.Fatalf("summarized %d events, want 11", sum.Events)
	}
	if got := sum.Kinds[KindFlush].Spans; got != 5 {
		t.Fatalf("matched %d flush spans, want 5", got)
	}
	if f := sum.Kinds[KindFlush]; f.Begins != 5 || f.Ends != 5 {
		t.Fatalf("flush begins/ends = %d/%d, want 5/5", f.Begins, f.Ends)
	}
	if got := sum.Kinds[KindPinned].Instants; got != 1 {
		t.Fatalf("pinned instants = %d, want 1", got)
	}
	if sum.Kinds[KindFlush].Bytes != 500 {
		t.Fatalf("flush bytes %d, want 500", sum.Kinds[KindFlush].Bytes)
	}
}

// TestDrainWindow checks windowed draining: partial drains consume in
// order and successive windows eventually empty the rings.
func TestDrainWindow(t *testing.T) {
	r := NewRecorder(1, Config{BufferSize: 256})
	for i := 0; i < 10; i++ {
		r.Begin(0, KindDispatch, 1, 0, 0, 0, int64(i)).End()
	}
	first := r.Drain(6)
	if len(first) != 6 {
		t.Fatalf("window drained %d events, want 6", len(first))
	}
	rest := r.Drain(0)
	if len(rest) != 14 {
		t.Fatalf("remainder drained %d events, want 14", len(rest))
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped %d", r.Dropped())
	}
}

// TestRecordZeroAlloc pins the zero-allocation guarantee for the
// enabled record path (both ring-hit and sampled-out flavours).
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(1, Config{BufferSize: 1 << 16})
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Begin(0, KindDispatch, 1, 0, 1, 64, 0).End()
	}); allocs > 0 {
		t.Fatalf("recording allocates %.1f/op", allocs)
	}
	rs := NewRecorder(1, Config{BufferSize: 1 << 10, SampleRate: 1 << 30})
	if allocs := testing.AllocsPerRun(1000, func() {
		rs.Begin(0, KindDispatch, 1, 0, 1, 64, 0).End()
	}); allocs > 0 {
		t.Fatalf("sampled-out path allocates %.1f/op", allocs)
	}
}
