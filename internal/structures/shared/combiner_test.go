package shared

import (
	"sync"
	"testing"

	"gopgas/internal/trace"
)

// A concurrent publication storm: every Do applies exactly once, and
// the combiner's serialization is strong enough that the published
// functions can mutate plain shared state with no atomics of their
// own — the property the -race run verifies. The pass spans count the
// same total: their args sum to every operation applied, over at
// least one pass and at most one per operation.
func TestCombinerStorm(t *testing.T) {
	const workers, perWorker = 8, 500
	rec := trace.NewRecorder(1, trace.Config{BufferSize: 4 * workers * perWorker})
	var cb Combiner
	cb.SetTracer(rec, 0)
	counter := 0 // plain int: combiner serialization is its only guard
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cb.Do(func() { counter++ })
			}
		}()
	}
	wg.Wait()
	if counter != workers*perWorker {
		t.Fatalf("counter = %d, want %d (ops lost or doubled)", counter, workers*perWorker)
	}
	var spans, applied int64
	for _, ev := range rec.Drain(0) {
		if ev.Kind == trace.KindCombine && ev.Phase == trace.PhaseEnd {
			spans++
			applied += ev.Arg
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events with a roomy buffer", rec.Dropped())
	}
	if applied != workers*perWorker {
		t.Fatalf("combine spans applied %d, want %d", applied, workers*perWorker)
	}
	if spans < 1 || spans > applied {
		t.Fatalf("%d combine spans outside [1, %d]", spans, applied)
	}
}

// One task's Do calls apply in program order even when another task is
// the elected combiner: the drain reverses the LIFO publication list
// back to publication order.
func TestCombinerOrder(t *testing.T) {
	var cb Combiner
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		cb.Do(func() { got = append(got, i) })
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("apply order broken at %d: %v", i, got[:i+1])
		}
	}
}
