package epoch

import (
	"bytes"
	"runtime"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

// checkState asserts the manager's whole state after a transition —
// the global epoch and every locale's cache, pins and limbo lengths —
// not only the field the transition meant to change.
func checkState(t *testing.T, c *pgas.Ctx, em EpochManager, after string, want Snapshot) {
	t.Helper()
	if err := em.Snapshot(c).Diff(want); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// settled is the state of a manager over n locales whose caches all
// hold e, with no pin and nothing deferred; tests set on it what a
// transition should have left behind.
func settled(n int, e uint64) Snapshot {
	s := Snapshot{Global: e, Locales: make([]LocaleState, n)}
	for l := range s.Locales {
		s.Locales[l].Cache = e
	}
	return s
}

// setYield installs fn as the advance pass's schedule point for the
// rest of the test.
func setYield(t *testing.T, fn func(locale int)) {
	yieldAfterStore = fn
	t.Cleanup(func() { yieldAfterStore = nil })
}

// The advance pass stores the new epoch on locale 0 before locale 1.
// Between the two stores a reader on locale 0 pins the new epoch and
// takes a reference to x, and a task on locale 1, whose cache still
// holds the old epoch, unlinks x and files it under the old one. The
// next advance is allowed (the reader's pin is current) and must not
// free x, which the reader still holds; with three generations it did.
func TestGraceSpansALaggingCache(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	c0, c1 := s.Ctx(0), s.Ctx(1)
	em := NewEpochManager(c0)
	x := c1.Alloc(&payload{v: 7})
	reader := em.Register(c0)
	var held *payload
	setYield(t, func(locale int) {
		if locale != 0 || held != nil {
			return
		}
		reader.Pin(c0)
		held = pgas.MustDeref[*payload](c0, x)
		unlinker := em.Register(c1)
		unlinker.Pin(c1)
		unlinker.DeferDelete(c1, x)
		unlinker.Unpin(c1)
		unlinker.Unregister(c1)
	})

	em.TryReclaim(c0)
	if held == nil {
		t.Fatal("the schedule point never ran")
	}
	want := settled(2, 2)
	want.Locales[0].Pinned[2] = 1
	want.Locales[1].Limbo[1] = 1
	checkState(t, c0, em, "the advance to 2", want)

	em.TryReclaim(c0)
	if _, ok := pgas.Deref[*payload](c0, x); !ok || held.v != 7 {
		t.Fatal("x was freed while a reader pinned in the current epoch held it")
	}
	want.Global, want.Locales[0].Cache, want.Locales[1].Cache = 3, 3, 3
	checkState(t, c0, em, "the advance to 3", want)

	em.TryReclaim(c0)
	checkState(t, c0, em, "the advance blocked by the reader", want)

	reader.Unpin(c0)
	em.TryReclaim(c0)
	want = settled(2, 4)
	checkState(t, c0, em, "the advance to 4", want)
	if st := em.Stats(c0); st.Deferred != 1 || st.Reclaimed != 1 || st.AdvanceFail != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if uaf := s.HeapStats().UAFLoads; uaf != 0 {
		t.Fatalf("%d use-after-free loads", uaf)
	}
}

// The whole state after every kind of transition: an advance, a
// blocked advance, a force-retire of a crashed locale's pin, the
// advances that then reclaim, and Clear.
func TestWholeStateAcrossTransitions(t *testing.T) {
	const n = 3
	s := newTestSystem(t, n, comm.BackendNone)
	c := s.Ctx(0)
	em := NewEpochManager(c)
	want := settled(n, 1)
	checkState(t, c, em, "creation", want)

	tok := em.Register(c)
	tok.Pin(c)
	for i := 0; i < 2; i++ {
		tok.DeferDelete(c, c.AllocOn(i+1, &payload{v: i}))
	}
	tok.Unpin(c)
	c2 := s.Ctx(2)
	stranded := em.Register(c2)
	stranded.Pin(c2)
	want.Locales[0].Limbo[1] = 2
	want.Locales[2].Pinned[1] = 1
	checkState(t, c, em, "two deferrals and a pin", want)

	em.TryReclaim(c)
	want.Global = 2
	for l := range want.Locales {
		want.Locales[l].Cache = 2
	}
	checkState(t, c, em, "the advance to 2", want)

	em.TryReclaim(c)
	checkState(t, c, em, "the advance blocked by the pin in 1", want)

	if err := s.Crash(2); err != nil {
		t.Fatal(err)
	}
	if got := em.ForceRetire(c.Salvage(), 2); got != 1 {
		t.Fatalf("force-retired %d tokens, want 1", got)
	}
	want.Locales[2].Pinned[1] = 0
	checkState(t, c, em, "the force-retire", want)

	em.TryReclaim(c)
	want.Global = 3
	for l := range want.Locales {
		want.Locales[l].Cache = 3
	}
	checkState(t, c, em, "the advance to 3", want)

	em.TryReclaim(c)
	want = settled(n, 4)
	checkState(t, c, em, "the advance to 4, which reclaims generation 1", want)

	tok.Pin(c)
	tok.DeferDelete(c, c.Alloc(&payload{}))
	tok.Unpin(c)
	want.Locales[0].Limbo[4] = 1
	checkState(t, c, em, "a deferral in 4", want)

	em.Clear(c)
	want.Locales[0].Limbo[4] = 0
	checkState(t, c, em, "Clear", want)
	if st := em.Stats(c); st.Deferred != 3 || st.Reclaimed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// An election runs on the elected task's goroutine: the advance pass
// reaches every locale without spawning one.
func TestTryReclaimSpawnsNoGoroutine(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	c := s.Ctx(0)
	em := NewEpochManager(c)
	caller := goid()
	var visited []int
	setYield(t, func(locale int) {
		if g := goid(); g != caller {
			t.Errorf("locale %d's advance ran on goroutine %s, the elected task's is %s", locale, g, caller)
		}
		visited = append(visited, locale)
	})
	em.TryReclaim(c)
	if len(visited) != 4 {
		t.Fatalf("the advance pass visited %v, want all 4 locales", visited)
	}
}

// Deferred objects are kept per generation: Len counts what a release
// would visit.
func TestLimboLen(t *testing.T) {
	s := newTestSystem(t, 1, comm.BackendNone)
	c := s.Ctx(0)
	l := NewLimboList(c)
	objs := []gas.Addr{c.Alloc(&payload{}), c.Alloc(&payload{}), c.Alloc(&payload{})}
	for i, o := range objs {
		if got := l.Len(c); got != i {
			t.Fatalf("Len = %d after %d pushes", got, i)
		}
		l.Push(c, o)
	}
	if got := len(l.Drain(c)); got != len(objs) || l.Len(c) != 0 {
		t.Fatalf("drained %d, Len after = %d", got, l.Len(c))
	}
}
