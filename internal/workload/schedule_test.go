package workload

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
)

// scheduleRun boots a 4-locale system with a hashmap on it and binds
// faults' schedule to it the way RunLive does, minus the workers: the
// test is the only goroutine, so it plays both the boundary and the
// clock by calling step with hand-fed (phase, issued, now) triples.
func scheduleRun(t *testing.T, faults Faults) *run {
	t.Helper()
	spec := Spec{
		Structure: StructureHashmap, Locales: 4, TasksPerLocale: 2,
		Faults: faults,
		Phases: make([]Phase, 4),
	}.WithDefaults()
	for i := range spec.Phases {
		spec.Phases[i] = Phase{Name: "p", Mix: Mix{Insert: 1}, OpsPerTask: 1}
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := pgas.NewSystem(pgas.Config{Locales: spec.Locales})
	t.Cleanup(sys.Shutdown)
	drv, err := NewDriver(spec.Structure)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{spec: spec, sys: sys, c0: sys.Ctx(0), drv: drv,
		avail: &AvailabilityReport{Recovered: true}, severed: make(map[[2]int]time.Time),
		sched: newSchedule(spec.Faults), workers: make([]sync.WaitGroup, spec.Locales)}
	r.em = epoch.NewEpochManager(r.c0)
	drv.Setup(r.c0, r.em, spec)
	return r
}

// faultState is everything a liveness fault can change, read back from
// the system and the run rather than from the schedule's own notion of
// it: which pairs are cut, which locales are up, the lifecycle counters,
// and which events (by timeline position) have yet to land.
type faultState struct {
	Severed                    [][2]int
	Dead                       []int
	Partitions, Heals, Crashes int
	TimeToHealNS               int64
	Pending                    []int
}

func stateOf(r *run) faultState {
	var st faultState
	st.Severed, st.Dead = liveness(r.sys)
	st.Partitions, st.Heals, st.Crashes = r.avail.Partitions, r.avail.Heals, r.avail.Crashes
	st.TimeToHealNS = r.avail.TimeToHealNS
	for i := r.sched.next; i < len(r.sched.events); i++ {
		st.Pending = append(st.Pending, i)
	}
	return st
}

// liveness reads the system's severed pairs and dead locales.
func liveness(sys *pgas.System) (severed [][2]int, dead []int) {
	n := sys.NumLocales()
	for a := 0; a < n; a++ {
		if !sys.Alive(a) {
			dead = append(dead, a)
			continue
		}
		for b := a + 1; b < n; b++ {
			if sys.Alive(b) && !sys.Reachable(a, b) {
				severed = append(severed, [2]int{a, b})
			}
		}
	}
	return severed, dead
}

// Fault builders for the schedule tests.
func sever(a, b int) Fault       { return Fault{Sever: []int{a, b}} }
func heal(a, b int) Fault        { return Fault{Heal: []int{a, b}} }
func crash(l int, fo bool) Fault { return Fault{Crash: &CrashFault{Locale: l, Failover: fo}} }

// TestScheduleStepsInListOrder drives the engine's one fault applier
// without workers, sleeps or a clock goroutine. After every step the
// whole fault state is compared, not just the field the step was meant
// to move: events land once each, in timeline order, each waiting for
// the one before it; a heal listed after an op-marked sever waits for
// the sever even when its after_ms has passed since the phase started,
// and is then due after_ms after the sever landed; an event its phase
// left pending lands at the next boundary step, ahead of that phase's
// own; a pair that heals and re-severs at one boundary ends severed; and
// what the last phase leaves pending never lands.
func TestScheduleStepsInListOrder(t *testing.T) {
	r := scheduleRun(t, Faults{Events: []Event{
		// Declared out of phase order on purpose: newSchedule sorts
		// stably, so each phase keeps its list order.
		{Phase: 3, AfterOps: 900, Fault: sever(0, 2)},
		{Phase: 1, AfterOps: 200, Fault: sever(1, 2)},
		{Phase: 2, Fault: heal(0, 1)},
		{Phase: 1, AfterMS: 30, Fault: heal(1, 2)},
		{Phase: 0, Fault: sever(0, 1)},
		{Phase: 1, AfterOps: 500, Fault: crash(3, true)},
		{Phase: 2, Fault: sever(0, 1)},
	}})
	want := []Event{
		0: {Phase: 0, Fault: sever(0, 1)},
		1: {Phase: 1, AfterOps: 200, Fault: sever(1, 2)},
		2: {Phase: 1, AfterMS: 30, Fault: heal(1, 2)},
		3: {Phase: 1, AfterOps: 500, Fault: crash(3, true)},
		4: {Phase: 2, Fault: heal(0, 1)},
		5: {Phase: 2, Fault: sever(0, 1)},
		6: {Phase: 3, AfterOps: 900, Fault: sever(0, 2)},
	}
	if !reflect.DeepEqual(r.sched.events, want) {
		t.Fatalf("timeline:\n got %+v\nwant %+v", r.sched.events, want)
	}

	t0 := time.Unix(1_000_000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	steps := []struct {
		name   string
		phase  int
		issued int64
		now    time.Time
		want   faultState
	}{
		{"phase 0 boundary: the boundary sever, nothing of a later phase", 0, 0, at(0),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6}}},
		{"phase 0 clock: the next event is phase 1's, whatever the op count", 0, 1 << 40, at(1),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6}}},
		{"phase 1 boundary: the sever's mark not reached", 1, 0, at(10),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6}}},
		{"phase 1 clock: one op short of the sever's mark; the heal's 30ms have passed since the phase began, but it waits for the sever", 1, 199, at(50),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6}}},
		{"phase 1 clock: past the mark, the sever lands; the heal is now due 30ms after it", 1, 340, at(52),
			faultState{Severed: [][2]int{{0, 1}, {1, 2}}, Partitions: 2, Pending: []int{2, 3, 4, 5, 6}}},
		{"phase 1 clock: 29ms after the sever, the heal is not due and the crash waits behind it", 1, 499, at(81),
			faultState{Severed: [][2]int{{0, 1}, {1, 2}}, Partitions: 2, Pending: []int{2, 3, 4, 5, 6}}},
		{"phase 1 clock: 30ms after the sever, the heal lands; the crash is one op short of its mark", 1, 499, at(82),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 2, Heals: 1, TimeToHealNS: 30e6, Pending: []int{3, 4, 5, 6}}},
		{"phase 1 clock: same total again lands nothing", 1, 499, at(85),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 2, Heals: 1, TimeToHealNS: 30e6, Pending: []int{3, 4, 5, 6}}},
		{"phase 2 boundary: phase 1's pending crash lands first; then (0,1) heals, re-severs and ends severed", 2, 0, at(90),
			faultState{Severed: [][2]int{{0, 1}}, Dead: []int{3}, Partitions: 3, Heals: 2, Crashes: 1,
				TimeToHealNS: (30 + 90) * 1e6, Pending: []int{6}}},
		{"phase 3 boundary: the op-marked sever waits", 3, 0, at(100),
			faultState{Severed: [][2]int{{0, 1}}, Dead: []int{3}, Partitions: 3, Heals: 2, Crashes: 1,
				TimeToHealNS: (30 + 90) * 1e6, Pending: []int{6}}},
		{"phase 3 clock: the last phase ends below the mark, so it never lands", 3, 899, at(110),
			faultState{Severed: [][2]int{{0, 1}}, Dead: []int{3}, Partitions: 3, Heals: 2, Crashes: 1,
				TimeToHealNS: (30 + 90) * 1e6, Pending: []int{6}}},
	}
	for _, s := range steps {
		r.step(s.phase, s.issued, s.now)
		if got := stateOf(r); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", s.name, got, s.want)
		}
	}
	if !r.avail.Recovered || r.avail.ShardsAdopted == 0 || r.avail.TokensForceRetired != 2 {
		t.Fatalf("the failover crash did not recover: %+v", r.avail)
	}
}

// TestScheduleWaitAndOutOfBandHeal covers what the round clock asks of
// the schedule — how long it may sleep, and whether a round needs a clock
// at all — and the one out-of-band case step must tolerate: a pair a live
// heal repaired first (booked by apply, as a live fault is) makes the
// scheduled heal settle without booking a second one. An event with
// both triggers waits for both.
func TestScheduleWaitAndOutOfBandHeal(t *testing.T) {
	r := scheduleRun(t, Faults{Events: []Event{
		{Phase: 1, AfterOps: 100, Fault: sever(1, 2)},
		{Phase: 1, AfterMS: 30, Fault: heal(1, 2)},
		{Phase: 1, AfterOps: 300, AfterMS: 5, Fault: sever(2, 3)},
	}})
	t0 := time.Unix(1_000_000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	wait := func(phase int, now time.Time) time.Duration {
		d, ok := r.wait(phase, now)
		if !ok {
			return -1
		}
		return d
	}
	r.step(0, 0, t0)
	if d := wait(0, t0); d != -1 {
		t.Fatalf("phase 0 has no event, yet its rounds would start a clock (wait %v)", d)
	}
	r.step(1, 0, t0)
	if d := wait(1, t0); d != 200*time.Microsecond {
		t.Fatalf("pending op mark: wait %v, want the 200µs poll", d)
	}
	r.step(1, 100, t0)
	if d := wait(1, ms(10)); d != 20*time.Millisecond {
		t.Fatalf("timed heal: wait %v, want the 20ms left on it", d)
	}
	if d := wait(2, ms(31)); d != -1 {
		t.Fatalf("phase 1's heal in phase 2: wait %v, want none (it lands at the boundary step)", d)
	}
	if err := r.apply(heal(1, 2), ms(20)); err != nil { // a live heal
		t.Fatal(err)
	}
	r.step(1, 100, ms(31))
	want := faultState{Partitions: 1, Heals: 1, TimeToHealNS: 20e6, Pending: []int{2}}
	if got := stateOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the schedule's heal of a pair healed out of band:\n got %+v\nwant %+v", got, want)
	}
	if d := wait(1, ms(31)); d != 5*time.Millisecond {
		t.Fatalf("both triggers, neither met: wait %v, want the 5ms left on after_ms", d)
	}
	r.step(1, 300, ms(35))
	if d := wait(1, ms(40)); d != 200*time.Microsecond || len(stateOf(r).Severed) != 0 {
		t.Fatalf("after_ms met, op mark not: wait %v, severed %v, want the 200µs poll and nothing landed", d, stateOf(r).Severed)
	}
	r.step(1, 299, ms(40))
	if len(stateOf(r).Severed) != 0 {
		t.Fatal("an event with both triggers landed on its after_ms alone")
	}
	r.step(1, 300, ms(41))
	want = faultState{Severed: [][2]int{{2, 3}}, Partitions: 2, Heals: 1, TimeToHealNS: 20e6}
	if got := stateOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("both triggers met:\n got %+v\nwant %+v", got, want)
	}
	if d := wait(1, ms(42)); d != -1 {
		t.Fatalf("everything landed, yet a round would start a clock (wait %v)", d)
	}
}
