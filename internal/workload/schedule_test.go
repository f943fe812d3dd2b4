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
// and which events (by list position) have yet to fire.
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
	for i, e := range r.sched {
		if !e.done {
			st.Pending = append(st.Pending, i)
		}
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

// TestScheduleStepsInListOrder drives the engine's one fault applier
// without workers, sleeps or a clock goroutine. After every step the
// whole fault state is compared, not just the field the step was meant
// to move: each event fires exactly once, at the first step of its phase
// whose issued-op total reaches its mark, in list order; an event of a
// phase that is not the stepped one never fires; a wall-clock heal fires
// at the first step at or past its due time, whatever the phase; and a
// pair that heals and re-severs at one boundary ends severed.
func TestScheduleStepsInListOrder(t *testing.T) {
	r := scheduleRun(t, Faults{
		// Declared out of schedule order on purpose: newSchedule sorts.
		Crashes: []CrashSpec{
			{Locale: 3, Phase: 1, AfterOps: 500, Failover: true},
			{Locale: 3, Phase: 2}, // already dead by then: fires, records nothing
		},
		Partitions: []PartitionSpec{
			{A: 0, B: 1, Phase: 2},                              // re-severs the pair the next one heals
			{A: 0, B: 1, Phase: 0, HealPhase: 2},                // boundary sever, boundary heal
			{A: 1, B: 2, Phase: 1, AtOps: 200, HealAfterMS: 30}, // mid-phase sever, wall-clock heal
			{A: 0, B: 2, Phase: 3, AtOps: 900, HealPhase: 0},    // mark never reached: never fires
		},
	})
	type ev struct {
		fault     Fault
		phase     int
		ops       int64
		wallClock bool
	}
	var got []ev
	for _, e := range r.sched {
		got = append(got, ev{e.fault, e.phase, e.ops, e.after > 0})
	}
	sever := func(a, b int) Fault { return Fault{Sever: []int{a, b}} }
	heal := func(a, b int) Fault { return Fault{Heal: []int{a, b}} }
	want := []ev{
		0: {sever(0, 1), 0, 0, false},
		1: {heal(1, 2), 1, 200, true},
		2: {sever(1, 2), 1, 200, false},
		3: {Fault{Crash: &CrashFault{Locale: 3, Failover: true}}, 1, 500, false},
		4: {heal(0, 1), 2, 0, false},
		5: {sever(0, 1), 2, 0, false},
		6: {Fault{Crash: &CrashFault{Locale: 3}}, 2, 0, false},
		7: {sever(0, 2), 3, 900, false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule order:\n got %+v\nwant %+v", got, want)
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
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6, 7}}},
		{"phase 0 clock: no mark in this phase, whatever the op count", 0, 1 << 40, at(1),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6, 7}}},
		{"phase 1 boundary: marks not reached", 1, 0, at(10),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6, 7}}},
		{"phase 1 clock: one op short of the first mark", 1, 199, at(11),
			faultState{Severed: [][2]int{{0, 1}}, Partitions: 1, Pending: []int{1, 2, 3, 4, 5, 6, 7}}},
		{"phase 1 clock: first step past the sever's mark, short of the crash's", 1, 340, at(12),
			faultState{Severed: [][2]int{{0, 1}, {1, 2}}, Partitions: 2, Pending: []int{1, 3, 4, 5, 6, 7}}},
		{"phase 1 clock: same total again fires nothing twice", 1, 340, at(13),
			faultState{Severed: [][2]int{{0, 1}, {1, 2}}, Partitions: 2, Pending: []int{1, 3, 4, 5, 6, 7}}},
		{"phase 1 clock: the crash's mark; heal still 1ms from due", 1, 500, at(41),
			faultState{Severed: [][2]int{{0, 1}, {1, 2}}, Dead: []int{3}, Partitions: 2, Crashes: 1, Pending: []int{1, 4, 5, 6, 7}}},
		{"phase 2 boundary, past the heal's due time: wall-clock heal lands here; (0,1) heals, re-severs and ends severed", 2, 0, at(60),
			faultState{Severed: [][2]int{{0, 1}}, Dead: []int{3}, Partitions: 3, Heals: 2, Crashes: 1,
				TimeToHealNS: (60 + 48) * 1e6, Pending: []int{7}}},
		{"phase 3 boundary: the op-marked sever waits", 3, 0, at(70),
			faultState{Severed: [][2]int{{0, 1}}, Dead: []int{3}, Partitions: 3, Heals: 2, Crashes: 1,
				TimeToHealNS: (60 + 48) * 1e6, Pending: []int{7}}},
		{"phase 3 clock: the run ends below the mark, so it never fires", 3, 899, at(80),
			faultState{Severed: [][2]int{{0, 1}}, Dead: []int{3}, Partitions: 3, Heals: 2, Crashes: 1,
				TimeToHealNS: (60 + 48) * 1e6, Pending: []int{7}}},
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
// scheduled heal settle without booking a second one.
func TestScheduleWaitAndOutOfBandHeal(t *testing.T) {
	r := scheduleRun(t, Faults{Partitions: []PartitionSpec{
		{A: 1, B: 2, Phase: 1, AtOps: 100, HealAfterMS: 30},
	}})
	t0 := time.Unix(1_000_000, 0)
	wait := func(phase int, now time.Time) time.Duration {
		d, ok := r.wait(phase, now)
		if !ok {
			return -1
		}
		return d
	}
	r.step(0, 0, t0)
	if d := wait(0, t0); d != -1 {
		t.Fatalf("phase 0 has nothing timed, yet its rounds would start a clock (wait %v)", d)
	}
	r.step(1, 0, t0)
	if d := wait(1, t0); d != 200*time.Microsecond {
		t.Fatalf("pending op mark: wait %v, want the 200µs poll", d)
	}
	r.step(1, 100, t0)
	if d := wait(1, t0.Add(10*time.Millisecond)); d != 20*time.Millisecond {
		t.Fatalf("armed heal: wait %v, want the 20ms left on it", d)
	}
	if d := wait(2, t0.Add(31*time.Millisecond)); d != 0 {
		t.Fatalf("overdue heal in a later phase: wait %v, want 0", d)
	}
	if err := r.apply(Fault{Heal: []int{1, 2}}, t0.Add(20*time.Millisecond)); err != nil { // a live heal
		t.Fatal(err)
	}
	r.step(2, 0, t0.Add(31*time.Millisecond))
	want := faultState{Partitions: 1, Heals: 1, TimeToHealNS: 20e6}
	if got := stateOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the schedule's heal of a pair healed out of band:\n got %+v\nwant %+v", got, want)
	}
	if d := wait(2, t0.Add(32*time.Millisecond)); d != -1 {
		t.Fatalf("everything fired, yet a round would start a clock (wait %v)", d)
	}
}
