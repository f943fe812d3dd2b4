package workload

import (
	"reflect"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/hashmap"
)

// violated returns the names of the invariants a report breaks.
func violated(r *Report) []string {
	var names []string
	for _, inv := range r.Invariants() {
		if !inv.Held {
			names = append(names, inv.Name)
		}
	}
	return names
}

// TestInvariantsNameTheViolation doctors a clean report one identity at
// a time: each doctoring must yield exactly that named violation, and the
// arm whose verdict depends on the books of the faults that landed — a
// crash that never asked for failover — must not be held to what it was
// built to break.
func TestInvariantsNameTheViolation(t *testing.T) {
	// At LatencyScale 0.125 a GET is priced 150 ns and a NIC atomic 100.
	clean := func() *Report {
		return &Report{
			Spec: Spec{LatencyScale: 0.125},
			Phases: []PhaseReport{
				{Comm: comm.Snapshot{Gets: 6, AggOps: 5, AggCombined: 3, AggOpsEnq: 8, MigAdopted: 2, MigRetired: 1}, ModelledNS: 900, DelayWaitNS: 800,
					RemoteOps: 6, Matrix: [][]int64{{0, 4}, {2, 0}}},
				{Comm: comm.Snapshot{NICAMOs: 1, AggOps: 2, AggOpsEnq: 2, MigRetired: 1}, ModelledNS: 100, DelayWaitNS: 200,
					RemoteOps: 1, Matrix: [][]int64{{0, 0}, {1, 0}}},
			},
			Epoch: EpochReport{Deferred: 7, Reclaimed: 7},
			Trace: &TraceReport{Balanced: true},
		}
	}
	cases := []struct {
		name   string
		doctor func(r *Report)
		want   []string
	}{
		{"clean", func(r *Report) {}, nil},
		{"use-after-free load", func(r *Report) { r.Heap.UAFLoads = 1 }, []string{"heap safe"}},
		{"epoch leak", func(r *Report) { r.Epoch.Reclaimed-- }, []string{"deferred == reclaimed"}},
		{"trace books", func(r *Report) { r.Trace.Balanced = false }, []string{"trace books balanced"}},
		{"aggregator dropped an op", func(r *Report) { r.Phases[1].Comm.AggOps-- }, []string{"shipped + combined == enqueued"}},
		{"aggregator shipped an op twice", func(r *Report) { r.Phases[0].Comm.AggOps++ }, []string{"shipped + combined == enqueued"}},
		{"a crash abandons buffers: enqueued may lead", func(r *Report) {
			r.Availability = &AvailabilityReport{Crashes: 1, Recovered: true}
			r.Phases[1].Comm.AggOps--
		}, nil},
		{"a crash never lets shipped lead", func(r *Report) {
			r.Availability = &AvailabilityReport{Crashes: 1, Recovered: true}
			r.Phases[1].Comm.AggOps++
		}, []string{"shipped + combined == enqueued"}},
		{"a shard adopted and never retired", func(r *Report) { r.Phases[1].Comm.MigAdopted++ }, []string{"adopted == retired"}},
		{"a shard retired twice", func(r *Report) { r.Phases[0].Comm.MigRetired++ }, []string{"adopted == retired"}},
		{"a wait that straddles a phase boundary balances over the run", func(r *Report) {
			r.Phases[0].DelayWaitNS, r.Phases[1].DelayWaitNS = 0, 1000
		}, nil},
		{"a remote event counted outside its cell", func(r *Report) { r.Phases[1].RemoteOps++ }, []string{"remote events == Σ matrix"}},
		{"a matrix entry no counter reads", func(r *Report) { r.Phases[0].Matrix[1][1]++ }, []string{"remote events == Σ matrix"}},
		{"remote events are judged per phase, not over the run", func(r *Report) {
			r.Phases[0].RemoteOps++
			r.Phases[1].RemoteOps--
		}, []string{"remote events == Σ matrix"}},
		{"a charge nobody waited for", func(r *Report) { r.Phases[1].DelayWaitNS-- }, []string{"delay_wait_ns >= modelled_ns + perturb_ns"}},
		{"a charge no counted event pays for", func(r *Report) {
			r.Phases[1].ModelledNS++
			r.Phases[1].DelayWaitNS++
		}, []string{"modelled_ns == Σ counted events × price"}},
		{"modelled ns are priced per phase, not over the run", func(r *Report) {
			r.Phases[0].ModelledNS += 100
			r.Phases[1].ModelledNS -= 100
		}, []string{"modelled_ns == Σ counted events × price"}},
		{"a latency scale's excess is booked apart and waited for", func(r *Report) {
			r.Phases[1].PerturbNS = 200
			r.Phases[1].DelayWaitNS += 200
		}, nil},
		{"a latency scale's excess booked as modelled", func(r *Report) {
			r.Phases[1].ModelledNS *= 3
			r.Phases[1].DelayWaitNS *= 3
		}, []string{"modelled_ns == Σ counted events × price"}},
		{"a scaled charge nobody waited for", func(r *Report) {
			r.Phases[1].PerturbNS = 200
			r.Phases[1].DelayWaitNS += 199
		}, []string{"delay_wait_ns >= modelled_ns + perturb_ns"}},
		{"failover asked for, not recovered", func(r *Report) {
			r.Availability = &AvailabilityReport{Crashes: 1}
		}, []string{"crash failover recovered"}},
		{"no failover asked for: the wedged arm is not a violation", func(r *Report) {
			r.Availability = &AvailabilityReport{Crashes: 1, Wedged: 1, OpsLost: 40}
		}, nil},
		{"retry books", func(r *Report) {
			r.Availability = &AvailabilityReport{Partitions: 1, Recovered: true, OpsParked: 9, OpsRedelivered: 5, OpsExpired: 3}
		}, []string{"parked == redelivered + expired"}},
		{"partition leaked into the fail-stop ledger", func(r *Report) {
			r.Availability = &AvailabilityReport{Partitions: 1, Recovered: true, OpsLost: 2}
		}, []string{"crash-free partition lost nothing"}},
	}
	for _, c := range cases {
		r := clean()
		c.doctor(r)
		if got := violated(r); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: violated %q, want %q", c.name, got, c.want)
		}
	}
}

// The crash drill for the own-locale buffer: under combining a task's
// writes to keys its own locale owns sit in its buffer like any others,
// so a task that dies with its locale — exits without flushing, as
// runTask does — abandons them too. They never apply, the books end
// with shipped + combined < enqueued, and the invariant list holds that
// in its crash form only.
func TestCrashAbandonsOwnLocaleBuffer(t *testing.T) {
	const writes = 5
	sys := pgas.NewSystem(pgas.Config{Locales: 3, Backend: comm.BackendNone, Agg: comm.AggConfig{Combine: true}})
	defer sys.Shutdown()
	c0 := sys.Ctx(0)
	em := epoch.NewEpochManager(c0)
	m := hashmap.New[int64](c0, 16, em)
	c := sys.Ctx(2)
	own := uint64(0)
	for m.HomeOf(own) != c.Here() {
		own++
	}
	for i := 1; i <= writes; i++ {
		m.UpsertAgg(c, own, int64(i))
	}
	if c.PendingOps() != 1 {
		t.Fatalf("%d ops buffered before the crash, want the 1 the writes merged into", c.PendingOps())
	}
	if err := sys.Crash(c.Here()); err != nil {
		t.Fatal(err)
	}
	// The task is gone: no Flush. What it had buffered is lost with it.
	em.Protect(c0, func(tok *epoch.Token) {
		if v, ok := m.Get(c0, tok, own); ok {
			t.Errorf("abandoned write applied: key reads (%d, true)", v)
		}
	})
	snap := sys.Counters().Snapshot()
	if snap.AggOpsEnq != writes || snap.AggCombined != writes-1 || snap.AggOps != 0 || snap.AggFlushes != 0 {
		t.Fatalf("aggregator books %+v, want %d enqueued, %d combined, none shipped", snap, writes, writes-1)
	}

	rep := &Report{
		Phases:       []PhaseReport{{Comm: snap}},
		Availability: &AvailabilityReport{Crashes: 1, Wedged: 1, OpsLost: snap.OpsLost},
	}
	if got := violated(rep); got != nil {
		t.Fatalf("crashed run violated %q", got)
	}
	rep.Availability = nil
	if got, want := violated(rep), []string{"shipped + combined == enqueued"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the same books without a crash violated %q, want %q", got, want)
	}
}
