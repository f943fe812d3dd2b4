package workload

import (
	"reflect"
	"testing"

	"gopgas/internal/comm"
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
// arm whose verdict depends on the spec — a crash that never asked for
// failover — must not be held to what it was built to break.
func TestInvariantsNameTheViolation(t *testing.T) {
	clean := func() *Report {
		return &Report{
			Phases: []PhaseReport{
				{Comm: comm.Snapshot{AggOps: 5, AggCombined: 3, AggOpsEnq: 8}},
				{Comm: comm.Snapshot{AggOps: 2, AggOpsEnq: 2}},
			},
			Epoch: EpochReport{Deferred: 7, Reclaimed: 7},
			Trace: &TraceReport{Balanced: true},
		}
	}
	failover := Faults{Crashes: []CrashSpec{{Locale: 1, Failover: true}}}
	partition := Faults{Partitions: []PartitionSpec{{A: 1, B: 2}}}
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
			r.Spec.Faults, r.Availability = failover, &AvailabilityReport{Crashes: 1, Recovered: true}
			r.Phases[1].Comm.AggOps--
		}, nil},
		{"a crash never lets shipped lead", func(r *Report) {
			r.Spec.Faults, r.Availability = failover, &AvailabilityReport{Crashes: 1, Recovered: true}
			r.Phases[1].Comm.AggOps++
		}, []string{"shipped + combined == enqueued"}},
		{"failover asked for, not recovered", func(r *Report) {
			r.Spec.Faults, r.Availability = failover, &AvailabilityReport{Crashes: 1}
		}, []string{"crash failover recovered"}},
		{"no failover asked for: the wedged arm is not a violation", func(r *Report) {
			r.Spec.Faults.Crashes = []CrashSpec{{Locale: 1}}
			r.Availability = &AvailabilityReport{Crashes: 1, OpsLost: 40}
		}, nil},
		{"retry books", func(r *Report) {
			r.Spec.Faults, r.Availability = partition, &AvailabilityReport{Recovered: true, OpsParked: 9, OpsRedelivered: 5, OpsExpired: 3}
		}, []string{"parked == redelivered + expired"}},
		{"partition leaked into the fail-stop ledger", func(r *Report) {
			r.Spec.Faults, r.Availability = partition, &AvailabilityReport{Recovered: true, OpsLost: 2}
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
