package comm

import "fmt"

// Backend selects how atomic memory operations (AMOs) reach remote
// memory, mirroring the CHPL_NETWORK_ATOMICS settings in the paper.
type Backend int

const (
	// BackendNone corresponds to CHPL_NETWORK_ATOMICS=none: there is no
	// NIC offload, so locale-local atomics are native CPU atomics and
	// every remote atomic is shipped as an active message that runs
	// under one of the target locale's bounded handler slots.
	BackendNone Backend = iota

	// BackendUGNI corresponds to CHPL_NETWORK_ATOMICS=ugni on
	// Gemini/Aries: 64-bit atomics are offloaded to the NIC. NIC
	// atomics are not coherent with CPU atomics, so *all* operations on
	// network-atomic variables — including locale-local ones — pay the
	// NIC round trip. The paper measures this local overhead at up to
	// an order of magnitude. In exchange, NIC atomics never involve the
	// target CPU and therefore pipeline without serialization.
	BackendUGNI
)

// String returns the CHPL_NETWORK_ATOMICS-style name of the backend.
func (b Backend) String() string {
	switch b {
	case BackendNone:
		return "none"
	case BackendUGNI:
		return "ugni"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend converts a CHPL_NETWORK_ATOMICS-style name into a
// Backend. It accepts "none" and "ugni".
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "none":
		return BackendNone, nil
	case "ugni":
		return BackendUGNI, nil
	default:
		return 0, fmt.Errorf("comm: unknown backend %q (want \"none\" or \"ugni\")", s)
	}
}

// LatencyProfile holds the injected delays, in nanoseconds, for each
// class of simulated communication. The defaults are calibrated to the
// relative magnitudes reported for Cray Aries systems: RDMA atomics
// complete in about a microsecond, active messages cost a few
// microseconds of wire time plus occupancy of a handler slot, and
// bulk transfers pay a fixed startup cost plus a per-byte cost.
//
// A zero profile (Zero) disables all injected delays; counters still
// count, which keeps unit tests fast and deterministic.
type LatencyProfile struct {
	// NICAtomicNS is the round-trip latency of a NIC-offloaded 64-bit
	// atomic (ugni backend), paid by the initiating task.
	NICAtomicNS int64

	// AMRoundTripNS is the wire latency of an active message round
	// trip, paid by the initiating task on top of waiting for the
	// handler to run.
	AMRoundTripNS int64

	// AMHandlerNS is how long an active-message atomic occupies one of
	// the target locale's handler slots; with the slot count bounded it
	// is what serializes AM atomics that target the same locale. Zero
	// means no occupancy to model: the handler takes no slot.
	AMHandlerNS int64

	// PutGetNS is the latency of a small RDMA PUT or GET.
	PutGetNS int64

	// OnStmtNS is the task-spawn overhead of an on-statement (remote
	// procedure call) beyond the AM round trip.
	OnStmtNS int64

	// BulkStartupNS and BulkPerByteNS model large transfers, e.g. the
	// scatter lists the EpochManager ships for bulk remote deletion.
	BulkStartupNS int64
	BulkPerByteNS int64

	// LocalAtomicNS is the extra injected cost of a locale-local atomic
	// when it does NOT go through the NIC (none backend). Normally zero:
	// native CPU atomics are the baseline.
	LocalAtomicNS int64
}

// DefaultProfile returns the calibrated profile used by the benchmark
// harness. Values are scaled-down microsecond-class latencies: large
// enough to dominate CPU costs and preserve the paper's regime
// ordering (CPU atomic ≪ NIC atomic ≪ AM), small enough that the full
// figure sweep completes on a laptop.
func DefaultProfile() LatencyProfile {
	return LatencyProfile{
		NICAtomicNS:   800,
		AMRoundTripNS: 2500,
		AMHandlerNS:   400,
		PutGetNS:      1200,
		OnStmtNS:      1500,
		BulkStartupNS: 3000,
		BulkPerByteNS: 1,
	}
}

// Zero returns a profile with all injected delays disabled. Counters
// are unaffected. Unit and property tests use this profile.
func Zero() LatencyProfile {
	return LatencyProfile{}
}

// Prices is a profile's price list: the modelled nanoseconds of one
// counted event of each kind. The runtime charges every event it counts
// at its kind's price, and nothing else, so Modelled of a run's counter
// delta is what the run was charged at nominal prices; a latency scale's
// excess is booked apart (pgas.System.DelayTotals).
type Prices struct {
	// Event prices one remote event of each Kind: a GET or PUT is
	// PutGetNS; a NIC atomic NICAtomicNS; an AM atomic or remote DCAS an
	// active-message round trip plus its handler's occupancy,
	// AMRoundTripNS + AMHandlerNS; an on-statement (a remote free
	// included) a round trip plus the task spawn, AMRoundTripNS +
	// OnStmtNS; a bulk transfer its BulkStartupNS, its bytes aside.
	Event [NumKinds]int64
	// BulkByte prices one payload byte of a bulk transfer.
	BulkByte int64
	// LocalAtomic prices one locale-local atomic or DCAS.
	LocalAtomic int64
}

// Prices returns p's price list.
func (p LatencyProfile) Prices() Prices {
	am := p.AMRoundTripNS + p.AMHandlerNS
	return Prices{
		Event: [NumKinds]int64{
			KindPut:        p.PutGetNS,
			KindGet:        p.PutGetNS,
			KindNICAMO:     p.NICAtomicNS,
			KindAMAMO:      am,
			KindOnStmt:     p.AMRoundTripNS + p.OnStmtNS,
			KindBulk:       p.BulkStartupNS,
			KindDCASRemote: am,
		},
		BulkByte:    p.BulkPerByteNS,
		LocalAtomic: p.LocalAtomicNS,
	}
}

// Bulk prices one bulk transfer of bytes payload bytes.
func (pr *Prices) Bulk(bytes int64) int64 {
	return pr.Event[KindBulk] + bytes*pr.BulkByte
}

// Modelled prices s: Σ counted events × price — every remote event at
// its kind's price, bulk bytes at BulkByte, local atomics and local
// DCAS at LocalAtomic.
func (pr *Prices) Modelled(s Snapshot) int64 {
	w := s.words()
	var ns int64
	for k, price := range pr.Event {
		ns += w[kindWord[k]] * price
	}
	return ns + s.BulkBytes*pr.BulkByte + (s.LocalAMOs+s.DCASLocal)*pr.LocalAtomic
}

// Scale returns a copy of p with every delay multiplied by f. The
// benchmark harness uses it to stretch or shrink the simulated network
// without changing regime ordering.
func (p LatencyProfile) Scale(f float64) LatencyProfile {
	s := func(ns int64) int64 { return int64(float64(ns) * f) }
	return LatencyProfile{
		NICAtomicNS:   s(p.NICAtomicNS),
		AMRoundTripNS: s(p.AMRoundTripNS),
		AMHandlerNS:   s(p.AMHandlerNS),
		PutGetNS:      s(p.PutGetNS),
		OnStmtNS:      s(p.OnStmtNS),
		BulkStartupNS: s(p.BulkStartupNS),
		BulkPerByteNS: s(p.BulkPerByteNS),
		LocalAtomicNS: s(p.LocalAtomicNS),
	}
}
