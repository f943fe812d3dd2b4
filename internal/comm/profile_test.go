package comm

import "testing"

// Scaling the zero profile stays zero.
func TestScaleZeroProfile(t *testing.T) {
	if got := Zero().Scale(100); got != (LatencyProfile{}) {
		t.Fatalf("Zero().Scale(100) = %+v", got)
	}
}

// Scaling preserves the regime ordering the figures depend on:
// local ≪ NIC atomic ≪ AM round trip, at any positive factor.
func TestScalePreservesOrdering(t *testing.T) {
	p := DefaultProfile()
	for _, f := range []float64{0.5, 1, 2, 10} {
		s := p.Scale(f)
		if !(s.LocalAtomicNS <= s.NICAtomicNS && s.NICAtomicNS < s.AMRoundTripNS) {
			t.Fatalf("Scale(%v) broke regime ordering: %+v", f, s)
		}
		if s.NICAtomicNS != int64(float64(p.NICAtomicNS)*f) {
			t.Fatalf("Scale(%v).NICAtomicNS = %d", f, s.NICAtomicNS)
		}
		if s.BulkStartupNS != int64(float64(p.BulkStartupNS)*f) ||
			s.BulkPerByteNS != int64(float64(p.BulkPerByteNS)*f) {
			t.Fatalf("Scale(%v) bulk terms: %+v", f, s)
		}
	}
}

// Scale by zero disables every delay.
func TestScaleToZero(t *testing.T) {
	if got := DefaultProfile().Scale(0); got != (LatencyProfile{}) {
		t.Fatalf("Scale(0) = %+v", got)
	}
}

// ParseBackend and Backend.String round-trip for every valid backend;
// unknown names are rejected.
func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendNone, BackendUGNI} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
	for _, bad := range []string{"", "NONE", "gasnet", "ugni "} {
		if _, err := ParseBackend(bad); err == nil {
			t.Fatalf("ParseBackend(%q) did not fail", bad)
		}
	}
	if got := Backend(99).String(); got != "Backend(99)" {
		t.Fatalf("Backend(99).String() = %q", got)
	}
}

// The default profile's price list, kind by kind: an AM atomic and a
// remote DCAS pay the round trip and the handler, an on-statement the
// round trip and the spawn. Modelled prices a snapshot's counted events
// at those prices, bulk bytes and local atomics included, and nothing
// it does not count.
func TestDefaultPrices(t *testing.T) {
	pr := DefaultProfile().Prices()
	want := [NumKinds]int64{
		KindPut: 1200, KindGet: 1200, KindNICAMO: 800, KindAMAMO: 2900,
		KindOnStmt: 4000, KindBulk: 3000, KindDCASRemote: 2900,
	}
	if pr.Event != want || pr.BulkByte != 1 || pr.LocalAtomic != 0 {
		t.Fatalf("DefaultProfile().Prices() = %+v, want events %v, 1 ns per bulk byte, free local atomics", pr, want)
	}
	if got := pr.Bulk(64); got != 3064 {
		t.Fatalf("Bulk(64) = %d, want 3064", got)
	}
	s := Snapshot{Puts: 1, Gets: 2, NICAMOs: 3, AMAMOs: 4, OnStmts: 5, BulkXfers: 6, BulkBytes: 7, DCASRemote: 8,
		LocalAMOs: 9, DCASLocal: 10, AggOps: 11, CASAttempts: 12, CacheHits: 13}
	if got, want := pr.Modelled(s), int64(1*1200+2*1200+3*800+4*2900+5*4000+6*3000+7*1+8*2900); got != want {
		t.Fatalf("Modelled = %d, want %d", got, want)
	}
	local := LatencyProfile{LocalAtomicNS: 5}.Prices()
	if got := local.Modelled(s); got != (9+10)*5 {
		t.Fatalf("local atomics priced %d, want %d", got, (9+10)*5)
	}
}
