package comm

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBackendString(t *testing.T) {
	if BackendNone.String() != "none" || BackendUGNI.String() != "ugni" {
		t.Fatal("backend names wrong")
	}
	if got := Backend(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown backend renders %q", got)
	}
}

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]Backend{"none": BackendNone, "ugni": BackendUGNI} {
		got, err := ParseBackend(name)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseBackend("infiniband"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendNone, BackendUGNI} {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("round trip of %v failed", b)
		}
	}
}

func TestDefaultProfileOrdering(t *testing.T) {
	p := DefaultProfile()
	// The regime ordering everything depends on: CPU (0) < NIC < AM.
	if p.LocalAtomicNS != 0 {
		t.Fatal("local atomics must be free by default")
	}
	if !(p.NICAtomicNS > 0 && p.AMRoundTripNS > p.NICAtomicNS) {
		t.Fatalf("regime ordering broken: NIC=%d AM=%d", p.NICAtomicNS, p.AMRoundTripNS)
	}
	if p.AMHandlerNS <= 0 || p.PutGetNS <= 0 || p.OnStmtNS <= 0 || p.BulkStartupNS <= 0 {
		t.Fatalf("profile has zero-cost classes: %+v", p)
	}
}

func TestZeroProfile(t *testing.T) {
	if Zero() != (LatencyProfile{}) {
		t.Fatal("Zero() not zero")
	}
}

func TestProfileScale(t *testing.T) {
	p := DefaultProfile()
	doubled := p.Scale(2)
	if doubled.NICAtomicNS != 2*p.NICAtomicNS || doubled.AMRoundTripNS != 2*p.AMRoundTripNS {
		t.Fatalf("Scale(2) = %+v", doubled)
	}
	if p.Scale(0) != Zero() {
		t.Fatal("Scale(0) must zero the profile")
	}
}

// Property: scaling preserves regime ordering for any positive factor.
func TestScalePreservesOrderingProperty(t *testing.T) {
	p := DefaultProfile()
	f := func(raw uint8) bool {
		factor := 0.1 + float64(raw)/32.0
		s := p.Scale(factor)
		return s.AMRoundTripNS >= s.NICAtomicNS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDelayZeroIsFree(t *testing.T) {
	start := time.Now()
	for i := 0; i < 1_000_000; i++ {
		Delay(0)
		Delay(-5)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("2M no-op delays took %v", e)
	}
}

func TestDelayApproximatelyAccurate(t *testing.T) {
	const ns = 20_000 // 20µs, spin path
	start := time.Now()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		Delay(ns)
	}
	avg := time.Since(start).Nanoseconds() / rounds
	if avg < ns {
		t.Fatalf("delay too short: %dns < %dns", avg, ns)
	}
	if avg > 40*ns {
		t.Fatalf("delay wildly long: %dns", avg)
	}
}

// Every Inc* and a Book of every remote kind are called, alone and
// accumulated across wrapped shard hints, and the whole Snapshot is
// compared each time; the reflection walks then hold the
// two-sites-per-counter rule: a Snapshot field that no row of the table
// feeds, or that Snapshot()/Sub() fail to carry, fails here.
func TestCountersRoundTrip(t *testing.T) {
	type inc struct {
		name string
		inc  func(c *Counters, src int)
		want Snapshot
	}
	// Every counter here is bound to a matrix, so a remote event books
	// on its (source, destination, kind) cell as the runtime does; the
	// hint picks the source among the matrix's locales.
	const locales = 4
	bind := func() *Counters { return NewCounters(NewMatrix(locales)) }
	book := func(k Kind) func(c *Counters, src int) {
		return func(c *Counters, src int) { c.pairs.Book(src%locales, (src+1)%locales, k) }
	}
	incs := []inc{
		{"Book(KindPut)", book(KindPut), Snapshot{Puts: 1}},
		{"IncGet", func(c *Counters, src int) { c.IncGet(src) }, Snapshot{Gets: 1}},
		{"Book(KindNICAMO)", book(KindNICAMO), Snapshot{NICAMOs: 1}},
		{"Book(KindAMAMO)", book(KindAMAMO), Snapshot{AMAMOs: 1}},
		{"IncLocalAMO", func(c *Counters, src int) { c.IncLocalAMO(src) }, Snapshot{LocalAMOs: 1}},
		{"Book(KindOnStmt)", book(KindOnStmt), Snapshot{OnStmts: 1}},
		{"Book(KindBulk)+IncBulkBytes", func(c *Counters, src int) { book(KindBulk)(c, src); c.IncBulkBytes(src, 128) }, Snapshot{BulkXfers: 1, BulkBytes: 128}},
		{"IncBulkBytes", func(c *Counters, src int) { c.IncBulkBytes(src, 128) }, Snapshot{BulkBytes: 128}},
		{"IncDCASLocal", func(c *Counters, src int) { c.IncDCASLocal(src) }, Snapshot{DCASLocal: 1}},
		{"Book(KindDCASRemote)", book(KindDCASRemote), Snapshot{DCASRemote: 1}},
		{"IncAggFlush", func(c *Counters, src int) { c.IncAggFlush(src, 5, 80) }, Snapshot{AggFlushes: 1, AggOps: 5, AggBytes: 80}},
		{"IncCacheHit", func(c *Counters, src int) { c.IncCacheHit(src) }, Snapshot{CacheHits: 1}},
		{"IncCacheMiss", func(c *Counters, src int) { c.IncCacheMiss(src) }, Snapshot{CacheMiss: 1}},
		{"IncCacheInval", func(c *Counters, src int) { c.IncCacheInval(src) }, Snapshot{CacheInval: 1}},
		{"IncAggEnqueue", func(c *Counters, src int) { c.IncAggEnqueue(src) }, Snapshot{AggOpsEnq: 1}},
		{"IncAggCombined", func(c *Counters, src int) { c.IncAggCombined(src) }, Snapshot{AggCombined: 1}},
		{"IncCAS ok", func(c *Counters, src int) { c.IncCAS(src, true) }, Snapshot{CASAttempts: 1}},
		{"IncCAS failed", func(c *Counters, src int) { c.IncCAS(src, false) }, Snapshot{CASAttempts: 1, CASRetries: 1}},
		{"IncMigAdopt", func(c *Counters, src int) { c.IncMigAdopt(src) }, Snapshot{MigAdopted: 1}},
		{"IncMigRetire", func(c *Counters, src int) { c.IncMigRetire(src) }, Snapshot{MigRetired: 1}},
		{"IncMigBytes", func(c *Counters, src int) { c.IncMigBytes(src, 16) }, Snapshot{MigBytes: 16}},
		{"IncMigReroute", func(c *Counters, src int) { c.IncMigReroute(src) }, Snapshot{MigReroutes: 1}},
		{"IncOpsLost", func(c *Counters, src int) { c.IncOpsLost(src, 3) }, Snapshot{OpsLost: 3}},
		{"IncOpsParked", func(c *Counters, src int) { c.IncOpsParked(src, 4) }, Snapshot{OpsParked: 4}},
		{"IncOpsRedelivered", func(c *Counters, src int) { c.IncOpsRedelivered(src, 2) }, Snapshot{OpsRedelivered: 2}},
		{"IncOpsExpired", func(c *Counters, src int) { c.IncOpsExpired(src, 1) }, Snapshot{OpsExpired: 1}},
	}

	// fields lists a Snapshot's counters by reflection, never by name.
	fields := func(s *Snapshot) []reflect.Value {
		v := reflect.ValueOf(s).Elem()
		out := make([]reflect.Value, v.NumField())
		for i := range out {
			if out[i] = v.Field(i); out[i].Kind() != reflect.Int64 {
				t.Fatalf("Snapshot.%s is %s, not an int64 counter", v.Type().Field(i).Name, out[i].Kind())
			}
		}
		return out
	}

	all := bind()
	var sum Snapshot // what all must read, added up field by field
	sumF := fields(&sum)
	fed := make([]bool, len(sumF))
	for i, tc := range incs {
		c := bind()
		tc.inc(c, i)
		if got := c.Snapshot(); got != tc.want {
			t.Fatalf("%s alone: snapshot = %+v, want %+v", tc.name, got, tc.want)
		}
		// Twice more on the shared counters, the second hint past the
		// shard count (it wraps): Snapshot must merge every shard.
		before := all.Snapshot()
		tc.inc(all, i)
		tc.inc(all, i+counterShards+1)
		for f, w := range fields(&tc.want) {
			sumF[f].SetInt(sumF[f].Int() + 2*w.Int())
			fed[f] = fed[f] || w.Int() != 0
		}
		if got := all.Snapshot(); got != sum {
			t.Fatalf("after %s: snapshot = %+v, want %+v", tc.name, got, sum)
		}
		delta, want := all.Snapshot().Sub(before), tc.want
		for _, w := range fields(&want) {
			w.SetInt(2 * w.Int())
		}
		if delta != want {
			t.Fatalf("%s: Sub window = %+v, want %+v", tc.name, delta, want)
		}
	}
	for f, ok := range fed {
		if !ok {
			t.Errorf("Snapshot.%s: no row of the table feeds it", reflect.TypeOf(sum).Field(f).Name)
		}
	}
	for ct, m := reflect.TypeOf(all), 0; m < ct.NumMethod(); m++ {
		name := ct.Method(m).Name
		if strings.HasPrefix(name, "Inc") && !slices.ContainsFunc(incs, func(tc inc) bool { return strings.HasPrefix(tc.name, name) }) {
			t.Errorf("Counters.%s is not in the table", name)
		}
	}

	// Sub carries every field: distinct values in, field-wise difference out.
	var a, b Snapshot
	for f := range fields(&a) {
		fields(&a)[f].SetInt(int64(100 + 7*f))
		fields(&b)[f].SetInt(int64(f))
	}
	d := a.Sub(b)
	for f, v := range fields(&d) {
		if v.Int() != int64(100+6*f) {
			t.Errorf("Sub dropped Snapshot.%s: %d", reflect.TypeOf(d).Field(f).Name, v.Int())
		}
	}

	// Remote = puts+gets+nic+am+on+bulk+dcasRemote, each fed twice by 1.
	if got := sum.Remote(); got != 14 {
		t.Fatalf("Remote() = %d, want 14", got)
	}
	all.Reset()
	if all.Snapshot() != (Snapshot{}) {
		t.Fatal("Reset left residue")
	}

	// Booked: each Kind, alone on counters bound to a matrix, reads as
	// exactly its one Snapshot field, and as one event on its pair;
	// accumulated over every pair, the kinds between them feed exactly
	// the seven fields Remote() adds up.
	kinds := []struct {
		k    Kind
		want Snapshot
	}{
		{KindPut, Snapshot{Puts: 1}},
		{KindGet, Snapshot{Gets: 1}},
		{KindNICAMO, Snapshot{NICAMOs: 1}},
		{KindAMAMO, Snapshot{AMAMOs: 1}},
		{KindOnStmt, Snapshot{OnStmts: 1}},
		{KindBulk, Snapshot{BulkXfers: 1}},
		{KindDCASRemote, Snapshot{DCASRemote: 1}},
	}
	if len(kinds) != NumKinds {
		t.Fatalf("table covers %d kinds, NumKinds is %d", len(kinds), NumKinds)
	}
	const n = 3
	bm := NewMatrix(n)
	bound := NewCounters(bm)
	var bsum Snapshot
	bsumF := fields(&bsum)
	for i, tc := range kinds {
		m := NewMatrix(n)
		c := NewCounters(m)
		m.Book(i%n, (i+1)%n, tc.k)
		if got := c.Snapshot(); got != tc.want || got.Remote() != 1 || m.Total() != 1 || m.Get(i%n, (i+1)%n) != 1 {
			t.Fatalf("Book(%d) alone: snapshot = %+v, matrix %v, want %+v on (%d, %d)", tc.k, got, m.Snapshot(), tc.want, i%n, (i+1)%n)
		}
		before := bound.Snapshot()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				bm.Book(src, dst, tc.k)
			}
		}
		for f, w := range fields(&tc.want) {
			bsumF[f].SetInt(bsumF[f].Int() + n*n*w.Int())
		}
		got, pairs := bound.SnapshotMatrix()
		if got != bsum || got.Sub(before).Remote() != n*n {
			t.Fatalf("after booking %d on every pair: snapshot = %+v, want %+v", tc.k, got, bsum)
		}
		for src, row := range pairs {
			for dst, v := range row {
				if v != int64(i+1) {
					t.Fatalf("after booking %d: pair (%d, %d) = %d, want %d", tc.k, src, dst, v, i+1)
				}
			}
		}
	}
	if got := bsum.Remote(); got != int64(n*n*NumKinds) || bm.Total() != got {
		t.Fatalf("booked Remote() = %d, matrix Total() = %d, want %d each", got, bm.Total(), n*n*NumKinds)
	}
	bound.Reset()
	if bound.Snapshot() != (Snapshot{}) || bm.Total() != 0 {
		t.Fatal("Reset of bound counters left residue in the matrix")
	}
}

func TestSnapshotSub(t *testing.T) {
	m := NewMatrix(2)
	c := NewCounters(m)
	m.Book(0, 1, KindPut)
	before := c.Snapshot()
	m.Book(1, 0, KindPut) // a different row than the first put: Sub merges both
	m.Book(0, 1, KindBulk)
	c.IncBulkBytes(0, 64)
	d := c.Snapshot().Sub(before)
	if d.Puts != 1 || d.BulkXfers != 1 || d.BulkBytes != 64 || d.Gets != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Puts: 1, Gets: 2, BulkXfers: 3, BulkBytes: 400}
	str := s.String()
	for _, frag := range []string{"puts=1", "gets=2", "bulk=3/400B"} {
		if !strings.Contains(str, frag) {
			t.Fatalf("String() = %q missing %q", str, frag)
		}
	}
}

func TestCountersConcurrent(t *testing.T) {
	m := NewMatrix(4)
	c := NewCounters(m)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				m.Book(g, (g+1)%4, KindPut)
				m.Book(g, (g+1)%4, KindBulk)
				c.IncBulkBytes(g, 2)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	s := c.Snapshot()
	if s.Puts != 4000 || s.BulkXfers != 4000 || s.BulkBytes != 8000 {
		t.Fatalf("lost updates: %+v", s)
	}
}
