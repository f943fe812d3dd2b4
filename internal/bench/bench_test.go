package bench

import (
	"encoding/csv"
	"strings"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/pgas"
	"gopgas/internal/structures/hashmap"
	"gopgas/internal/structures/queue"
	"gopgas/internal/structures/stack"
)

// tinyConfig runs every figure at trivial size with zero injected
// latency: these tests validate harness structure (panels, series,
// point counts, report formats), not performance.
func tinyConfig() Config {
	return Config{
		Scale:          0.001,
		TasksPerLocale: 1,
		MaxLocales:     4,
		MaxSharedTasks: 2,
		Latency:        comm.Zero(),
		Seed:           7,
		Repeats:        1,
	}
}

func checkFigure(t *testing.T, f Figure, wantPanels int, xs []int) {
	t.Helper()
	if len(f.Panels) != wantPanels {
		t.Fatalf("figure %s has %d panels, want %d", f.ID, len(f.Panels), wantPanels)
	}
	for _, p := range f.Panels {
		if len(p.Series) == 0 {
			t.Fatalf("figure %s panel %q has no series", f.ID, p.Title)
		}
		for _, s := range p.Series {
			if len(s.Points) != len(xs) {
				t.Fatalf("figure %s series %q has %d points, want %d", f.ID, s.Label, len(s.Points), len(xs))
			}
			for i, pt := range s.Points {
				if pt.X != xs[i] {
					t.Fatalf("figure %s series %q point %d X=%d want %d", f.ID, s.Label, i, pt.X, xs[i])
				}
				if pt.Seconds < 0 {
					t.Fatalf("negative time in %s/%s", f.ID, s.Label)
				}
			}
		}
	}
}

func TestFigure3Structure(t *testing.T) {
	f := Figure3(tinyConfig())
	if f.ID != "3" || len(f.Panels) != 2 {
		t.Fatalf("fig3 = %+v", f.ID)
	}
	checkFigure(t, Figure{ID: "3s", Panels: f.Panels[:1]}, 1, []int{1, 2})
	checkFigure(t, Figure{ID: "3d", Panels: f.Panels[1:]}, 1, []int{1, 2, 4})
	if len(f.Panels[1].Series) != 5 {
		t.Fatalf("distributed panel has %d series, want 5", len(f.Panels[1].Series))
	}
}

func TestFigures456Structure(t *testing.T) {
	cfg := tinyConfig()
	for _, f := range []Figure{Figure4(cfg), Figure5(cfg), Figure6(cfg)} {
		checkFigure(t, f, 3, []int{2, 4})
		for _, p := range f.Panels {
			if len(p.Series) != 2 {
				t.Fatalf("fig %s panel %q series = %d", f.ID, p.Title, len(p.Series))
			}
		}
	}
}

func TestFigure7Structure(t *testing.T) {
	f := Figure7(tinyConfig())
	checkFigure(t, f, 1, []int{1, 2, 4})
}

func TestAblationsStructure(t *testing.T) {
	figs := Ablations(tinyConfig())
	if len(figs) != 13 {
		t.Fatalf("got %d ablations", len(figs))
	}
	ids := map[string]bool{}
	for _, f := range figs {
		ids[f.ID] = true
		if len(f.Panels) == 0 {
			t.Fatalf("ablation %s empty", f.ID)
		}
	}
	for _, id := range []string{"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11", "A12", "A13"} {
		if !ids[id] {
			t.Fatalf("missing ablation %s (have %v)", id, ids)
		}
	}
}

// The aggregation ablation's claim, asserted on the deterministic
// counters: the direct series pays O(ops) per-op round trips while the
// aggregated series pays O(flushes) bulk transfers and zero per-op AM
// atomics.
func TestAblationAggregationCounters(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.1 // 819 increments: enough to dwarf the flush count
	f := AblationAggregation(cfg)
	if f.ID != "A6" || len(f.Panels) != 2 {
		t.Fatalf("A6 shape: %+v", f.ID)
	}
	inc := f.Panels[0]
	for i, direct := range inc.Series[0].Points {
		agged := inc.Series[1].Points[i]
		ops := direct.Comm.AMAMOs + direct.Comm.LocalAMOs
		if ops == 0 {
			t.Fatalf("direct series point %d did no AMOs: %v", i, direct.Comm)
		}
		if agged.Comm.AMAMOs != 0 {
			t.Fatalf("aggregated series paid %d per-op AM round trips", agged.Comm.AMAMOs)
		}
		if agged.Comm.AggOps == 0 {
			t.Fatalf("aggregated series buffered nothing: %v", agged.Comm)
		}
		if agged.Comm.AggFlushes >= agged.Comm.AggOps {
			t.Fatalf("aggregation did not batch: %d flushes for %d ops",
				agged.Comm.AggFlushes, agged.Comm.AggOps)
		}
	}
	q := f.Panels[1]
	for i, perOp := range q.Series[0].Points {
		bulk := q.Series[1].Points[i]
		if perOp.Comm.OnStmts <= bulk.Comm.OnStmts {
			t.Fatalf("point %d: per-op OnStmts=%d not above bulk OnStmts=%d",
				i, perOp.Comm.OnStmts, bulk.Comm.OnStmts)
		}
	}
}

// The scatter-list ablation's claims, asserted on the deterministic
// counters:
//
//  1. scatter lists: reclamation books at most one bulk transfer per
//     (source, destination) locale pair, L·(L−1) in all, however many
//     objects a list holds (at L=2 each holds 512, twice the
//     aggregation capacity), and frees every deferred object;
//  2. per-object RPC: one on-statement per remote object, beside the
//     forall's one launch per remote locale.
func TestAblationA3(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.25 // 1024 objects, every one remote
	n := cfg.ops(1 << 12)
	f := AblationScatter(cfg)
	if f.ID != "A3" || len(f.Panels) != 1 || len(f.Panels[0].Series) != 2 {
		t.Fatalf("A3 shape: id=%s panels=%d", f.ID, len(f.Panels))
	}
	scatter, rpc := f.Panels[0].Series[0], f.Panels[0].Series[1]
	for i, p := range scatter.Points {
		L := p.X
		if bound := int64(L * (L - 1)); p.Comm.BulkXfers == 0 || p.Comm.BulkXfers > bound {
			t.Fatalf("L=%d: scatter booked %d bulk transfers, want 1..%d: %v", L, p.Comm.BulkXfers, bound, p.Comm)
		}
		if p.Comm.BulkBytes != int64(8*n) {
			t.Fatalf("L=%d: scatter shipped %d B, want one address per object (%d B)", L, p.Comm.BulkBytes, 8*n)
		}
		_, v := cfg.runDeletion(L, n, 100, 0, comm.BackendNone)
		if v.Epoch.Deferred != int64(n) || v.Epoch.Reclaimed != int64(n) || v.Heap.UAFFrees != 0 {
			t.Fatalf("L=%d: deferred %d, reclaimed %d, uafFrees %d; want %d, %d, 0",
				L, v.Epoch.Deferred, v.Epoch.Reclaimed, v.Heap.UAFFrees, n, n)
		}
		r := rpc.Points[i]
		if want := int64(n + L - 1); r.Comm.OnStmts != want {
			t.Fatalf("L=%d: per-object RPC booked %d on-statements, want %d: %v", L, r.Comm.OnStmts, want, r.Comm)
		}
	}
}

// The sharding ablation's claims, asserted on the deterministic
// matrix and counters. This is the CI smoke gate for the privatized,
// owner-sharded structure layer (run with -short):
//
//  1. the single-home queue/stack funnel traffic into their home's
//     matrix column, which grows with locale count under weak scaling:
//     at every L it holds at least (L−1) times what one locale books
//     there uncontended. CAS retries only add events to the column, so
//     contention cannot move the bound; the test logs them beside it;
//  2. the owner-sharded versions keep the busiest column O(1) — the
//     only remote events in the whole run are the coforall launches,
//     one per column;
//  3. HomeOf-routed hashmap gets perform zero remote events, at any
//     locale count.
func TestAblationA7(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // ~25 ops per locale: small but far above launch noise
	f := AblationSharding(cfg)
	if f.ID != "A7" || len(f.Panels) != 3 {
		t.Fatalf("A7 shape: id=%s panels=%d", f.ID, len(f.Panels))
	}
	perLocale := int64(cfg.ops(1 << 9))
	// One locale's remote events per put+take pair on a structure homed
	// on locale 0, uncontended, under backend none. Queue: an enqueue is
	// the node's on-statement, one GET and five AM atomics, a dequeue
	// two GETs and five AM atomics. Stack: a push and a pop are two
	// remote DCAS each, the head's read and its swap.
	perPair := [2]int64{14, 4}
	for pi, panel := range f.Panels[:2] {
		single, sharded := panel.Series[0], panel.Series[1]
		// Single-home: the home column holds every remote locale's ops.
		for _, p := range single.Points {
			var home int64
			for _, row := range p.Matrix {
				home += row[0]
			}
			bound := int64(p.X-1) * perLocale * perPair[pi]
			t.Logf("%s L=%d: home column %d, bound %d, CAS retries %d", panel.Title, p.X, home, bound, p.Comm.CASRetries)
			if home < bound {
				t.Fatalf("%s L=%d: single-home column booked %d events, want >= (L-1)*%d*%d = %d (CAS retries %d): %v",
					panel.Title, p.X, home, perLocale, perPair[pi], bound, p.Comm.CASRetries, p.Matrix)
			}
		}
		// Sharded: busiest column is O(1) — exactly the one coforall
		// launch on-statement per remote locale, regardless of count.
		for i, p := range sharded.Points {
			if p.MaxInbound > 1 {
				t.Fatalf("%s: sharded point %d busiest column = %d events (want <= 1): %v",
					panel.Title, i, p.MaxInbound, p.Comm)
			}
			if ops := p.Comm.Remote() - p.Comm.OnStmts; ops != 0 {
				t.Fatalf("%s: sharded point %d performed %d non-launch remote events: %v",
					panel.Title, i, ops, p.Comm)
			}
		}
	}
	mapPanel := f.Panels[2]
	local, random := mapPanel.Series[0], mapPanel.Series[1]
	for i, p := range local.Points {
		if p.Comm.Remote() != 0 {
			t.Fatalf("local-bucket gets point %d performed remote events: %v", i, p.Comm)
		}
		if p.Comm.LocalAMOs == 0 {
			t.Fatalf("local-bucket gets point %d did no work: %v", i, p.Comm)
		}
	}
	for i, p := range random.Points {
		if p.Comm.Remote() == 0 {
			t.Fatalf("random-bucket gets point %d suspiciously free: %v", i, p.Comm)
		}
	}
}

func TestAblationA8(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // ~25 hot gets per locale: small but far above launch noise
	f := AblationReplication(cfg)
	if f.ID != "A8" || len(f.Panels) != 2 {
		t.Fatalf("A8 shape: id=%s panels=%d", f.ID, len(f.Panels))
	}
	uncached, cached := f.Panels[0].Series[0], f.Panels[0].Series[1]
	// Uncached: every hot key is homed on locale 0, so its inbound
	// column carries all (L-1) remote locales' gets and grows with L.
	first := uncached.Points[0]
	last := uncached.Points[len(uncached.Points)-1]
	if first.MaxInbound <= 0 {
		t.Fatalf("uncached hot column empty: %+v", first.Comm)
	}
	if last.MaxInbound < 2*first.MaxInbound {
		t.Fatalf("uncached hot column did not grow with locales: %d -> %d",
			first.MaxInbound, last.MaxInbound)
	}
	// Cached: with warmed replicas the measured phase is all hits —
	// the busiest inbound column is exactly the one coforall launch
	// on-statement, O(1) at every locale count.
	for i, p := range cached.Points {
		if p.MaxInbound > 1 {
			t.Fatalf("cached point %d busiest column = %d events (want <= 1): %v",
				i, p.MaxInbound, p.Comm)
		}
		if ops := p.Comm.Remote() - p.Comm.OnStmts; ops != 0 {
			t.Fatalf("cached point %d performed %d non-launch remote events: %v", i, ops, p.Comm)
		}
		if p.Comm.CacheHits == 0 {
			t.Fatalf("cached point %d served no hits: %v", i, p.Comm)
		}
		if p.Comm.CacheMiss != 0 {
			t.Fatalf("cached point %d missed %d times after warming: %v", i, p.Comm.CacheMiss, p.Comm)
		}
	}
	// The seeded invalidation storm: cached reads race write-through
	// retirement and epoch advancement; the poisoned heaps must detect
	// zero UAF and every retired entry must be physically reclaimed.
	pt, v := replicationStorm(cfg, 4)
	if v.Heap.UAFLoads != 0 || v.Heap.UAFFrees != 0 {
		t.Fatalf("storm heap verdict: %+v", v.Heap)
	}
	if v.Epoch.Deferred != v.Epoch.Reclaimed {
		t.Fatalf("storm epoch verdict: deferred=%d reclaimed=%d", v.Epoch.Deferred, v.Epoch.Reclaimed)
	}
	if pt.Comm.CacheInval == 0 || pt.Comm.CacheHits == 0 {
		t.Fatalf("storm exercised nothing: %v", pt.Comm)
	}
}

// The write-absorption ablation's claims, asserted on the
// deterministic counters (the CI smoke gate for PR 6, run with
// -short alongside A7/A8):
//
//  1. with combining on, shipped aggregated ops collapse by >= 5x
//     against the enqueued count under the hot-key storm, and the
//     absorption arithmetic balances (shipped + combined == enqueued);
//  2. with combining off, nothing is absorbed: every enqueued op
//     ships, and the owner's CAS work is O(ops) — at least 4x the
//     combined arm's;
//  3. the flat combiner serializes the owner-side replay, so the
//     combined arm's CAS retry count is exactly zero.
func TestAblationA9(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // ~25 writes per locale over 4 hot keys: 6.25x absorbable
	f := AblationWriteAbsorption(cfg)
	if f.ID != "A9" || len(f.Panels) != 2 {
		t.Fatalf("A9 shape: id=%s panels=%d", f.ID, len(f.Panels))
	}
	for _, panel := range f.Panels {
		plain, combined := panel.Series[0], panel.Series[1]
		for i, p := range plain.Points {
			if p.Comm.AggOpsEnq == 0 {
				t.Fatalf("%s: uncombined point %d enqueued nothing: %v", panel.Title, i, p.Comm)
			}
			if p.Comm.AggCombined != 0 {
				t.Fatalf("%s: uncombined point %d absorbed %d ops: %v",
					panel.Title, i, p.Comm.AggCombined, p.Comm)
			}
			if p.Comm.AggOps != p.Comm.AggOpsEnq {
				t.Fatalf("%s: uncombined point %d shipped %d of %d enqueued: %v",
					panel.Title, i, p.Comm.AggOps, p.Comm.AggOpsEnq, p.Comm)
			}
		}
		for i, p := range combined.Points {
			if p.Comm.AggCombined == 0 {
				t.Fatalf("%s: combined point %d absorbed nothing: %v", panel.Title, i, p.Comm)
			}
			if p.Comm.AggOps+p.Comm.AggCombined != p.Comm.AggOpsEnq {
				t.Fatalf("%s: combined point %d books don't balance: shipped %d + absorbed %d != enqueued %d",
					panel.Title, i, p.Comm.AggOps, p.Comm.AggCombined, p.Comm.AggOpsEnq)
			}
			if p.Comm.AggOps*5 > p.Comm.AggOpsEnq {
				t.Fatalf("%s: combined point %d shipped %d of %d enqueued (< 5x absorption)",
					panel.Title, i, p.Comm.AggOps, p.Comm.AggOpsEnq)
			}
			if p.Comm.CASRetries != 0 {
				t.Fatalf("%s: combined point %d retried %d CASes under the flat combiner",
					panel.Title, i, p.Comm.CASRetries)
			}
		}
	}
	// Owner-side CAS work: the upsert storm replays every shipped write
	// through the bucket lists' CAS, so the uncombined arm pays O(ops)
	// attempts while the combined arm pays O(hot keys).
	plainU, combU := f.Panels[0].Series[0], f.Panels[0].Series[1]
	for i, p := range plainU.Points {
		q := combU.Points[i]
		if p.Comm.CASAttempts == 0 {
			t.Fatalf("uncombined upsert point %d did no CAS work: %v", i, p.Comm)
		}
		if q.Comm.CASAttempts*4 > p.Comm.CASAttempts {
			t.Fatalf("combined upsert point %d CAS attempts %d not bounded vs uncombined %d",
				i, q.Comm.CASAttempts, p.Comm.CASAttempts)
		}
	}
}

func TestReportWriters(t *testing.T) {
	f := Figure7(tinyConfig())
	var text, csv, commText strings.Builder
	WriteText(&text, f)
	WriteCSV(&csv, f)
	WriteCommText(&commText, f)

	if !strings.Contains(text.String(), "Figure 7") || !strings.Contains(text.String(), "Pin-Unpin") {
		t.Fatalf("text output malformed:\n%s", text.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + (2 backends × 3 locale points)
	if len(lines) != 1+6 {
		t.Fatalf("csv has %d lines:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "figure,panel,series,x,seconds") {
		t.Fatalf("csv header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != 20 {
			t.Fatalf("csv row has %d commas: %q", got, l)
		}
	}
	if !strings.Contains(commText.String(), "remote communication ops") {
		t.Fatal("comm view missing")
	}

	// Figure 7 captures no matrix: the heatmap record is empty.
	var matrixCSV strings.Builder
	if rows := WriteMatrixCSV(&matrixCSV, []Figure{f}); rows != 0 || matrixCSV.Len() != 0 {
		t.Fatalf("matrix CSV for fig7: %d rows, %q", rows, matrixCSV.String())
	}
}

func TestWriteMatrixCSV(t *testing.T) {
	f := Figure{ID: "A7", Panels: []Panel{{Title: `p, with "quotes"`, Series: []Series{{
		Label: "s",
		Points: []Point{
			{X: 2, Matrix: [][]int64{{0, 3}, {1, 0}}, MaxInbound: 3},
			{X: 4}, // no matrix: skipped
		},
	}}}}}
	var out strings.Builder
	rows := WriteMatrixCSV(&out, []Figure{f})
	if rows != 4 {
		t.Fatalf("rows = %d, want 4", rows)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 || lines[0] != "figure,panel,series,x,src,dst,events" {
		t.Fatalf("matrix CSV:\n%s", out.String())
	}
	// RFC 4180 quoting: embedded quotes doubled, field quoted.
	if lines[2] != `A7,"p, with ""quotes""",s,2,0,1,3` {
		t.Fatalf("cell row = %q", lines[2])
	}
	// The record round-trips through a standard CSV reader.
	recs, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil || len(recs) != 5 || recs[2][1] != `p, with "quotes"` {
		t.Fatalf("re-parse: %v %v", err, recs)
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ops(100) != 100 {
		t.Fatal("scale 1 changed op count")
	}
	cfg.Scale = 0.0001
	if cfg.ops(100) != 1 {
		t.Fatal("ops floor is 1")
	}
	cfg.MaxLocales = 16
	sweep := cfg.localeSweep(2)
	want := []int{2, 4, 8, 16}
	if len(sweep) != len(want) {
		t.Fatalf("sweep = %v", sweep)
	}
	for i := range want {
		if sweep[i] != want[i] {
			t.Fatalf("sweep = %v", sweep)
		}
	}
}

func TestBestKeepsFastest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Repeats = 3
	times := []float64{3, 1, 2}
	i := 0
	p := cfg.best(func() Point {
		p := Point{Seconds: times[i]}
		i++
		return p
	})
	if p.Seconds != 1 {
		t.Fatalf("best = %v", p.Seconds)
	}
	if i != 3 {
		t.Fatalf("ran %d times", i)
	}
}

// The rebalancing ablation's claims, asserted on the deterministic
// counters (the CI smoke gate for the dynamic-rebalancing PR):
//
//  1. static ownership: the moving hot set funnels every window's
//     writes into locale 0's inbound column, which grows with the
//     locale count (and books zero migrations);
//  2. rebalanced: the controller migrates every window's hot buckets
//     off the overloaded locale — exactly (locales-1) per window —
//     and the busiest inbound column stays within 2x the per-locale
//     mean (the imbalance the controller is built to cap);
//  3. the books balance exactly: shards adopted == shards retired ==
//     the controller's migration count, and the comm layer's moved
//     bytes equal both the controller's total and 16 bytes per
//     migration (each hot bucket carries exactly one entry);
//  4. the handoff is epoch-coherent: zero detected use-after-free,
//     every deferred node reclaimed.
func TestAblationA10(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // 25 writes per quantum: 7 flush events per writer
	for _, locales := range cfg.localeSweep(2) {
		sp, sv := movingHotStorm(cfg, locales, false)
		if sv.Ctrl.Migrations != 0 || sv.Comm.MigRetired != 0 || sv.Comm.MigReroutes != 0 {
			t.Fatalf("L=%d: static arm migrated: %+v %+v", locales, sv.Ctrl, sv.Comm)
		}
		if sp.MaxInbound == 0 {
			t.Fatalf("L=%d: static arm funneled nothing", locales)
		}

		rp, rv := movingHotStorm(cfg, locales, true)
		wantMigs := int64(a10Windows * (locales - 1))
		if rv.Ctrl.Migrations != wantMigs {
			t.Fatalf("L=%d: controller migrated %d, want %d (steps=%d)",
				locales, rv.Ctrl.Migrations, wantMigs, rv.Ctrl.Steps)
		}
		if rv.Comm.MigAdopted != wantMigs || rv.Comm.MigRetired != wantMigs {
			t.Fatalf("L=%d: books: adopted %d retired %d, want %d both",
				locales, rv.Comm.MigAdopted, rv.Comm.MigRetired, wantMigs)
		}
		if rv.Comm.MigBytes != rv.Ctrl.BytesMoved || rv.Comm.MigBytes != 16*wantMigs {
			t.Fatalf("L=%d: moved bytes %d (ctrl %d), want %d",
				locales, rv.Comm.MigBytes, rv.Ctrl.BytesMoved, 16*wantMigs)
		}
		// The bound: the rebalanced run's busiest inbound column stays
		// within 2x the per-locale mean, wherever the controller parked
		// the buckets; the static run concentrates far beyond it.
		var total int64
		for _, row := range rp.Matrix {
			for _, n := range row {
				total += n
			}
		}
		mean := float64(total) / float64(locales)
		if float64(rp.MaxInbound) > 2*mean {
			t.Fatalf("L=%d: rebalanced busiest column %d exceeds 2x mean %.1f (total %d)",
				locales, rp.MaxInbound, mean, total)
		}
		if rp.MaxInbound >= sp.MaxInbound {
			t.Fatalf("L=%d: rebalancing did not relieve the hot column: %d vs static %d",
				locales, rp.MaxInbound, sp.MaxInbound)
		}
		if rv.Heap.UAFLoads != 0 || rv.Heap.UAFStores != 0 || rv.Heap.UAFFrees != 0 {
			t.Fatalf("L=%d: heap verdict: %+v", locales, rv.Heap)
		}
		if rv.Epoch.Deferred != rv.Epoch.Reclaimed {
			t.Fatalf("L=%d: epoch verdict: deferred=%d reclaimed=%d",
				locales, rv.Epoch.Deferred, rv.Epoch.Reclaimed)
		}
	}

	// The static arm's hot column grows with the locale count — the
	// O(L) failure mode the controller exists to cap.
	sweep := cfg.localeSweep(2)
	firstPt, _ := movingHotStorm(cfg, sweep[0], false)
	lastPt, _ := movingHotStorm(cfg, sweep[len(sweep)-1], false)
	if lastPt.MaxInbound < 2*firstPt.MaxInbound {
		t.Fatalf("static hot column did not grow with locales: %d -> %d",
			firstPt.MaxInbound, lastPt.MaxInbound)
	}
}

// The crash-failover ablation's claims, asserted on the deterministic
// counters (the CI smoke gate for the crash/failover PR):
//
//  1. wedged (no failover): every post-crash write toward the dead
//     owner drains to the lost-ops ledger — exactly postQuanta ×
//     survivors × reps — and the stranded pin blocks every post-crash
//     epoch election (advanceFail == postQuanta, no further advances);
//  2. failover: the survivors adopt every bucket the victim owned
//     (nbuckets/L, hot and empty alike), the moved bytes equal one
//     16-byte entry per hot bucket, exactly one stranded token is
//     force-retired, zero ops are lost, and every post-crash election
//     succeeds;
//  3. the adoption books reconcile with the comm plane exactly:
//     shards == MigAdopted == MigRetired, bytes == MigBytes, and no
//     write ever needed a reroute (the owner table republishes before
//     traffic resumes);
//  4. both arms end safe: zero detected use-after-free and every
//     deferred node reclaimed — a crash may lose workload writes but
//     never a deferred deletion.
func TestAblationA11(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // 25 writes per writer per quantum
	reps := int64(cfg.ops(1 << 9))
	for _, locales := range cfg.localeSweep(2) {
		_, wv := crashStorm(cfg, locales, false)
		wantLost := int64(a11PostQuanta) * int64(locales-1) * reps
		if wv.Comm.OpsLost != wantLost {
			t.Fatalf("L=%d: wedged arm lost %d ops, want %d", locales, wv.Comm.OpsLost, wantLost)
		}
		if wv.Epoch.Advances != a11PreQuanta+1 || wv.Epoch.AdvanceFail != a11PostQuanta {
			t.Fatalf("L=%d: wedged arm advances=%d advanceFail=%d, want %d and %d",
				locales, wv.Epoch.Advances, wv.Epoch.AdvanceFail, a11PreQuanta+1, a11PostQuanta)
		}
		if wv.Shards != 0 || wv.Tokens != 0 || wv.Comm.MigAdopted != 0 || wv.Comm.MigRetired != 0 {
			t.Fatalf("L=%d: wedged arm recovered: %+v comm=%+v", locales, wv, wv.Comm)
		}

		_, fv := crashStorm(cfg, locales, true)
		if fv.Comm.OpsLost != 0 {
			t.Fatalf("L=%d: failover arm lost %d ops, want 0", locales, fv.Comm.OpsLost)
		}
		wantShards := int64(16) // the victim's share of 16*L buckets
		if fv.Shards != wantShards || fv.Comm.MigAdopted != wantShards || fv.Comm.MigRetired != wantShards {
			t.Fatalf("L=%d: adoption books: shards=%d adopted=%d retired=%d, want %d",
				locales, fv.Shards, fv.Comm.MigAdopted, fv.Comm.MigRetired, wantShards)
		}
		wantBytes := int64(16 * (locales - 1)) // one 16-byte entry per hot bucket
		if fv.Bytes != wantBytes || fv.Comm.MigBytes != wantBytes {
			t.Fatalf("L=%d: moved bytes %d (comm %d), want %d",
				locales, fv.Bytes, fv.Comm.MigBytes, wantBytes)
		}
		if fv.Comm.MigReroutes != 0 {
			t.Fatalf("L=%d: %d reroutes after quiescent failover", locales, fv.Comm.MigReroutes)
		}
		if fv.Tokens != 1 {
			t.Fatalf("L=%d: force-retired %d tokens, want 1", locales, fv.Tokens)
		}
		if fv.Epoch.Advances != a11PreQuanta+1+a11PostQuanta || fv.Epoch.AdvanceFail != 0 {
			t.Fatalf("L=%d: failover arm advances=%d advanceFail=%d, want %d and 0",
				locales, fv.Epoch.Advances, fv.Epoch.AdvanceFail, a11PreQuanta+1+a11PostQuanta)
		}

		for arm, vd := range map[string]verdict{"wedged": wv, "failover": fv} {
			if vd.Heap.UAFLoads != 0 || vd.Heap.UAFStores != 0 || vd.Heap.UAFFrees != 0 {
				t.Fatalf("L=%d: %s arm heap verdict: %+v", locales, arm, vd.Heap)
			}
			if vd.Epoch.Deferred != vd.Epoch.Reclaimed {
				t.Fatalf("L=%d: %s arm epoch verdict: deferred=%d reclaimed=%d",
					locales, arm, vd.Epoch.Deferred, vd.Epoch.Reclaimed)
			}
		}
	}
}

// The partition-retry ablation's claims, asserted on the deterministic
// counters (the CI smoke gate for the partition/retry PR), plus the
// queue/stack crash-failover drill the same PR closes:
//
//  1. retry disabled: every op aimed across the severed pair during
//     the outage drains to the lost-ops ledger — exactly sevQuanta ×
//     2 × reps (both pair locales' whole budgets) — and the retry
//     ledgers never book anything;
//  2. retry enabled: the same refused ops park instead, the heal
//     redelivers every one of them (OpsParked == OpsRedelivered, zero
//     expiries under an hour-long deadline), and nothing reaches the
//     fail-stop ledger;
//  3. both arms end safe: zero detected use-after-free and every
//     deferred node reclaimed;
//  4. a crashed queue/stack segment fails over with balanced books:
//     one chunk per survivor, the victim's whole payload in bytes,
//     shards == MigAdopted == MigRetired, and the stranded pin
//     force-retired.
func TestAblationA12(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // 25 writes per writer per quantum
	reps := int64(cfg.ops(1 << 9))
	for _, locales := range cfg.localeSweep(4) {
		wantRefused := int64(a12SevQuanta) * 2 * reps

		_, dv := flashPartition(cfg, locales, false)
		if dv.Comm.OpsLost != wantRefused {
			t.Fatalf("L=%d: disabled arm lost %d ops, want %d", locales, dv.Comm.OpsLost, wantRefused)
		}
		if dv.Comm.OpsParked != 0 || dv.Comm.OpsRedelivered != 0 || dv.Comm.OpsExpired != 0 {
			t.Fatalf("L=%d: disabled arm booked retries: %+v", locales, dv.Comm)
		}

		_, rv := flashPartition(cfg, locales, true)
		if rv.Comm.OpsParked != wantRefused || rv.Comm.OpsRedelivered != wantRefused {
			t.Fatalf("L=%d: retry arm parked=%d redelivered=%d, want %d and %d",
				locales, rv.Comm.OpsParked, rv.Comm.OpsRedelivered, wantRefused, wantRefused)
		}
		if rv.Comm.OpsExpired != 0 {
			t.Fatalf("L=%d: retry arm expired %d ops under an hour-long deadline", locales, rv.Comm.OpsExpired)
		}
		if rv.Comm.OpsLost != 0 {
			t.Fatalf("L=%d: retry arm lost %d ops, want 0", locales, rv.Comm.OpsLost)
		}

		for arm, vd := range map[string]verdict{"disabled": dv, "retry": rv} {
			if vd.Heap.UAFLoads != 0 || vd.Heap.UAFStores != 0 || vd.Heap.UAFFrees != 0 {
				t.Fatalf("L=%d: %s arm heap verdict: %+v", locales, arm, vd.Heap)
			}
			if vd.Epoch.Deferred != vd.Epoch.Reclaimed {
				t.Fatalf("L=%d: %s arm epoch verdict: deferred=%d reclaimed=%d",
					locales, arm, vd.Epoch.Deferred, vd.Epoch.Reclaimed)
			}
		}
	}

	// The failover half of the gate: a crashed queue/stack segment
	// drains onto the survivors with exact, balanced books.
	const locales, victim, vq = 4, 2, 12
	drill := func(t *testing.T, fill func(c *pgas.Ctx, em epoch.EpochManager), fail func(c *pgas.Ctx) (int64, int64)) {
		sys := pgas.NewSystem(pgas.Config{Locales: locales, Backend: comm.BackendNone})
		defer sys.Shutdown()
		sys.Run(func(c *pgas.Ctx) {
			em := epoch.NewEpochManager(c)
			fill(c, em)
			c.On(victim, func(vc *pgas.Ctx) { em.Pin(vc) })
			if err := sys.Crash(victim); err != nil {
				t.Errorf("Crash: %v", err)
				return
			}
			before := sys.Counters().Snapshot()
			sc := c.Salvage()
			shards, bytes := fail(sc)
			tokens := em.ForceRetire(sc, victim)
			sc.Flush()
			if shards != locales-1 {
				t.Errorf("failover adopted %d chunks, want %d", shards, locales-1)
			}
			if want := int64(vq) * 16; bytes != want {
				t.Errorf("failover moved %d bytes, want %d", bytes, want)
			}
			if tokens != 1 {
				t.Errorf("force-retired %d tokens, want 1", tokens)
			}
			delta := sys.Counters().Snapshot().Sub(before)
			if delta.MigAdopted != shards || delta.MigRetired != shards {
				t.Errorf("books unbalanced: adopted=%d retired=%d shards=%d",
					delta.MigAdopted, delta.MigRetired, shards)
			}
			em.Clear(c)
		})
	}
	t.Run("queue", func(t *testing.T) {
		var q queue.Sharded[int]
		drill(t,
			func(c *pgas.Ctx, em epoch.EpochManager) {
				q = queue.NewSharded[int](c, em)
				c.On(victim, func(vc *pgas.Ctx) {
					em.Protect(vc, func(tok *epoch.Token) {
						for i := 0; i < vq; i++ {
							q.Enqueue(vc, tok, i)
						}
					})
				})
			},
			func(sc *pgas.Ctx) (int64, int64) { return q.Failover(sc, victim) })
	})
	t.Run("stack", func(t *testing.T) {
		var s stack.Sharded[int]
		drill(t,
			func(c *pgas.Ctx, em epoch.EpochManager) {
				s = stack.NewSharded[int](c, em)
				c.On(victim, func(vc *pgas.Ctx) {
					em.Protect(vc, func(tok *epoch.Token) {
						for i := 0; i < vq; i++ {
							s.Push(vc, tok, i)
						}
					})
				})
			},
			func(sc *pgas.Ctx) (int64, int64) { return s.Failover(sc, victim) })
	})
}

// The function-vs-data-shipping ablation's counters, exact at the zero
// profile. A replay of the fixed mix against a model gives, per locale
// count, the ops whose bucket another locale owns and the allocations
// the walk makes on an owner (a fresh insert, every upsert). Then on
// both backends the ship arm books one on-statement per remote op, no
// GET and no per-word remote atomic, while the walk's on-statements are
// its remote allocations; both arms touch the same words with the same
// CASes — under none the ship arm's local atomics are the walk's local
// plus AM atomics, under ugni every word access is a NIC atomic either
// way — and the ship arm's matrix carries exactly its on-statements.
func TestAblationA13(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.05 // 25 ops per locale
	perLocale := cfg.ops(1 << 9)
	f := AblationShipping(cfg)
	if f.ID != "A13" || len(f.Panels) != 2 {
		t.Fatalf("A13 shape: id=%s panels=%d", f.ID, len(f.Panels))
	}
	for idx, locales := range cfg.localeSweep(2) {
		sys := pgas.NewSystem(pgas.Config{Locales: locales})
		c := sys.Ctx(0)
		m := hashmap.New[int](c, 8*locales, epoch.NewEpochManager(c))
		keyspace := 32 * locales
		present := map[uint64]bool{}
		for k := 0; k < keyspace; k += 2 {
			present[uint64(k)] = true
		}
		var remoteOps, remoteAllocs int64
		for l := 0; l < locales; l++ {
			for i := 0; i < perLocale; i++ {
				op, k := a13Op(l, i, keyspace)
				remote := m.HomeOf(k) != l
				if remote {
					remoteOps++
				}
				switch op {
				case 'i', 'u':
					if remote && (op == 'u' || !present[k]) {
						remoteAllocs++
					}
					present[k] = true
				case 'r':
					delete(present, k)
				}
			}
		}
		sys.Shutdown()
		if remoteOps == 0 || remoteAllocs == 0 {
			t.Fatalf("L=%d: the mix reached no remote bucket", locales)
		}

		for _, panel := range f.Panels {
			walk, ship := panel.Series[0].Points[idx].Comm, panel.Series[1].Points[idx].Comm
			if ship.OnStmts != remoteOps || walk.OnStmts != remoteAllocs {
				t.Fatalf("%s L=%d: on-statements ship %d walk %d, want %d and %d",
					panel.Title, locales, ship.OnStmts, walk.OnStmts, remoteOps, remoteAllocs)
			}
			if ship.Gets != 0 || ship.AMAMOs != 0 || walk.AMAMOs+walk.LocalAMOs+walk.NICAMOs != ship.LocalAMOs+ship.NICAMOs {
				t.Fatalf("%s L=%d: word accesses differ:\n ship %v\n walk %v", panel.Title, locales, ship, walk)
			}
			if walk.Gets == 0 || ship.CASAttempts != walk.CASAttempts || ship.CASRetries != 0 || walk.CASRetries != 0 {
				t.Fatalf("%s L=%d: CAS or GET books:\n ship %v\n walk %v", panel.Title, locales, ship, walk)
			}
		}
		none, ugni := f.Panels[0], f.Panels[1]
		if s := none.Series[1].Points[idx].Comm; s.NICAMOs != 0 || s.Remote() != remoteOps {
			t.Fatalf("none L=%d: ship arm booked %d remote events, want its %d on-statements: %v", locales, s.Remote(), remoteOps, s)
		}
		rows, _ := comm.TotalsOf(none.Series[1].Points[idx].Matrix)
		var sent int64
		for _, n := range rows {
			sent += n
		}
		if sent != remoteOps {
			t.Fatalf("none L=%d: ship arm matrix carries %d events, want %d", locales, sent, remoteOps)
		}
		if s, w := ugni.Series[1].Points[idx].Comm, ugni.Series[0].Points[idx].Comm; s.LocalAMOs != 0 || s.NICAMOs != w.NICAMOs {
			t.Fatalf("ugni L=%d: NIC atomics ship %d walk %d (local %d), want equal and no CPU atomics", locales, s.NICAMOs, w.NICAMOs, s.LocalAMOs)
		}
	}
}
