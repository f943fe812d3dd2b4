package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark emits. This file is the
// single table: BENCHMARK.json echoes it (the package test compares
// the two), -compare reads the bounds from it, and every result is
// validated against it before it is printed.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before -compare reports REGRESS. Zero for
	// per-layer metrics, which are informational.
	Bound float64
	// Floor is an absolute difference below which a worsening is never
	// a regression (setup_s only: 10 % of a 0.1 s set-up is noise).
	Floor float64
}

// endToEnd lists the metrics a loadgen/soak user would see, per
// workload, from the untraced workload.Run of the scenario. A bound is
// three times the widest ten-run spread measured on any workload,
// rounded up to a twentieth and capped at the 0.25 the driver allows
// (README.md, "Measured spread"); the latency percentiles, whose spread
// passed 0.25, are per-layer metrics instead.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "overhead_ns_per_op", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "mem_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
}

// perLayer lists the single-layer metrics; the prefix before the first
// dot is the layer (module) name, except the structure ladder rungs,
// which carry the structure's own name. *_ns and *_ns_par are ladder
// rungs, *_per_op and friends come from the untraced run's counters,
// workload.op_p*_ns from its latency histogram, *_share and
// structure.*_p50_ns from the traced run.
var perLayer = []metricDef{
	{Name: "gas.load_ns", Unit: "ns", Better: "lower"},
	{Name: "gas.load_ns_par", Unit: "ns", Better: "lower"},
	{Name: "gas.store_ns", Unit: "ns", Better: "lower"},
	{Name: "gas.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "gas.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "gas.frees_per_op", Unit: "frees/op", Better: "lower"},
	{Name: "gas.live_end", Unit: "count", Better: "lower"},
	{Name: "gas.uaf_total", Unit: "count", Better: "lower"},

	{Name: "comm.count_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.count_inc_ns_par", Unit: "ns", Better: "lower"},
	{Name: "comm.agg_enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.agg_enqueue_combine_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.agg_flush_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "comm.delay_2500_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.delay_2500_ns_par", Unit: "ns", Better: "lower"},
	{Name: "comm.remote_per_op", Unit: "events/op", Better: "lower"},
	{Name: "comm.modelled_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "comm.handler_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "comm.agg_ops_per_flush", Unit: "ops/flush", Better: "higher"},
	{Name: "comm.agg_combined_share", Unit: "ratio", Better: "higher"},
	{Name: "comm.agg_flush_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "comm.bulk_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "comm.max_inbound_share", Unit: "ratio", Better: "lower"},

	{Name: "pgas.on_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.on_sync_ns_par", Unit: "ns", Better: "lower"},
	{Name: "pgas.on_async_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.amo_local_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.amo_nic_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.amo_am_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.amo_am_ns_par", Unit: "ns", Better: "lower"},
	{Name: "pgas.dcas_local_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.dcas_am_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.get_remote_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.agg_call_ns", Unit: "ns", Better: "lower"},
	{Name: "pgas.gets_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.puts_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.nic_amos_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.am_amos_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.local_amos_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.on_stmts_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.dcas_remote_per_op", Unit: "events/op", Better: "lower"},
	{Name: "pgas.dispatch_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "pgas.flush_busy_share", Unit: "ratio", Better: "lower"},

	{Name: "atomics.read_ns", Unit: "ns", Better: "lower"},
	{Name: "atomics.cas_ns", Unit: "ns", Better: "lower"},
	{Name: "atomics.cas_aba_ns", Unit: "ns", Better: "lower"},
	{Name: "atomics.cas_per_op", Unit: "events/op", Better: "lower"},
	{Name: "atomics.cas_retry_share", Unit: "ratio", Better: "lower"},

	{Name: "epoch.pin_unpin_ns", Unit: "ns", Better: "lower"},
	{Name: "epoch.pin_unpin_ns_par", Unit: "ns", Better: "lower"},
	{Name: "epoch.defer_ns", Unit: "ns", Better: "lower"},
	{Name: "epoch.reclaim_ns_per_obj", Unit: "ns", Better: "lower"},
	{Name: "epoch.deferred_per_op", Unit: "events/op", Better: "lower"},
	{Name: "epoch.reclaimed_share", Unit: "ratio", Better: "higher"},
	{Name: "epoch.advances_per_kop", Unit: "events/kop", Better: "higher"},
	{Name: "epoch.advance_fail_share", Unit: "ratio", Better: "lower"},
	{Name: "epoch.reclaim_busy_share", Unit: "ratio", Better: "lower"},

	{Name: "shared.combiner_do_ns", Unit: "ns", Better: "lower"},
	{Name: "shared.combiner_do_ns_par", Unit: "ns", Better: "lower"},
	{Name: "shared.combine_ops_per_pass", Unit: "ops/pass", Better: "higher"},
	{Name: "shared.combine_busy_share", Unit: "ratio", Better: "lower"},

	{Name: "hashmap.get_ns", Unit: "ns", Better: "lower"},
	{Name: "hashmap.upsert_ns", Unit: "ns", Better: "lower"},
	{Name: "hashmap.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "hashmap.upsert_agg_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.enq_deq_ns", Unit: "ns", Better: "lower"},
	{Name: "queue.steal_ns", Unit: "ns", Better: "lower"},
	{Name: "structure.insert_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "structure.get_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "structure.remove_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "structure.busy_share", Unit: "ratio", Better: "lower"},

	{Name: "workload.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.op_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.op_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.engine_share", Unit: "ratio", Better: "lower"},

	{Name: "trace.begin_end_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "trace.books_balanced", Unit: "bool", Better: "higher"},

	{Name: "runtime.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
}

// checkComplete reports the first way values departs from defs: a
// metric missing, one that is not in the table, or a value that is not
// a finite number.
func checkComplete(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
	}
	if len(values) != len(defs) {
		known := make(map[string]bool, len(defs))
		for _, d := range defs {
			known[d.Name] = true
		}
		for name := range values {
			if !known[name] {
				return fmt.Errorf("metric %s is not in the metric table", name)
			}
		}
	}
	return nil
}

// median returns the middle of vs (mean of the middle two for an even
// count); 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean returns the mean of vs without its lowest and highest value
// (the plain mean for fewer than three). It is as deaf to one bad
// repetition as the median, but does not snap to a single repetition's
// value — the engine's latency percentiles are histogram bucket edges,
// and a median of those would read the same on most runs.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return ratio(sum, float64(len(s)))
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work
// has no ratio to report).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
