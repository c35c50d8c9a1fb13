package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root is generated from these tables (`-spec`), and selfcheck_test.go keeps
// the two in step.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

// endToEnd are the paper's claims as a user of the system sees them,
// measured with every kind of tracing off. Each is defined on all six
// workloads, because the driver gates every metric on every workload.
// Absolute times (t1_s, tbase_s) are printed by the timed run and reported
// by the traced run as benchmark.t1_s / benchmark.tbase_s, but are not
// gated: on this box they move 15-22 % with the state of the machine, while
// overhead, taken pair by pair from adjacent repeats, moves 1-4 % on the
// batch workloads and up to 9 % on serve (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"overhead", "ratio", "lower", bound(0.15)},
	{"space_blowup", "ratio", "lower", bound(0.06)},
	{"live_mwords", "Mwords", "lower", bound(0.06)},
}

func lower(unit string, names ...string) []metricDef {
	var out []metricDef
	for _, n := range names {
		out = append(out, metricDef{Name: n, Unit: unit, Better: "lower"})
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

// perLayer are the traced run's metrics, named <module>.<metric>. A metric
// that does not apply to a workload reads 0 there.
var perLayer = concat(
	// Counts, read from public snapshots after each traced program.
	lower("Mwords", "mem.alloc_mwords"),
	lower("count", "mem.pin_cas_attempts", "mem.pin_cas_new", "mem.pin_cas_already", "mem.pin_cas_retries", "mem.pin_cas_busy",
		"hierarchy.heaps_forked", "hierarchy.ancestry_queries",
		"entangle.slow_reads", "entangle.entangled_reads", "entangle.entangled_writes", "entangle.candidates",
		"entangle.down_pointers", "entangle.pins", "entangle.unpins"),
	lower("bytes", "entangle.pinned_peak_bytes"),
	lower("ratio", "entangle.reads_per_pin"),
	higher("ratio", "entangle.hit_ratio"),
	lower("count", "gc.lgc_collections"),
	lower("Mwords", "gc.lgc_copied_mwords"),
	higher("Mwords", "gc.lgc_reclaimed_mwords"),
	higher("count", "gc.cgc_cycles"),
	higher("Mwords", "gc.cgc_freed_mwords"),
	higher("count", "gc.cgc_swept_chunks"),
	lower("count", "gc.cgc_retained_chunks", "sched.forks", "sched.steals"),
	lower("ratio", "sched.t2_over_t1"),
	lower("work", "sim.work", "sim.span"),
	higher("ratio", "sim.speedup_p64"),
	higher("count", "core.elided_loads", "core.elided_stores", "core.static_regions"),
	higher("count", "serve.admitted", "serve.completed"),
	lower("count", "serve.shed", "serve.deadline_exceeded", "serve.budget_exceeded", "serve.failed"),
	higher("1/s", "serve.goodput_rps", "serve.parallel_goodput_rps"),
	lower("ms", "serve.latency_p50_ms", "serve.latency_p99_ms", "serve.latency_p999_ms"),
	higher("count", "serve.latency_samples"),
	lower("Mwords", "serve.max_live_mwords"),
	// Spans recorded by the driver around its calls into each module.
	lower("us", "core.new_us"),
	lower("s", "core.run_s", "globalrt.run_s", "bench.native_s"),
	lower("us", "mlang.parse_us", "mlang.analyze_us", "mlang.compile_us"),
	lower("s", "mlang.exec_s"),
	lower("ms", "sim.replay_ms", "gc.collect_ms"),
	lower("us", "serve.submit_us", "serve.handler_us", "serve.self_us"),
	// Unit costs of public functions, the same in every workload.
	lower("ns", "mem.load_ns", "mem.load_checked_ns", "mem.store_ns", "mem.alloc_tuple_ns", "mem.pin_unpin_ns",
		"forkpath.is_prefix_ns", "forkpath.lca_depth_ns", "forkpath.lca_depth_spilled_ns",
		"hierarchy.is_ancestor_ns", "hierarchy.unpin_depth_ns", "hierarchy.gate_enter_exit_ns", "hierarchy.fork_merge_ns",
		"sched.fork_join_ns",
		"entangle.on_read_pinned_ns", "entangle.on_read_fresh_pin_ns", "entangle.on_write_downptr_ns", "entangle.on_join_unpin_ns",
		"core.read_imm_ns", "core.read_ref_ns", "core.write_ref_ns", "core.read_fast_ns", "core.read_entangled_ns",
		"core.alloc_tuple_ns", "core.par_ns"),
	higher("Mwords/s", "gc.lgc_copy_mwords_s"),
	lower("ns", "globalrt.read_ns", "globalrt.alloc_tuple_ns", "mlang.loop_iter_ns", "serve.admit_ns",
		"trace.emit_disabled_ns", "attr.begin_disabled_ns"),
	// Reconciliation and the harness's own health. Never gated.
	lower("ns", "entangle.gap_ns_per_slow_read"),
	lower("s", "entangle.est_s", "gc.est_s", "sched.est_s"),
	lower("ratio", "gc.est_share_of_t1"),
	higher("ratio", "benchmark.gap_coverage"),
	lower("ratio", "benchmark.trace_overhead_share", "benchmark.count_overhead_share"),
	lower("ms", "benchmark.loadgen_lag_p99_ms"),
	lower("s", "benchmark.t1_s", "benchmark.tbase_s"),
	higher("count", "benchmark.repeats"),
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// specJSON renders BENCHMARK.json to the driver's contract: exactly these
// keys, nothing else.
func specJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  wls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err)
	}
	return b.String()
}
