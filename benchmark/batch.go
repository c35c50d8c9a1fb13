package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mplgo/internal/sim"
	gen "mplgo/internal/workload"
	"mplgo/mpl"
)

// report is the result of one run of one workload.
type report struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]stat
	rows      []string // per-program rows, printed above the metric table
	// gomaxprocs is what the workload measured under (serve lowers it).
	gomaxprocs int
	notes      []string // oracle violations
}

func newReport(w string) *report {
	return &report{workload: w, metrics: map[string]stat{}, gomaxprocs: runtime.GOMAXPROCS(0)}
}

// check records one oracle check: every check counts as attempted, a
// violation as failed, and any failure makes the command exit non-zero.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, fmt.Sprintf(format, args...))
		}
	}
}

// checkRun is the per-run oracle: no error and the reference checksum.
func (r *report) checkRun(p program, side string, o outcome, ref int64) {
	r.check(o.err == nil && o.sum == ref, "%s/%s on %s: sum %d want %d err %v", r.workload, p.name, side, o.sum, ref, o.err)
}

// timedCfg is the configuration of every timed hierarchical run: one
// worker, entanglement managed, and the runtime's own tracer, attribution
// profiler and chaos layer all absent.
var timedCfg = mpl.Config{Procs: 1, Mode: mpl.Manage}

// setUp generates the workload's programs from the seed, computes every
// reference checksum natively and runs one warm-up pass of each program on
// both runtimes (checked against the reference like any other run).
func setUp(w workload, o options, rep *report, sp *spans) ([]program, []int64) {
	progs := w.programs(gen.NewRNG(uint64(o.seed)), o.quick)
	refs := make([]int64, len(progs))
	for i, p := range progs {
		c := sp.startRun(p.name)
		refs[i] = p.ref(c)
		rep.checkRun(p, "hier", p.hier(timedCfg, c), refs[i])
		rep.checkRun(p, "base", p.base(c), refs[i])
		c.finish()
	}
	return progs, refs
}

// rounds runs fn until the measuring time is used up, never fewer than
// minRounds times and never starting a round that the last round's
// duration says would overrun.
func rounds(o options, budget time.Duration, fn func(round int)) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < o.minRounds || (!o.quick && time.Since(start)+last <= budget); n++ {
		t0 := time.Now()
		fn(n)
		last = time.Since(t0)
	}
}

// timing holds the per-program wall times of the measured rounds.
type timing struct {
	t1, tb       [][]float64 // [program][round] seconds
	live1, liveB []int64     // max live words, last round
}

func newTiming(n int) *timing {
	return &timing{t1: make([][]float64, n), tb: make([][]float64, n), live1: make([]int64, n), liveB: make([]int64, n)}
}

// sumOfMedians is the paper's T for a workload: each program contributes
// the median of its repeats.
func sumOfMedians(perProgram [][]float64) stat {
	var out stat
	for _, xs := range perProgram {
		s := summarize(xs)
		out.Value += s.Value
		out.Q1 += s.Q1
		out.Q3 += s.Q3
		out.N = s.N
	}
	return out
}

// pairedRatio is the median of a[i]/b[i] over adjacent repeats: drift of the
// box between repeats cancels pair by pair, which the ratio of two medians
// does not give. Unpaired trailing samples of the longer side are ignored.
func pairedRatio(a, b []float64) float64 {
	n := min(len(a), len(b))
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = ratio(a[i], b[i])
	}
	return median(rs)
}

// totalsRow prints the absolute times, which the timed run shows but does
// not gate.
func totalsRow(t1, tb stat) string {
	return fmt.Sprintf("  total         t1_s=%.6f [%.6f %.6f] tbase_s=%.6f [%.6f %.6f] repeats=%d",
		t1.Value, t1.Q1, t1.Q3, tb.Value, tb.Q1, tb.Q3, t1.N)
}

// endToEnd fills the batch end-to-end metrics from the measured rounds and
// returns the absolute totals.
func (tm *timing) endToEnd(rep *report, progs []program) (t1, tb stat) {
	var over, blow []float64
	var live float64
	for i, p := range progs {
		m1, mb := median(tm.t1[i]), median(tm.tb[i])
		over = append(over, pairedRatio(tm.t1[i], tm.tb[i]))
		blow = append(blow, ratio(float64(tm.live1[i]), float64(tm.liveB[i])))
		live += float64(tm.live1[i])
		rep.rows = append(rep.rows, fmt.Sprintf("  %-13s n=%-9d t1=%8.2fms tbase=%8.2fms overhead=%5.2fx live=%9d/%-9d repeats=%d",
			p.name, p.n, m1*1e3, mb*1e3, over[i], tm.live1[i], tm.liveB[i], len(tm.t1[i])))
	}
	t1, tb = sumOfMedians(tm.t1), sumOfMedians(tm.tb)
	rep.rows = append(rep.rows, totalsRow(t1, tb))
	rep.metrics["overhead"] = exact(geomean(over))
	rep.metrics["space_blowup"] = exact(geomean(blow))
	rep.metrics["live_mwords"] = exact(live / 1e6)
	return t1, tb
}

// runBatch is the timed run of a batch workload: tracing off, a Go
// collection before every timed repeat, and each program's baseline repeat
// directly after its hierarchical repeat, so that overhead can be taken pair
// by pair. The fixed order costs a constant: the baseline finds the memory
// its program's hierarchical run just freed, and overhead reads 2-8 % higher
// than with a pass over all programs per side, whose spread was twice as wide.
func runBatch(w workload, o options) *report {
	rep := newReport(w.name)
	var setups []float64
	var progs []program
	var refs []int64
	for i := 0; i < o.setupReps; i++ {
		t0 := time.Now()
		progs, refs = setUp(w, o, rep, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = summarize(setups)

	tm := newTiming(len(progs))
	rounds(o, o.seconds, func(int) {
		for i, p := range progs {
			runtime.GC()
			h := p.hier(timedCfg, runCtx{})
			rep.checkRun(p, "hier", h, refs[i])
			runtime.GC()
			b := p.base(runCtx{})
			rep.checkRun(p, "base", b, refs[i])
			tm.t1[i] = append(tm.t1[i], h.wall.Seconds())
			tm.tb[i] = append(tm.tb[i], b.wall.Seconds())
			tm.live1[i], tm.liveB[i] = h.maxLive, b.maxLive
		}
	})
	tm.endToEnd(rep, progs)
	return rep
}

// counts is one program run's layer counters, read from the runtime's
// public snapshots after Run returns.
type counts map[string]float64

func readCounts(rt *mpl.Runtime) counts {
	es := rt.EntStats()
	pc := rt.PinCASStats()
	lgc, copied, reclaimed := rt.GCStats()
	cycles, freed, swept, retained, _ := rt.CGCStats()
	el := rt.ElisionStats()
	c := counts{
		"mem.alloc_mwords":           float64(rt.Space().TotalAllocWords()) / 1e6,
		"mem.pin_cas_attempts":       float64(pc.Attempts),
		"mem.pin_cas_new":            float64(pc.New),
		"mem.pin_cas_already":        float64(pc.Already),
		"mem.pin_cas_retries":        float64(pc.Retries),
		"mem.pin_cas_busy":           float64(pc.Busy),
		"hierarchy.heaps_forked":     float64(rt.Tree().Count() - 1),
		"entangle.slow_reads":        float64(es.SlowReads),
		"entangle.entangled_reads":   float64(es.EntangledReads),
		"entangle.entangled_writes":  float64(es.EntangledWrites),
		"entangle.candidates":        float64(es.Candidates),
		"entangle.down_pointers":     float64(es.DownPointers),
		"entangle.pins":              float64(es.Pins),
		"entangle.unpins":            float64(es.Unpins),
		"entangle.pinned_peak_bytes": float64(es.PinnedPeakBytes),
		"gc.lgc_collections":         float64(lgc),
		"gc.lgc_copied_mwords":       float64(copied) / 1e6,
		"gc.lgc_reclaimed_mwords":    float64(reclaimed) / 1e6,
		"gc.cgc_cycles":              float64(cycles),
		"gc.cgc_freed_mwords":        float64(freed) / 1e6,
		"gc.cgc_swept_chunks":        float64(swept),
		"gc.cgc_retained_chunks":     float64(retained),
		"sched.steals":               float64(rt.Steals()),
		"core.elided_loads":          float64(el.ElidedLoads),
		"core.elided_stores":         float64(el.ElidedStores),
		"core.static_regions":        float64(el.StaticRegions),
	}
	if s := rt.Tree().Stats; s != nil {
		c["hierarchy.ancestry_queries"] = float64(s.AncestryQueries.Load())
	}
	return c
}

func (c counts) equal(d counts) bool {
	if len(c) != len(d) {
		return false
	}
	for k, v := range c {
		if d[k] != v {
			return false
		}
	}
	return true
}

// auditRun is the traced run's oracle for one finished runtime: heap
// invariants hold, every pin was released, and a program declared
// disentangled never reached the entanglement slow path.
func (r *report) auditRun(p program, rt *mpl.Runtime) {
	if rt == nil {
		return
	}
	err := rt.CheckInvariants()
	r.check(err == nil, "%s/%s: invariants: %v", r.workload, p.name, err)
	es := rt.EntStats()
	r.check(es.Pins == es.Unpins, "%s/%s: %d pins != %d unpins", r.workload, p.name, es.Pins, es.Unpins)
	if p.disentangled {
		r.check(es.SlowReads == 0, "%s/%s: disentangled program took %d slow reads", r.workload, p.name, es.SlowReads)
	}
}

// stealCost is the simulator's strand-migration latency, as in
// internal/tables.
const stealCost = 200

// traceBatch is the traced run of a batch workload. It times and counts
// around the calls into each module's public functions: spans from this
// file's side of every boundary, counters from the runtime's snapshots, one
// recorded run through the simulator, a few runs at Procs 2, and the
// unit-cost kernels. Spans and counters are taken in separate runs because
// the runtime's own counters cost about 9 % of T1 on the entangled workloads
// (benchmark.count_overhead_share), which would otherwise land in the spans.
func traceBatch(w workload, o options) *report {
	rep := newReport(w.name)
	sp := newSpans()
	progs, refs := setUp(w, o, rep, sp)

	// An installed but never enabled attribution profiler and tracer make
	// the runtime allocate PinCASStats and TreeStats, so those count.
	countedCfg := timedCfg
	countedCfg.Attr = mpl.NewAttrProfiler(1, 0)
	countedCfg.Tracer = mpl.NewTracer(1, 64)

	// One recorded run per program through the simulator, then Procs 2.
	var forks, work, span float64
	var speedups, t2 []float64
	t2reps := 3
	if o.quick {
		t2reps = 1
	}
	for i, p := range progs {
		cfg := timedCfg
		cfg.Record = true
		c := sp.startRun(p.name)
		h := p.hier(cfg, c)
		rep.checkRun(p, "recorded", h, refs[i])
		if h.rt != nil && h.rt.Trace() != nil {
			tr := h.rt.Trace()
			s := c.begin("sim.replay_ms")
			wk, spn := tr.WorkSpan()
			speedups = append(speedups, sim.SpeedupCurve(tr, []int{64}, stealCost)[0])
			c.end(s)
			forks += float64(tr.CountForks())
			work += float64(wk)
			span += float64(spn)
		}
		c.finish()
		cfg = timedCfg
		cfg.Procs = 2
		var walls []float64
		for r := 0; r < t2reps; r++ {
			runtime.GC()
			h := p.hier(cfg, runCtx{})
			rep.checkRun(p, "procs2", h, refs[i])
			walls = append(walls, h.wall.Seconds())
		}
		t2 = append(t2, median(walls))
	}

	// Interleaved rounds, three hierarchical runs of each program: untraced,
	// with spans, and with the runtime's counters installed (read, audited
	// and required to repeat exactly). Each follows a baseline run, as in the
	// timed run (a run that follows another hierarchical run of the same
	// program measured 7-14 % slower), and the three take turns going first
	// (a program's first run in a round measured 12-15 % slower).
	tm := newTiming(len(progs))
	traced := make([][]float64, len(progs))
	counted := make([][]float64, len(progs))
	first := make([]counts, len(progs))
	rounds(o, time.Duration(float64(o.seconds)*0.45), func(round int) {
		for i, p := range progs {
			base := func() {
				runtime.GC()
				c := sp.startRun(p.name)
				b := p.base(c)
				c.finish()
				rep.checkRun(p, "base", b, refs[i])
				tm.tb[i] = append(tm.tb[i], b.wall.Seconds())
				tm.liveB[i] = b.maxLive
				runtime.GC()
			}
			variants := [3]func(){
				func() {
					h := p.hier(timedCfg, runCtx{})
					rep.checkRun(p, "hier", h, refs[i])
					tm.t1[i] = append(tm.t1[i], h.wall.Seconds())
					tm.live1[i] = h.maxLive
				},
				func() {
					c := sp.startRun(p.name)
					h := p.hier(timedCfg, c)
					c.finish()
					rep.checkRun(p, "traced", h, refs[i])
					traced[i] = append(traced[i], h.wall.Seconds())
				},
				func() {
					h := p.hier(countedCfg, runCtx{})
					rep.checkRun(p, "counted", h, refs[i])
					rep.auditRun(p, h.rt)
					counted[i] = append(counted[i], h.wall.Seconds())
					if h.rt == nil {
						return
					}
					if cs := readCounts(h.rt); round == 0 {
						first[i] = cs
					} else {
						rep.check(cs.equal(first[i]), "%s/%s: layer counts differ between repeats", w.name, p.name)
					}
				},
			}
			for k := range variants {
				base()
				variants[(k+round)%len(variants)]()
			}
		}
	})
	t1, tb := tm.endToEnd(rep, progs)
	rep.metrics = map[string]stat{} // the traced run reports layer metrics only
	m := rep.metrics

	total := counts{}
	for _, cs := range first {
		for k, v := range cs {
			total[k] += v
		}
	}
	for k, v := range total {
		m[k] = exact(v)
	}
	m["entangle.reads_per_pin"] = exact(ratio(total["entangle.entangled_reads"], total["entangle.pins"]))
	m["entangle.hit_ratio"] = exact(ratio(total["entangle.entangled_reads"], total["entangle.slow_reads"]))
	m["sched.forks"] = exact(forks)
	m["sim.work"] = exact(work)
	m["sim.span"] = exact(span)
	m["sim.speedup_p64"] = exact(geomean(speedups))
	var t2over []float64
	for i := range progs {
		t2over = append(t2over, ratio(t2[i], median(tm.t1[i])))
	}
	m["sched.t2_over_t1"] = exact(geomean(t2over))

	t1traced := sumOfMedians(traced)
	m["benchmark.t1_s"] = t1
	m["benchmark.tbase_s"] = tb
	m["benchmark.repeats"] = exact(float64(t1.N))
	m["benchmark.trace_overhead_share"] = exact(ratio(t1traced.Value-t1.Value, t1.Value))
	m["benchmark.count_overhead_share"] = exact(ratio(sumOfMedians(counted).Value-t1.Value, t1.Value))
	gap := t1.Value - tb.Value
	m["entangle.gap_ns_per_slow_read"] = exact(ratio(gap*1e9, total["entangle.slow_reads"]))

	for name, scale := range map[string]float64{
		"core.new_us": 1e6, "core.run_s": 1, "globalrt.run_s": 1, "bench.native_s": 1,
		"mlang.parse_us": 1e6, "mlang.analyze_us": 1e6, "mlang.compile_us": 1e6, "mlang.exec_s": 1,
		"sim.replay_ms": 1e3,
	} {
		m[name] = scaled(sp.perGroupMedian(name, false), scale)
	}

	for k, v := range unitCosts(time.Duration(float64(o.seconds)*0.35), o.quick, sp) {
		m[k] = v
	}
	reconcile(m, gap, t1.Value)

	if err := sp.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		rep.check(false, "write spans: %v", err)
	}
	return rep
}

func scaled(s stat, k float64) stat {
	return stat{Value: s.Value * k, Q1: s.Q1 * k, Q3: s.Q3 * k, N: s.N}
}

// reconcile multiplies the workload's counts by the unit costs measured in
// the same run, so a reader can see how much of the T1-Tbase gap the layers
// account for. Reported, never gated.
func reconcile(m map[string]stat, gapS, t1S float64) {
	v := func(name string) float64 { return m[name].Value }
	pins := v("entangle.pins")
	ent := ((v("entangle.slow_reads")-pins)*v("entangle.on_read_pinned_ns") +
		pins*v("entangle.on_read_fresh_pin_ns") +
		v("entangle.down_pointers")*v("entangle.on_write_downptr_ns") +
		v("entangle.unpins")*v("entangle.on_join_unpin_ns")) / 1e9
	gc := ratio(v("gc.lgc_copied_mwords"), v("gc.lgc_copy_mwords_s"))
	sched := v("sched.forks") * v("core.par_ns") / 1e9
	m["entangle.est_s"] = exact(ent)
	m["gc.est_s"] = exact(gc)
	m["gc.est_share_of_t1"] = exact(ratio(gc, t1S))
	m["sched.est_s"] = exact(sched)
	m["benchmark.gap_coverage"] = exact(ratio(ent+gc+sched, gapS))
}
