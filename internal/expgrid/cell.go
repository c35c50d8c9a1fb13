package expgrid

import (
	"errors"
	"fmt"
	"os"

	"mplgo/internal/attr"
	"mplgo/internal/bench"
	"mplgo/internal/entangle"
	"mplgo/internal/globalrt"
	"mplgo/internal/sim"
	"mplgo/internal/tables"
	"mplgo/internal/trace"
	"mplgo/mpl"
)

// CellResult is everything one grid cell measured, the unit the runner
// aggregates into tables. It is the subprocess's entire stdout (as JSON),
// so a cell run is reproducible and auditable in isolation.
type CellResult struct {
	Cell Cell `json:"cell"`
	// WallNS are the timed repeats' wall clocks, in measurement order.
	WallNS []int64 `json:"wall_ns"`
	// TseqNS and NativeNS are the global-heap sequential baseline and the
	// native Go repeats (P=1 cells only).
	TseqNS   []int64 `json:"tseq_ns,omitempty"`
	NativeNS []int64 `json:"native_ns,omitempty"`
	// Checksum is the benchmark result; ChecksumStable reports whether
	// every repeat agreed (an entangled benchmark whose answer depends on
	// interleaving is reported, not failed).
	Checksum       int64 `json:"checksum"`
	ChecksumStable bool  `json:"checksum_stable"`
	// Aborted reports that detect mode found entanglement: the run still
	// completes (DESIGN.md D4), so the cell is timed like any other.
	Aborted bool `json:"aborted"`
	// Ent is the last timed repeat's entanglement counts (T4), at the
	// cell's P.
	Ent entangle.StatsSnapshot `json:"ent"`
	// Work and Span of the recorded DAG (abstract units), and the
	// simulator's replayed makespans: at P=1 (== Work), at the cell's
	// requested P, and at the effective parallelism min(P, host cores) —
	// the point real hardware can actually reach.
	Work     int64 `json:"work"`
	Span     int64 `json:"span"`
	SimT1    int64 `json:"sim_t1"`
	SimTP    int64 `json:"sim_tp"`
	SimTPEff int64 `json:"sim_tp_eff"`
	// R1Words is the recorded run's maximum residency, Curve the replays
	// at every P of Ps, GCWork the stop-the-world side's serial collection
	// work (P=1 cells only).
	R1Words int64        `json:"r1_words,omitempty"`
	Curve   []CurvePoint `json:"curve,omitempty"`
	GCWork  int64        `json:"gc_work,omitempty"`
	// Host fingerprints the subprocess that ran the cell.
	Host *tables.Fingerprint `json:"host"`
	// TraceEvents counts the events captured by the optional traced run.
	TraceEvents int `json:"trace_events,omitempty"`
	// Steal-to-first-event latency of the traced run: scheduler hand-off
	// cost the simulator does not model, which the crossval report cites
	// beside a cell that diverges from the simulator.
	StealLatCount  int   `json:"steal_lat_count,omitempty"`
	StealLatMeanNS int64 `json:"steal_lat_mean_ns,omitempty"`
	StealLatMaxNS  int64 `json:"steal_lat_max_ns,omitempty"`
	// Attr is the fastest attributed run's cost decomposition, and
	// AttrWallNS its wall clock (only with Cell.Attr).
	Attr       *attr.Snapshot `json:"attr,omitempty"`
	AttrWallNS int64          `json:"attr_wall_ns,omitempty"`
}

// CurvePoint is one processor count of a P=1 cell's replays, in abstract
// work units: the recorded DAG's makespan and peak busy processors, and
// both sides of the stop-the-world model (A6).
type CurvePoint struct {
	Procs    int   `json:"procs"`
	Makespan int64 `json:"makespan"`
	BusyPeak int   `json:"busy_peak"`
	STWMPL   int64 `json:"stw_mpl"`
	STW      int64 `json:"stw"`
}

// attrPeriod is the attributed runs' sampling period: denser than
// attr.DefaultPeriod because they are untimed, and a short benchmark at
// 1/1024 yields too few samples for a stable decomposition.
const attrPeriod = 128

// runMPL runs the benchmark once on a fresh runtime, timing the run with
// timed. In detect mode entanglement is the verdict, not a failure.
func runMPL(b bench.Benchmark, n int, cfg mpl.Config, timed func(func())) (rt *mpl.Runtime, got int64, aborted bool, err error) {
	rt = mpl.New(cfg)
	timed(func() {
		_, err = rt.Run(func(t *mpl.Task) mpl.Value {
			got = b.MPL(t, n)
			return mpl.Int(got)
		})
	})
	if cfg.Mode == mpl.Detect && errors.Is(err, mpl.ErrEntangled) {
		return rt, got, true, nil
	}
	return rt, got, false, err
}

func untimed(f func()) { f() }

// ExecuteCell runs one grid cell in this process: warmups and timed
// repeats, of the baselines too on a P=1 cell, one recorded run for the
// simulator predictions (and, on a P=1 cell, the replayed curves and the
// stop-the-world model), and, when asked, attributed runs and one traced
// run stamped with the cell identity. The caller is expected to be a
// fresh subprocess (mplgo-paper -cell) so cells never share heap or
// scheduler state.
func ExecuteCell(c Cell) (*CellResult, error) {
	b, ok := bench.ByName(c.Bench)
	if !ok {
		return nil, fmt.Errorf("cell %s: unknown benchmark %q", c.ID, c.Bench)
	}
	if err := checkMode(c.Mode, b); err != nil {
		return nil, fmt.Errorf("cell %s: %w", c.ID, err)
	}
	if c.N <= 0 {
		c.N = b.DefaultN
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	cfg := mpl.Config{Procs: c.Procs, Seed: c.Seed, Mode: modes[c.Mode]}
	res := &CellResult{Cell: c, Host: tables.CurrentFingerprint()}
	fail := func(what string, err error) (*CellResult, error) {
		return nil, fmt.Errorf("cell %s: %s: %w", c.ID, what, err)
	}

	// Every side goes through the one kernel, so each baseline is warmed
	// exactly like the hierarchical runtime it is divided into.
	t1, err := tables.Measure(c.Warmups, c.Repeats, func(timed func(func())) (int64, error) {
		rt, got, aborted, err := runMPL(b, c.N, cfg, timed)
		res.Aborted = res.Aborted || aborted
		res.Ent = rt.EntStats()
		return got, err
	})
	if err != nil {
		return fail("timed run", err)
	}
	res.WallNS, res.Checksum, res.ChecksumStable = t1.WallNS, t1.Checksum, t1.Stable

	if c.Procs == 1 { // neither baseline can fail
		seq, _ := tables.Measure(c.Warmups, c.Repeats, func(timed func(func())) (int64, error) {
			g := globalrt.New(0)
			var got int64
			timed(func() { got = b.Global(g, c.N) })
			return got, nil
		})
		nat, _ := tables.Measure(c.Warmups, c.Repeats, func(timed func(func())) (int64, error) {
			var got int64
			timed(func() { got = b.Native(c.N) })
			return got, nil
		})
		res.TseqNS, res.NativeNS = seq.WallNS, nat.WallNS
		res.ChecksumStable = res.ChecksumStable && seq.Stable && nat.Stable &&
			seq.Checksum == res.Checksum && nat.Checksum == res.Checksum
	}

	// Recorded run at P=1 for the DAG: the fork structure and abstract
	// costs are program-determined, so one deterministic recording serves
	// every replay.
	recCfg := cfg
	recCfg.Procs = 1
	recCfg.Record = true
	rt, _, _, err := runMPL(b, c.N, recCfg, untimed)
	if err != nil {
		return fail("recorded run", err)
	}
	dag := rt.Trace()
	if dag == nil {
		return fail("recorded run", errors.New("no trace"))
	}
	replay := func(dag *sim.Node, p int) sim.ReplayResult {
		return sim.Replay(dag, sim.ReplayConfig{P: p, StealCost: StealCost})
	}
	r1, rp := replay(dag, 1), replay(dag, c.Procs)
	re := replay(dag, res.Host.EffectiveProcs(c.Procs))
	res.Work, res.Span = r1.Work, r1.Span
	res.SimT1, res.SimTP, res.SimTPEff = r1.Makespan, rp.Makespan, re.Makespan

	if c.Procs == 1 {
		// The stop-the-world model (A6): the same program on both
		// runtimes at one small budget. The global collector stops every
		// mutator, so its collection work adds to the replayed makespan;
		// the hierarchical runtime's is part of its DAG.
		stwCfg := recCfg
		stwCfg.HeapBudgetWords = stwBudget
		stw, _, _, err := runMPL(b, c.N, stwCfg, untimed)
		if err != nil {
			return fail("stop-the-world model", err)
		}
		g := globalrt.NewRecording(stwBudget)
		b.Global(g, c.N)
		res.R1Words, res.GCWork = rt.MaxLiveWords(), g.GCWork
		for _, p := range Ps {
			rep := replay(dag, p)
			res.Curve = append(res.Curve, CurvePoint{
				Procs: p, Makespan: rep.Makespan, BusyPeak: rep.BusyPeak,
				STWMPL: replay(stw.Trace(), p).Makespan,
				STW:    replay(g.Trace(), p).Makespan + g.GCWork,
			})
		}
	}

	if c.Attr {
		var snaps []*attr.Snapshot
		mpl.AttrEnable()
		att, err := tables.Measure(c.Warmups, c.Repeats, func(timed func(func())) (int64, error) {
			prof := mpl.NewAttrProfiler(cfg.Procs, attrPeriod)
			attrCfg := cfg
			attrCfg.Attr = prof
			_, got, _, err := runMPL(b, c.N, attrCfg, timed)
			snaps = append(snaps, prof.Snapshot())
			return got, err
		})
		mpl.AttrDisable()
		if err != nil {
			return fail("attributed run", err)
		}
		best := att.Fastest()
		res.Attr, res.AttrWallNS = snaps[c.Warmups+best], att.WallNS[best]
	}

	if c.TracePath != "" {
		if err := traceCell(res, b, cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// noteStealLatency scans a tracer snapshot for steal-to-first-event
// gaps. Each ring is one worker's time-ordered event stream, so the event
// following a steal on the same ring is the first evidence the stolen
// task ran.
func (res *CellResult) noteStealLatency(snap [][]trace.Event) {
	var total int64
	for _, ring := range snap {
		pending := int64(-1)
		for _, e := range ring {
			if pending >= 0 {
				d := max(e.TS-pending, 0)
				res.StealLatCount++
				total += d
				res.StealLatMaxNS = max(res.StealLatMaxNS, d)
				pending = -1
			}
			if e.Kind == trace.EvSteal {
				pending = e.TS
			}
		}
	}
	if res.StealLatCount > 0 {
		res.StealLatMeanNS = total / int64(res.StealLatCount)
	}
}

// traceCell reruns the cell once, untimed, with a tracer installed, and
// writes the Chrome export to c.TracePath. The root task emits the
// grid_cell and grid_seed counters first, so the export is attributable
// to its cell (satisfying the single-writer ring contract: the emits run
// on the root strand's own worker). An attributed cell's decomposition is
// stamped into ring 0 after the run, for mplgo-trace -attr. The snapshot
// is also scanned for steal-to-first-event latency, the scheduler
// hand-off cost the crossval report cross-references against simulator
// divergence.
func traceCell(res *CellResult, b bench.Benchmark, cfg mpl.Config) error {
	c := res.Cell
	tr := mpl.NewTracer(cfg.Procs, 0)
	cfg.Tracer = tr
	mpl.TraceEnable()
	rt := mpl.New(cfg)
	_, err := rt.Run(func(t *mpl.Task) mpl.Value {
		t.EmitCounter(trace.CtrGridCell, c.IDHash())
		t.EmitCounter(trace.CtrGridSeed, uint64(c.Seed))
		return mpl.Int(b.MPL(t, c.N))
	})
	// The pool has drained, so stamping ring 0 from here cannot race its
	// former owner.
	attr.EmitSnapshot(res.Attr, tr.Ring(0), res.AttrWallNS, tables.MinNS(res.TseqNS))
	mpl.TraceDisable()
	if err != nil && !(cfg.Mode == mpl.Detect && errors.Is(err, mpl.ErrEntangled)) {
		return fmt.Errorf("cell %s: traced run: %w", c.ID, err)
	}
	rings := tr.Snapshot()
	for _, ring := range rings {
		res.TraceEvents += len(ring)
	}
	res.noteStealLatency(rings)
	f, err := os.Create(c.TracePath)
	if err != nil {
		return err
	}
	if err := mpl.WriteChrome(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
