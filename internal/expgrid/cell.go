package expgrid

import (
	"fmt"
	"os"
	"time"

	"mplgo/internal/bench"
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
	// TseqNS are the global-heap sequential baseline repeats (only on
	// cells with MeasureSeq, i.e. each group's P=1 cell).
	TseqNS []int64 `json:"tseq_ns,omitempty"`
	// Checksum is the benchmark result; ChecksumStable reports whether
	// every repeat agreed (an entangled benchmark whose answer depends on
	// interleaving is reported, not failed).
	Checksum       int64 `json:"checksum"`
	ChecksumStable bool  `json:"checksum_stable"`
	// Work and Span of the recorded DAG (abstract units), and the
	// simulator's replayed makespans: at P=1 (== Work), at the cell's
	// requested P, and at the effective parallelism min(P, host cores) —
	// the point real hardware can actually reach.
	Work     int64 `json:"work"`
	Span     int64 `json:"span"`
	SimT1    int64 `json:"sim_t1"`
	SimTP    int64 `json:"sim_tp"`
	SimTPEff int64 `json:"sim_tp_eff"`
	// Host fingerprints the subprocess that ran the cell.
	Host *tables.Fingerprint `json:"host"`
	// TraceEvents counts the events captured by the optional traced run.
	TraceEvents int `json:"trace_events,omitempty"`
	// Steal-to-first-event latency of the traced run (only with
	// TracePath): for each steal, the gap until the stealing worker's
	// next trace event. High values on a cell whose measurement diverges
	// from the simulator point at scheduler hand-off latency the
	// simulator does not model (the crossval report cross-references
	// them).
	StealLatCount  int   `json:"steal_lat_count,omitempty"`
	StealLatMeanNS int64 `json:"steal_lat_mean_ns,omitempty"`
	StealLatMaxNS  int64 `json:"steal_lat_max_ns,omitempty"`
	// Cost attribution of one extra untimed attributed run (only with
	// Cell.Attr): slug → estimated total ns / sample count, at the
	// recorded sampling period.
	AttrPeriod  int64            `json:"attr_period,omitempty"`
	AttrWallNS  int64            `json:"attr_wall_ns,omitempty"`
	AttrNS      map[string]int64 `json:"attr_ns,omitempty"`
	AttrSamples map[string]int64 `json:"attr_samples,omitempty"`
}

// cellConfig maps a cell's knobs onto a runtime config.
func cellConfig(c Cell) mpl.Config {
	cfg := mpl.Config{Procs: c.Procs, Seed: c.Seed}
	if c.Elide {
		cfg.Mode = mpl.Unsafe
	}
	return cfg
}

// ExecuteCell runs one grid cell in this process: warmups and timed
// repeats, of the sequential baseline too when asked, one recorded run for
// the simulator prediction, and (when TracePath is set) one traced run
// stamped with the cell-identity counters. The caller is expected to be a
// fresh subprocess (cmd/mplgo-bench -exp grid-cell) so cells never share
// heap or scheduler state.
func ExecuteCell(c Cell) (*CellResult, error) {
	b, ok := bench.ByName(c.Bench)
	if !ok {
		return nil, fmt.Errorf("cell %s: unknown benchmark %q", c.ID, c.Bench)
	}
	if c.Elide && b.Entangled {
		return nil, fmt.Errorf("cell %s: elide is unsound for entangled %q", c.ID, c.Bench)
	}
	if c.N <= 0 {
		c.N = b.DefaultN
	}
	if c.Repeats <= 0 {
		c.Repeats = 1
	}
	cfg := cellConfig(c)
	res := &CellResult{Cell: c, ChecksumStable: true, Host: tables.CurrentFingerprint()}

	// Both sides go through the one kernel, so the baseline is warmed
	// exactly like the hierarchical runtime it is divided into.
	t1, err := tables.Measure(c.Warmups, c.Repeats, func(timed func(func())) (int64, error) {
		rt := mpl.New(cfg)
		var got int64
		var err error
		timed(func() {
			_, err = rt.Run(func(t *mpl.Task) mpl.Value {
				got = b.MPL(t, c.N)
				return mpl.Int(got)
			})
		})
		return got, err
	})
	if err != nil {
		return nil, fmt.Errorf("cell %s: %w", c.ID, err)
	}
	res.WallNS, res.Checksum, res.ChecksumStable = t1.WallNS, t1.Checksum, t1.Stable

	if c.MeasureSeq {
		seq, err := tables.Measure(c.Warmups, c.Repeats, func(timed func(func())) (int64, error) {
			g := globalrt.New(0)
			var got int64
			timed(func() { got = b.Global(g, c.N) })
			return got, nil
		})
		if err != nil {
			return nil, fmt.Errorf("cell %s: baseline: %w", c.ID, err)
		}
		res.TseqNS = seq.WallNS
		res.ChecksumStable = res.ChecksumStable && seq.Stable && seq.Checksum == res.Checksum
	}

	// Recorded run at P=1 for the DAG: the fork structure and abstract
	// costs are program-determined, so one deterministic recording serves
	// every replay.
	recCfg := cfg
	recCfg.Procs = 1
	recCfg.Record = true
	rt := mpl.New(recCfg)
	if _, err := rt.Run(func(t *mpl.Task) mpl.Value { return mpl.Int(b.MPL(t, c.N)) }); err != nil {
		return nil, fmt.Errorf("cell %s: recorded run: %w", c.ID, err)
	}
	dag := rt.Trace()
	if dag == nil {
		return nil, fmt.Errorf("cell %s: recorded run produced no trace", c.ID)
	}
	stealCost := int64(tables.StealCost)
	r1 := sim.Replay(dag, sim.ReplayConfig{P: 1, StealCost: stealCost})
	rp := sim.Replay(dag, sim.ReplayConfig{P: c.Procs, StealCost: stealCost})
	effP := res.Host.EffectiveProcs(c.Procs)
	re := rp
	if effP != c.Procs {
		re = sim.Replay(dag, sim.ReplayConfig{P: effP, StealCost: stealCost})
	}
	res.Work, res.Span = r1.Work, r1.Span
	res.SimT1, res.SimTP, res.SimTPEff = r1.Makespan, rp.Makespan, re.Makespan

	if c.TracePath != "" {
		n, lat, err := traceCell(c, b, cfg)
		if err != nil {
			return nil, err
		}
		res.TraceEvents = n
		res.StealLatCount = lat.count
		res.StealLatMeanNS = lat.meanNS()
		res.StealLatMaxNS = lat.maxNS
	}

	if c.Attr {
		prof := mpl.NewAttrProfiler(cfg.Procs, 0)
		attrCfg := cfg
		attrCfg.Attr = prof
		mpl.AttrEnable()
		start := time.Now()
		rt := mpl.New(attrCfg)
		_, err := rt.Run(func(t *mpl.Task) mpl.Value { return mpl.Int(b.MPL(t, c.N)) })
		wall := time.Since(start)
		mpl.AttrDisable()
		if err != nil {
			return nil, fmt.Errorf("cell %s: attributed run: %w", c.ID, err)
		}
		snap := prof.Snapshot()
		res.AttrPeriod = snap.Period
		res.AttrWallNS = wall.Nanoseconds()
		res.AttrNS = make(map[string]int64, len(snap.Components))
		res.AttrSamples = make(map[string]int64, len(snap.Components))
		for slug, cs := range snap.Components {
			res.AttrNS[slug] = int64(cs.EstNS)
			res.AttrSamples[slug] = int64(cs.Samples)
		}
	}
	return res, nil
}

// stealLat accumulates steal-to-first-event latencies.
type stealLat struct {
	count   int
	totalNS int64
	maxNS   int64
}

func (l *stealLat) add(d int64) {
	if d < 0 {
		d = 0
	}
	l.count++
	l.totalNS += d
	if d > l.maxNS {
		l.maxNS = d
	}
}

func (l *stealLat) meanNS() int64 {
	if l.count == 0 {
		return 0
	}
	return l.totalNS / int64(l.count)
}

// stealLatency scans a tracer snapshot for steal-to-first-event gaps.
// Each ring is one worker's time-ordered event stream, so the event
// following a steal on the same ring is the first evidence the stolen
// task ran.
func stealLatency(snap [][]trace.Event) stealLat {
	var l stealLat
	for _, ring := range snap {
		pending := int64(-1)
		for _, e := range ring {
			if pending >= 0 {
				l.add(e.TS - pending)
				pending = -1
			}
			if e.Kind == trace.EvSteal {
				pending = e.TS
			}
		}
	}
	return l
}

// traceCell reruns the cell once, untimed, with a tracer installed, and
// writes the Chrome export to c.TracePath. The root task emits the
// grid_cell and grid_seed counters first, so the export is attributable
// to its cell (satisfying the single-writer ring contract: the emits run
// on the root strand's own worker). The snapshot is also scanned for
// steal-to-first-event latency, the scheduler hand-off cost the crossval
// report cross-references against simulator divergence.
func traceCell(c Cell, b bench.Benchmark, cfg mpl.Config) (int, stealLat, error) {
	tr := mpl.NewTracer(cfg.Procs, 0)
	cfg.Tracer = tr
	mpl.TraceEnable()
	rt := mpl.New(cfg)
	_, err := rt.Run(func(t *mpl.Task) mpl.Value {
		t.EmitCounter(trace.CtrGridCell, c.IDHash())
		t.EmitCounter(trace.CtrGridSeed, uint64(c.Seed))
		return mpl.Int(b.MPL(t, c.N))
	})
	mpl.TraceDisable()
	if err != nil {
		return 0, stealLat{}, fmt.Errorf("cell %s: traced run: %w", c.ID, err)
	}
	snap := tr.Snapshot()
	events := 0
	for _, ring := range snap {
		events += len(ring)
	}
	lat := stealLatency(snap)
	f, err := os.Create(c.TracePath)
	if err != nil {
		return events, lat, err
	}
	if err := mpl.WriteChrome(f, tr); err != nil {
		f.Close()
		return events, lat, err
	}
	return events, lat, f.Close()
}
