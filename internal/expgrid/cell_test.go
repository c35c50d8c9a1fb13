package expgrid

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mplgo/internal/tables"
	"mplgo/internal/trace"
)

func smokeCell() Cell {
	return Cell{
		ID: "msort/p=2/mode=manage", Label: "msort",
		Bench: "msort", N: 2000, Procs: 2, Mode: "manage",
		Repeats: 2, Warmups: 1, Seed: 1,
	}
}

func TestExecuteCellSmoke(t *testing.T) {
	res, err := ExecuteCell(smokeCell())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WallNS) != 2 {
		t.Fatalf("samples: wall %v, want 2", res.WallNS)
	}
	for _, ns := range res.WallNS {
		if ns <= 0 {
			t.Fatalf("non-positive sample: %+v", res)
		}
	}
	// Baselines and replayed curves belong to the group's P=1 cell.
	if res.TseqNS != nil || res.NativeNS != nil || res.Curve != nil {
		t.Errorf("P=2 cell took P=1 measurements: %+v", res)
	}
	if !res.ChecksumStable || res.Checksum == 0 {
		t.Errorf("checksum: %d stable=%v", res.Checksum, res.ChecksumStable)
	}
	if res.Work <= 0 || res.Span <= 0 || res.Work < res.Span {
		t.Errorf("recorded DAG: W=%d S=%d", res.Work, res.Span)
	}
	// The P=1 replay schedules every unit of work on one processor.
	if res.SimT1 != res.Work {
		t.Errorf("SimT1 %d != Work %d", res.SimT1, res.Work)
	}
	if res.SimTP <= 0 || res.SimTP > res.SimT1 {
		t.Errorf("SimTP %d vs SimT1 %d", res.SimTP, res.SimT1)
	}
	if res.Host == nil {
		t.Error("cell result missing host fingerprint")
	}
	eff := res.Host.EffectiveProcs(2)
	if eff == 2 && res.SimTPEff != res.SimTP {
		t.Errorf("effP == P but SimTPEff %d != SimTP %d", res.SimTPEff, res.SimTP)
	}
	if eff == 1 && res.SimTPEff != res.SimT1 {
		t.Errorf("effP == 1 but SimTPEff %d != SimT1 %d", res.SimTPEff, res.SimT1)
	}
}

func TestExecuteCellRejectsBadCells(t *testing.T) {
	c := smokeCell()
	c.Bench = "nosuch"
	if _, err := ExecuteCell(c); err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown benchmark: %v", err)
	}
	c = smokeCell()
	c.Bench, c.Mode = "dedup", "unsafe"
	if _, err := ExecuteCell(c); err == nil || !strings.Contains(err.Error(), "unsound") {
		t.Errorf("unsafe on entangled: %v", err)
	}
	c = smokeCell()
	c.Mode = "elide"
	if _, err := ExecuteCell(c); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode: %v", err)
	}
}

// A group's P=1 cell measures both baselines, replays its DAG at every P
// of Ps and runs the stop-the-world model; its checksums all agree.
func TestP1CellCarriesBaselinesAndCurves(t *testing.T) {
	c := smokeCell()
	c.ID, c.Procs = "msort/p=1/mode=manage", 1
	res, err := ExecuteCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TseqNS) != 2 || len(res.NativeNS) != 2 || !res.ChecksumStable {
		t.Fatalf("baselines: seq %v native %v stable %v", res.TseqNS, res.NativeNS, res.ChecksumStable)
	}
	if len(res.Curve) != len(Ps) || res.R1Words <= 0 || res.GCWork < 0 {
		t.Fatalf("curve %+v R1 %d GCWork %d", res.Curve, res.R1Words, res.GCWork)
	}
	first := res.Curve[0]
	if first.Procs != 1 || first.Makespan != res.SimT1 || first.BusyPeak != 1 {
		t.Errorf("P=1 replay %+v, want makespan %d and one busy processor", first, res.SimT1)
	}
	for i, pt := range res.Curve {
		if pt.Procs != Ps[i] || pt.Makespan <= 0 || pt.STWMPL <= 0 || pt.STW < res.GCWork {
			t.Errorf("curve point %d: %+v", i, pt)
		}
	}
}

// Detect mode on an entangled benchmark completes the run (DESIGN.md D4):
// the cell records the abort and does not fail. Manage mode does not
// abort, and a disentangled benchmark never does.
func TestDetectCellAbortsWithoutError(t *testing.T) {
	for _, tc := range []struct {
		bench, mode string
		aborted     bool
	}{{"dedup", "detect", true}, {"dedup", "manage", false}, {"msort", "detect", false}} {
		c := Cell{ID: tc.bench + "/p=1/mode=" + tc.mode, Label: tc.bench, Bench: tc.bench,
			N: 1000, Procs: 1, Mode: tc.mode, Repeats: 1, Seed: 1}
		res, err := ExecuteCell(c)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if res.Aborted != tc.aborted {
			t.Errorf("%s: aborted %v, want %v", c.ID, res.Aborted, tc.aborted)
		}
	}
}

// A traced and attributed cell stamps its decomposition into the export,
// so the summarizer behind mplgo-trace -attr recovers it.
func TestTracedAttributedCellRoundTrips(t *testing.T) {
	c := Cell{ID: "pipeline/p=2/mode=manage", Label: "pipeline", Bench: "pipeline",
		N: 800, Procs: 2, Mode: "manage", Repeats: 2, Seed: 1, Attr: true,
		TracePath: filepath.Join(t.TempDir(), "cell.trace.json")}
	res, err := ExecuteCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attr == nil || res.AttrWallNS <= 0 {
		t.Fatalf("no attribution: %+v", res)
	}
	f, err := os.Open(c.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := trace.Summarize(f)
	if err != nil {
		t.Fatalf("export rejected by the summarizer: %v", err)
	}
	if s.Attr == nil || s.Attr.Period != attrPeriod || s.Attr.RunWallNS != uint64(res.AttrWallNS) {
		t.Errorf("summary attribution %+v, want period %d and run wall %d", s.Attr, attrPeriod, res.AttrWallNS)
	}
	if s.EntangledReads == 0 || s.Pins == 0 || !s.HasGrid {
		t.Errorf("summary missing pipeline activity or cell identity: %+v", s)
	}
}

// The traced run must stamp the export with the cell-identity counters
// (grid_cell, grid_seed) so any trace file is attributable to its cell.
func TestTracedCellStampsIdentity(t *testing.T) {
	c := smokeCell()
	c.N, c.Repeats, c.Warmups = 500, 1, 0
	c.TracePath = filepath.Join(t.TempDir(), "cell.trace.json")
	res, err := ExecuteCell(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceEvents == 0 {
		t.Error("traced run captured no events")
	}
	data, err := os.ReadFile(c.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"grid_cell", "grid_seed"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace export missing %q counter", want)
		}
	}
}

// An in-process runner over a tiny two-cell grid exercises the whole
// pipeline: expansion, execution, calibration, and the bound check.
func TestRunnerInProcess(t *testing.T) {
	spec, err := specOf(t, `{"experiments":[{"bench":"msort","n":2000,"procs":[1,2],"repeats":2,"warmups":0}]}`)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Spec: spec}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 || len(rep.CrossVal) != 2 {
		t.Fatalf("results %d crossval %d, want 2 each", len(rep.Results), len(rep.CrossVal))
	}
	for _, cv := range rep.CrossVal {
		if !cv.Calibrated {
			t.Errorf("%s: uncalibrated", cv.CellID)
		}
	}
	dir := t.TempDir()
	if err := rep.WriteOutputs(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"samples.csv", "summary_grouped.csv", "speedup_curves.csv",
		"overhead.csv", "crossval.csv", CrossvalTXT, ResultsJSON, HostJSON} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing output %s: %v", name, err)
		}
	}
}

// An in-process run of a tiny spec with every shape the artifacts need —
// a disentangled sweep, an entangled benchmark under manage and detect, a
// disentangled one under unsafe, treesum for A6 — writes every table
// through its validator, and each re-validates from disk.
func TestTinySpecWritesEveryArtifact(t *testing.T) {
	spec, err := specOf(t, `{"defaults":{"repeats":1,"warmups":-1},"experiments":[
		{"bench":"msort","n":1000,"procs":[1,2]},
		{"bench":"msort","n":1000,"procs":[1],"mode":"unsafe"},
		{"bench":"dedup","n":1000,"procs":[1,2]},
		{"bench":"dedup","n":1000,"procs":[1],"mode":"detect"},
		{"bench":"treesum","n":13,"procs":[1]}]}`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Runner{Spec: spec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := rep.WriteOutputs(dir); err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, a := range Artifacts {
		name := a.Build(rep).Name
		tab, err := tables.ReadCSVFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		tab.Name = name
		if err := a.Validate(tab); err != nil {
			t.Error(err)
		}
		rows[name] = len(tab.Rows)
	}
	// Per group: two T3 rows (T1, T64), one F3 and one A6 row per P of Ps;
	// per cell: one T4 and one F2 row.
	if rows["lang"] != 2*5 || rows["space_curves"] != 5*len(Ps) || rows["stw"] != 5*len(Ps) ||
		rows["entangle"] != 7 || rows["ablate"] != 7 {
		t.Errorf("row counts %v", rows)
	}
	for _, res := range rep.Results {
		if want := res.Cell.Mode == "detect"; res.Aborted != want {
			t.Errorf("%s: aborted %v", res.Cell.ID, res.Aborted)
		}
		if res.Cell.Bench == "dedup" && res.Cell.Mode == "manage" && res.Ent.Pins == 0 {
			t.Errorf("%s: entangled benchmark pinned nothing", res.Cell.ID)
		}
	}
	// The shapes of the replayed curves: msort speeds up by P=64, the
	// residency model never shrinks with processors, and on treesum (both
	// runtimes collect) the hierarchical runtime beats stop-the-world by
	// P=16.
	for _, res := range p1Cells(rep) {
		c := res.Curve
		if res.Cell.Bench == "msort" && float64(c[0].Makespan) < 1.5*float64(c[len(c)-1].Makespan) {
			t.Errorf("%s: no speedup by P=64: %+v", res.Cell.ID, c)
		}
		crossover := 0
		for i, pt := range c {
			if i > 0 && pt.BusyPeak < c[i-1].BusyPeak {
				t.Errorf("%s: residency shrank with processors: %+v", res.Cell.ID, c)
			}
			if crossover == 0 && pt.STWMPL < pt.STW {
				crossover = pt.Procs
			}
		}
		if res.Cell.Bench == "treesum" && (res.GCWork == 0 || crossover == 0 || crossover > 16) {
			t.Errorf("%s: GC work %d, crossover P=%d: %+v", res.Cell.ID, res.GCWork, crossover, c)
		}
	}
}
