package expgrid

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeCell() Cell {
	c := Cell{
		ID: "msort/p=2/elide=off", Label: "msort",
		Bench: "msort", N: 2000, Procs: 2,
		Repeats: 2, Warmups: 1, Seed: 1, MeasureSeq: true,
	}
	return c
}

func TestExecuteCellSmoke(t *testing.T) {
	res, err := ExecuteCell(smokeCell())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WallNS) != 2 || len(res.TseqNS) != 2 {
		t.Fatalf("samples: wall %v seq %v, want 2 each", res.WallNS, res.TseqNS)
	}
	for _, ns := range append(append([]int64{}, res.WallNS...), res.TseqNS...) {
		if ns <= 0 {
			t.Fatalf("non-positive sample: %+v", res)
		}
	}
	// msort is deterministic: the parallel and sequential checksums agree.
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
	c.Bench, c.Elide = "dedup", true
	if _, err := ExecuteCell(c); err == nil || !strings.Contains(err.Error(), "unsound") {
		t.Errorf("elide on entangled: %v", err)
	}
}

// The traced run must stamp the export with the cell-identity counters
// (grid_cell, grid_seed) so any trace file is attributable to its cell.
func TestTracedCellStampsIdentity(t *testing.T) {
	c := smokeCell()
	c.N, c.Repeats, c.Warmups = 500, 1, 0
	c.MeasureSeq = false
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
	for _, name := range []string{SamplesCSV, SummaryCSV, SpeedupCSV, OverheadCSV,
		CrossvalCSV, CrossvalTXT, ResultsJSON, HostJSON} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing output %s: %v", name, err)
		}
	}
}
