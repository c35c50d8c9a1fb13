package expgrid

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mplgo/internal/tables"
)

var update = flag.Bool("update", false, "rewrite golden files from the canned report")

// cannedReport is a fixed two-group report (a disentangled msort sweep and
// an entangled dedup sweep) with hand-picked numbers, the fixture behind
// the golden tables and the cross-validation tests.
func cannedReport() *Report {
	host := &tables.Fingerprint{Cores: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	cell := func(benchName string, p int, measureSeq bool) Cell {
		c := Cell{
			Label: benchName, Bench: benchName, N: 1000, Procs: p,
			Repeats: 3, Warmups: 1, Seed: 1, MeasureSeq: measureSeq,
		}
		c.ID = c.GroupKey() + "/p=" + itoa(int64(p))
		return c
	}
	return &Report{
		Started: "2026-08-07T00:00:00Z",
		Host:    host,
		Results: []*CellResult{
			{
				Cell:     cell("msort", 1, true),
				WallNS:   []int64{10_000_000, 10_400_000, 10_200_000},
				TseqNS:   []int64{8_000_000, 8_200_000, 8_100_000},
				Checksum: 42, ChecksumStable: true,
				Work: 10_000, Span: 500, SimT1: 10_000, SimTP: 10_000, SimTPEff: 10_000, Host: host,
			},
			{
				Cell:     cell("msort", 2, false),
				WallNS:   []int64{6_000_000, 6_300_000, 6_100_000},
				Checksum: 42, ChecksumStable: true,
				Work: 10_000, Span: 500, SimT1: 10_000, SimTP: 5_100, SimTPEff: 5_100, Host: host,
			},
			{
				Cell:     cell("msort", 4, false),
				WallNS:   []int64{4_000_000, 4_500_000, 4_200_000},
				Checksum: 42, ChecksumStable: true,
				Work: 10_000, Span: 500, SimT1: 10_000, SimTP: 2_700, SimTPEff: 2_700, Host: host,
			},
			{
				Cell:     cell("dedup", 1, true),
				WallNS:   []int64{1_000_000, 1_100_000, 1_050_000},
				TseqNS:   []int64{600_000, 620_000, 610_000},
				Checksum: 7, ChecksumStable: true,
				Work: 2_000, Span: 300, SimT1: 2_000, SimTP: 2_000, SimTPEff: 2_000, Host: host,
			},
			{
				Cell:     cell("dedup", 2, false),
				WallNS:   []int64{800_000, 850_000, 820_000},
				Checksum: 7, ChecksumStable: true,
				Work: 2_000, Span: 300, SimT1: 2_000, SimTP: 1_200, SimTPEff: 1_200, Host: host,
			},
		},
	}
}

func cannedSpec() *Spec {
	s := &Spec{}
	s.fill()
	return s
}

func checkGolden(t *testing.T, name string, tab *tables.Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tables.WriteCSV(&buf, tab); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to generate)", name, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s differs from golden:\ngot:\n%swant:\n%s", name, buf.Bytes(), want)
	}
}

func TestGoldenTables(t *testing.T) {
	rep := cannedReport()
	rep.crossValidate(cannedSpec())
	if err := rep.Err(); err != nil {
		t.Fatalf("canned report must be violation-free: %v (%v)", err, rep.BrentViolations)
	}
	if err := ValidateSummaryTable(SummaryTable(rep)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSpeedupTable(SpeedupTable(rep)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateOverheadTable(OverheadTable(rep)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCrossvalTable(CrossvalTable(rep)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary_grouped.golden.csv", SummaryTable(rep))
	checkGolden(t, "speedup_curves.golden.csv", SpeedupTable(rep))
	checkGolden(t, "overhead.golden.csv", OverheadTable(rep))
}

func TestCrossValidateNumbers(t *testing.T) {
	rep := cannedReport()
	rep.crossValidate(cannedSpec())
	if len(rep.CrossVal) != 5 {
		t.Fatalf("crossval rows: %d", len(rep.CrossVal))
	}
	// msort group: unit = minT1/SimT1 = 10_000_000/10_000 = 1000 ns/unit.
	cv := rep.CrossVal[1] // msort P=2
	if cv.UnitNS != 1000 {
		t.Errorf("unit %v, want 1000", cv.UnitNS)
	}
	// lo = W/effP · u = 5_000_000; hi = lo + c·S·u = 5e6 + 8·500·1000 = 9e6.
	if cv.BrentLoNS != 5_000_000 || cv.BrentHiNS != 9_000_000 {
		t.Errorf("bound [%v, %v], want [5e6, 9e6]", cv.BrentLoNS, cv.BrentHiNS)
	}
	if !cv.BrentOK || cv.SimFlagged {
		t.Errorf("msort P=2 should pass cleanly: %+v", cv)
	}
	if cv.SimPredNS != 5_100_000 {
		t.Errorf("sim pred %v, want 5.1e6", cv.SimPredNS)
	}
}

func TestCrossValidateFlagsViolations(t *testing.T) {
	// A measured time far above the bound's upper edge must fail the run.
	rep := cannedReport()
	rep.Results[1].WallNS = []int64{60_000_000} // hi·(1+tol) = 11.25e6 ≪ 60e6
	rep.crossValidate(cannedSpec())
	if len(rep.BrentViolations) != 1 || rep.Err() == nil {
		t.Errorf("violation not flagged: %v", rep.BrentViolations)
	}
	if !strings.Contains(rep.BrentViolations[0], "outside Brent bound") {
		t.Errorf("violation message: %q", rep.BrentViolations[0])
	}
	// The same overshoot also diverges from the simulator (warn-only).
	if len(rep.SimFlags) == 0 {
		t.Error("expected a simulator-divergence warning")
	}

	// A group with no P=1 cell has no calibration: that is a failure, not
	// a silent pass — a bound nobody checked is not a bound.
	rep = cannedReport()
	rep.Results = rep.Results[1:3] // drop msort P=1, keep P=2 and P=4; drop dedup
	rep.crossValidate(cannedSpec())
	if len(rep.BrentViolations) != 2 || !strings.Contains(rep.BrentViolations[0], "uncalibrated") {
		t.Errorf("uncalibrated cells not flagged: %v", rep.BrentViolations)
	}
}

func TestValidatorsRejectBadTables(t *testing.T) {
	rep := cannedReport()
	rep.crossValidate(cannedSpec())

	sum := SummaryTable(rep)
	sum.Rows[0][sum.Col("min_ns")] = "99999999999" // min > mean
	if err := ValidateSummaryTable(sum); err == nil {
		t.Error("summary validator accepted min > mean")
	}

	sp := SpeedupTable(rep)
	sp.Rows[0][sp.Col("speedup")] = "1.100" // P=1 row must be exactly 1
	if err := ValidateSpeedupTable(sp); err == nil {
		t.Error("speedup validator accepted P=1 speedup != 1")
	}
	sp = SpeedupTable(rep)
	var rows [][]string
	for _, row := range sp.Rows {
		if row[sp.Col("procs")] != "1" {
			rows = append(rows, row)
		}
	}
	sp.Rows = rows
	if err := ValidateSpeedupTable(sp); err == nil || !strings.Contains(err.Error(), "no P=1") {
		t.Errorf("speedup validator accepted curve without calibration row: %v", err)
	}

	ov := OverheadTable(rep)
	ov.Rows[0][ov.Col("overhead")] = "-1"
	if err := ValidateOverheadTable(ov); err == nil {
		t.Error("overhead validator accepted non-positive overhead")
	}

	cvt := CrossvalTable(rep)
	cvt.Rows[0][cvt.Col("brent_ok")] = "maybe"
	if err := ValidateCrossvalTable(cvt); err == nil {
		t.Error("crossval validator accepted bad brent_ok")
	}
}

// The checked-in paper artifacts must re-validate from disk: the repo's
// golden-validated speedup curves are the acceptance bar of the paper run.
func TestCheckedInPaperOutputs(t *testing.T) {
	dir := "../../scripts/paper/out"
	read := func(name string) *tables.Table {
		t.Helper()
		tab, err := tables.ReadCSVFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab.Name = name
		return tab
	}
	if err := ValidateSummaryTable(read(SummaryCSV)); err != nil {
		t.Error(err)
	}
	if err := ValidateOverheadTable(read(OverheadCSV)); err != nil {
		t.Error(err)
	}
	sp := read(SpeedupCSV)
	if err := ValidateSpeedupTable(sp); err != nil {
		t.Fatal(err)
	}
	// At least one multi-point curve each for a disentangled and an
	// entangled benchmark.
	points := map[string]int{}
	entangled := map[string]bool{}
	for i, row := range sp.Rows {
		curve := row[sp.Col("curve")]
		points[curve]++
		entangled[curve] = row[sp.Col("entangled")] == "true"
		if _, err := sp.Float(i, "speedup"); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	kinds := map[bool]bool{}
	for curve, n := range points {
		if n > 1 {
			kinds[entangled[curve]] = true
		}
	}
	if !kinds[false] || !kinds[true] {
		t.Errorf("checked-in curves must include multi-P sweeps for both kinds, got %v", kinds)
	}
	// Every checked-in cross-validation row passed Brent's bound.
	cvt := read(CrossvalCSV)
	if err := ValidateCrossvalTable(cvt); err != nil {
		t.Fatal(err)
	}
	for i, row := range cvt.Rows {
		if row[cvt.Col("brent_ok")] != "true" {
			t.Errorf("checked-in crossval row %d (%s): brent_ok=false", i, row[0])
		}
	}
}
