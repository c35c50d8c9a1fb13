package expgrid

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mplgo/internal/entangle"
	"mplgo/internal/tables"
)

var update = flag.Bool("update", false, "rewrite golden files from the canned report")

// cannedCurve is a P=1 cell's replays for a DAG of work w and span sp:
// greedy makespans, busy processors capped by the parallelism, and a
// stop-the-world side whose serial collection work is gc.
func cannedCurve(w, sp, gc int64) []CurvePoint {
	var out []CurvePoint
	for _, p := range Ps {
		m := w/int64(p) + sp
		if p == 1 {
			m = w
		}
		out = append(out, CurvePoint{Procs: p, Makespan: m, BusyPeak: min(p, int(w/sp)),
			STWMPL: m + m/10, STW: m*7/10 + gc})
	}
	return out
}

// cannedReport is a fixed three-group report (a disentangled msort sweep,
// an entangled dedup sweep, and dedup under detect) with hand-picked
// numbers, the fixture behind the golden tables and the cross-validation
// tests.
func cannedReport() *Report {
	host := &tables.Fingerprint{Cores: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"}
	cell := func(benchName, mode string, p int) Cell {
		c := Cell{
			Label: benchName, Bench: benchName, N: 1000, Procs: p, Mode: mode,
			Repeats: 3, Warmups: 1, Seed: 1,
		}
		c.ID = c.GroupKey() + "/p=" + itoa(int64(p))
		return c
	}
	dedupEnt := entangle.StatsSnapshot{EntangledReads: 900, SlowReads: 950, Candidates: 40,
		Pins: 45, Unpins: 45, PinnedPeak: 30, DownPointers: 20}
	return &Report{
		Started: "2026-08-07T00:00:00Z",
		Host:    host,
		Results: []*CellResult{
			{
				Cell:     cell("msort", "manage", 1),
				WallNS:   []int64{10_000_000, 10_400_000, 10_200_000},
				TseqNS:   []int64{8_000_000, 8_200_000, 8_100_000},
				NativeNS: []int64{2_000_000, 2_100_000, 2_050_000},
				Checksum: 42, ChecksumStable: true,
				Work: 10_000, Span: 500, SimT1: 10_000, SimTP: 10_000, SimTPEff: 10_000, Host: host,
				R1Words: 50_000, GCWork: 1_000, Curve: cannedCurve(10_000, 500, 1_000),
			},
			{
				Cell:     cell("msort", "manage", 2),
				WallNS:   []int64{6_000_000, 6_300_000, 6_100_000},
				Checksum: 42, ChecksumStable: true,
				Work: 10_000, Span: 500, SimT1: 10_000, SimTP: 5_100, SimTPEff: 5_100, Host: host,
			},
			{
				Cell:     cell("msort", "manage", 4),
				WallNS:   []int64{4_000_000, 4_500_000, 4_200_000},
				Checksum: 42, ChecksumStable: true,
				Work: 10_000, Span: 500, SimT1: 10_000, SimTP: 2_700, SimTPEff: 2_700, Host: host,
			},
			{
				Cell:     cell("dedup", "manage", 1),
				WallNS:   []int64{1_000_000, 1_100_000, 1_050_000},
				TseqNS:   []int64{600_000, 620_000, 610_000},
				NativeNS: []int64{200_000, 210_000, 205_000},
				Checksum: 7, ChecksumStable: true, Ent: dedupEnt,
				Work: 2_000, Span: 300, SimT1: 2_000, SimTP: 2_000, SimTPEff: 2_000, Host: host,
				R1Words: 9_000, GCWork: 300, Curve: cannedCurve(2_000, 300, 300),
			},
			{
				Cell:     cell("dedup", "manage", 2),
				WallNS:   []int64{800_000, 850_000, 820_000},
				Checksum: 7, ChecksumStable: true, Ent: dedupEnt,
				Work: 2_000, Span: 300, SimT1: 2_000, SimTP: 1_200, SimTPEff: 1_200, Host: host,
			},
			{
				Cell:     cell("dedup", "detect", 1),
				WallNS:   []int64{3_000_000, 3_200_000, 3_100_000},
				TseqNS:   []int64{600_000, 630_000, 615_000},
				NativeNS: []int64{200_000, 220_000, 210_000},
				Checksum: 7, ChecksumStable: true, Aborted: true, Ent: dedupEnt,
				Work: 2_100, Span: 300, SimT1: 2_100, SimTP: 2_100, SimTPEff: 2_100, Host: host,
				R1Words: 9_500, GCWork: 300, Curve: cannedCurve(2_100, 300, 300),
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
	for _, a := range Artifacts {
		tab := a.Build(rep)
		if err := a.Validate(tab); err != nil {
			t.Fatal(err)
		}
		if tab.Name != "samples" && tab.Name != "crossval" {
			checkGolden(t, tab.Name+".golden.csv", tab)
		}
	}
}

func TestCrossValidateNumbers(t *testing.T) {
	rep := cannedReport()
	rep.crossValidate(cannedSpec())
	if len(rep.CrossVal) != 6 {
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
// golden-validated tables are the acceptance bar of the paper run.
func TestCheckedInPaperOutputs(t *testing.T) {
	dir := "../../scripts/paper/out"
	read := func(name string) *tables.Table {
		t.Helper()
		tab, err := tables.ReadCSVFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab.Name = name
		return tab
	}
	rep := cannedReport()
	for _, a := range Artifacts {
		name := a.Build(rep).Name
		if err := a.Validate(read(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// At least one multi-point measured curve each for a disentangled and
	// an entangled benchmark.
	sp := read("speedup_curves")
	points := map[string]int{}
	entangled := map[string]bool{}
	for _, row := range sp.Rows {
		if row[sp.Col("measured")] == "true" {
			points[row[sp.Col("group")]]++
			entangled[row[sp.Col("group")]] = row[sp.Col("entangled")] == "true"
		}
	}
	kinds := map[bool]bool{}
	for group, n := range points {
		if n > 1 {
			kinds[entangled[group]] = true
		}
	}
	if !kinds[false] || !kinds[true] {
		t.Errorf("checked-in curves must include multi-P sweeps for both kinds, got %v", kinds)
	}
	// Every checked-in cross-validation row passed Brent's bound.
	cvt := read("crossval")
	for i, row := range cvt.Rows {
		if row[cvt.Col("brent_ok")] != "true" {
			t.Errorf("checked-in crossval row %d (%s): brent_ok=false", i, row[0])
		}
	}
}

// Every validator rejects a table missing a column it reads, one with a
// NaN or a negative value, and one whose group lost its P=1 row.
func TestArtifactValidatorsRejectMalformed(t *testing.T) {
	rep := cannedReport()
	rep.crossValidate(cannedSpec())
	for _, a := range Artifacts[5:] { // lang, entangle, ablate, space_curves, stw
		good := a.Build(rep)
		mutate := func(what string, f func(tab *tables.Table)) {
			tab := a.Build(rep)
			f(tab)
			if err := a.Validate(tab); err == nil {
				t.Errorf("%s: accepted %s", good.Name, what)
			}
		}
		last := len(good.Header) - 1
		mutate("a missing column", func(tab *tables.Table) {
			tab.Header = tab.Header[:last]
			for i := range tab.Rows {
				tab.Rows[i] = tab.Rows[i][:last]
			}
		})
		mutate("a NaN", func(tab *tables.Table) { tab.Rows[0][last] = "NaN" })
		mutate("a negative value", func(tab *tables.Table) { tab.Rows[0][last] = "-1" })
		mutate("a group without a P=1 row", func(tab *tables.Table) {
			var rows [][]string
			for _, row := range tab.Rows {
				if row[tab.Col("procs")] != "1" {
					rows = append(rows, row)
				}
			}
			tab.Rows = rows
		})
	}
	// The semantic checks: pins unpinned, shielding, who may abort.
	for _, c := range []struct {
		name, col, val string
		row            int
		validate       func(*tables.Table) error
		table          func(*Report) *tables.Table
	}{
		{"pins != unpins", "unpins", "44", 3, ValidateEntangleTable, EntangleTable},
		{"a disentangled benchmark entangling", "entangled_reads", "1", 0, ValidateEntangleTable, EntangleTable},
		{"manage aborting", "aborted", "true", 3, ValidateAblateTable, AblateTable},
		{"a disentangled benchmark aborting", "aborted", "true", 0, ValidateAblateTable, AblateTable},
		{"P=1 residency != R1", "residency_words", "1", 0, ValidateSpaceTable, SpaceTable},
	} {
		tab := c.table(rep)
		tab.Rows[c.row][tab.Col(c.col)] = c.val
		if err := c.validate(tab); err == nil {
			t.Errorf("accepted %s", c.name)
		}
	}
}
