package expgrid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"mplgo/internal/bench"
	"mplgo/internal/tables"
)

// Output file names under the paper-run output directory.
const (
	SamplesCSV  = "samples.csv"
	SummaryCSV  = "summary_grouped.csv"
	SpeedupCSV  = "speedup_curves.csv"
	OverheadCSV = "overhead.csv"
	CrossvalCSV = "crossval.csv"
	CrossvalTXT = "crossval.txt"
	ResultsJSON = "results.json"
	HostJSON    = "host.json"
)

func entangledOf(name string) bool {
	b, ok := bench.ByName(name)
	return ok && b.Entangled
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
func ftoa(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// cellCols are the identity columns every per-cell table starts with.
func cellCols(c Cell) []string {
	return []string{
		c.ID, c.Bench, fmt.Sprintf("%v", entangledOf(c.Bench)),
		itoa(int64(c.Procs)), onOff(c.Elide), itoa(int64(c.N)),
	}
}

// SamplesTable is the raw per-repeat record: one row per timed sample,
// mpl rows for the hierarchical runtime at the cell's P and seq rows for
// the global-heap baseline (P=1 cells only).
func SamplesTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "samples",
		Header: []string{"cell", "bench", "entangled", "procs", "elide",
			"n", "kind", "repeat", "wall_ns"},
	}
	for _, res := range rep.Results {
		base := cellCols(res.Cell)
		for i, ns := range res.WallNS {
			t.Append(append(append([]string{}, base...), "mpl", itoa(int64(i)), itoa(ns))...)
		}
		for i, ns := range res.TseqNS {
			t.Append(append(append([]string{}, base...), "seq", itoa(int64(i)), itoa(ns))...)
		}
	}
	return t
}

// SummaryTable is summary_grouped.csv: per-cell grouped statistics (mean,
// min, max, stddev, 95% CI on the mean) for the mpl samples, plus seq
// rows for the baseline measurements.
func SummaryTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "summary_grouped",
		Header: []string{"cell", "bench", "entangled", "procs", "elide",
			"n", "kind", "samples", "min_ns", "mean_ns", "max_ns",
			"stddev_ns", "ci95_ns"},
	}
	row := func(c Cell, kind string, ns []int64) {
		if len(ns) == 0 {
			return
		}
		s := tables.SummarizeNS(ns)
		t.Append(append(append([]string{}, cellCols(c)...),
			kind, itoa(int64(s.N)), ftoa(s.Min, 0), ftoa(s.Mean, 0), ftoa(s.Max, 0),
			ftoa(s.Stddev, 0), ftoa(s.CI95, 0))...)
	}
	for _, res := range rep.Results {
		row(res.Cell, "mpl", res.WallNS)
		row(res.Cell, "seq", res.TseqNS)
	}
	return t
}

// SpeedupTable is the per-group speedup curve over the P sweep: measured
// speedup (best T_1 / best T_P, real cores) beside the simulator's
// replayed curve for the same DAG at the same P.
func SpeedupTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "speedup_curves",
		Header: []string{"curve", "bench", "entangled", "elide",
			"n", "procs", "eff_procs", "min_ns", "speedup", "sim_speedup"},
	}
	t1 := map[string]int64{} // group → best measured T_1
	for _, res := range rep.Results {
		if res.Cell.Procs == 1 {
			t1[res.Cell.GroupKey()] = tables.MinNS(res.WallNS)
		}
	}
	for _, res := range rep.Results {
		c := res.Cell
		base, ok := t1[c.GroupKey()]
		if !ok || base == 0 {
			continue
		}
		min := tables.MinNS(res.WallNS)
		if min == 0 || res.SimTP == 0 {
			continue
		}
		t.Append(c.GroupKey(), c.Bench, fmt.Sprintf("%v", entangledOf(c.Bench)),
			onOff(c.Elide), itoa(int64(c.N)),
			itoa(int64(c.Procs)), itoa(int64(res.Host.EffectiveProcs(c.Procs))),
			itoa(min),
			ftoa(float64(base)/float64(min), 3),
			ftoa(float64(res.SimT1)/float64(res.SimTP), 3))
	}
	return t
}

// OverheadTable reports each group's single-processor overhead (best T_1
// over best sequential baseline), the paper's headline per-benchmark
// statistic, with both CIs so drift is visible.
func OverheadTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "overhead",
		Header: []string{"group", "bench", "entangled", "elide",
			"n", "tseq_min_ns", "t1_min_ns", "overhead", "tseq_ci95_ns", "t1_ci95_ns"},
	}
	for _, res := range rep.Results {
		c := res.Cell
		if c.Procs != 1 || len(res.TseqNS) == 0 {
			continue
		}
		tseq, t1min := tables.MinNS(res.TseqNS), tables.MinNS(res.WallNS)
		if tseq == 0 || t1min == 0 {
			continue
		}
		t.Append(c.GroupKey(), c.Bench, fmt.Sprintf("%v", entangledOf(c.Bench)),
			onOff(c.Elide), itoa(int64(c.N)),
			itoa(tseq), itoa(t1min), ftoa(float64(t1min)/float64(tseq), 3),
			ftoa(tables.SummarizeNS(res.TseqNS).CI95, 0),
			ftoa(tables.SummarizeNS(res.WallNS).CI95, 0))
	}
	return t
}

// CrossvalTable is the machine-readable cross-validation report.
func CrossvalTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "crossval",
		Header: []string{"cell", "procs", "eff_procs", "work", "span", "unit_ns",
			"brent_lo_ns", "brent_hi_ns", "min_ns", "brent_ok", "sim_pred_ns",
			"divergence", "sim_flagged"},
	}
	for _, cv := range rep.CrossVal {
		t.Append(cv.CellID, itoa(int64(cv.Procs)), itoa(int64(cv.EffProcs)),
			itoa(cv.Work), itoa(cv.Span), ftoa(cv.UnitNS, 4),
			ftoa(cv.BrentLoNS, 0), ftoa(cv.BrentHiNS, 0), itoa(cv.MinNS),
			fmt.Sprintf("%v", cv.BrentOK), ftoa(cv.SimPredNS, 0),
			ftoa(cv.Divergence, 3), fmt.Sprintf("%v", cv.SimFlagged))
	}
	return t
}

// ValidateSummaryTable checks summary_grouped.csv semantically: at least
// one row, every row with samples ≥ 1 and min ≤ mean ≤ max, CI
// non-negative.
func ValidateSummaryTable(t *tables.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %s: no rows", t.Name)
	}
	for i := range t.Rows {
		n, err := t.Float(i, "samples")
		if err != nil {
			return err
		}
		min, _ := t.Float(i, "min_ns")
		mean, _ := t.Float(i, "mean_ns")
		max, _ := t.Float(i, "max_ns")
		ci, _ := t.Float(i, "ci95_ns")
		if n < 1 || min <= 0 || min > mean+0.5 || mean > max+0.5 || ci < 0 {
			return fmt.Errorf("table %s: row %d (%s): bad statistics n=%v min=%v mean=%v max=%v ci=%v",
				t.Name, i, t.Rows[i][0], n, min, mean, max, ci)
		}
	}
	return nil
}

// ValidateSpeedupTable checks speedup_curves.csv semantically: every
// curve has a P=1 row with measured and simulated speedup exactly 1,
// strictly increasing P, positive speedups, and eff_procs ≤ procs.
func ValidateSpeedupTable(t *tables.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %s: no rows", t.Name)
	}
	curves := map[string][]int{} // curve → row indices
	for i, row := range t.Rows {
		curves[row[t.Col("curve")]] = append(curves[row[t.Col("curve")]], i)
	}
	for curve, idx := range curves {
		lastP := 0
		sawP1 := false
		for _, i := range idx {
			p, _ := t.Float(i, "procs")
			eff, _ := t.Float(i, "eff_procs")
			sp, _ := t.Float(i, "speedup")
			sim, _ := t.Float(i, "sim_speedup")
			if int(p) <= lastP {
				return fmt.Errorf("table %s: curve %s: procs not strictly increasing at row %d",
					t.Name, curve, i)
			}
			lastP = int(p)
			if eff > p || eff < 1 {
				return fmt.Errorf("table %s: curve %s: eff_procs %v vs procs %v", t.Name, curve, eff, p)
			}
			if sp <= 0 || sim <= 0 {
				return fmt.Errorf("table %s: curve %s: non-positive speedup at row %d", t.Name, curve, i)
			}
			if int(p) == 1 {
				sawP1 = true
				if sp != 1 || sim != 1 {
					return fmt.Errorf("table %s: curve %s: P=1 speedup %v/%v (want exactly 1)",
						t.Name, curve, sp, sim)
				}
			}
		}
		if !sawP1 {
			return fmt.Errorf("table %s: curve %s: no P=1 calibration row", t.Name, curve)
		}
	}
	return nil
}

// ValidateOverheadTable checks overhead.csv semantically.
func ValidateOverheadTable(t *tables.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %s: no rows", t.Name)
	}
	for i := range t.Rows {
		ov, err := t.Float(i, "overhead")
		if err != nil {
			return err
		}
		if ov <= 0 {
			return fmt.Errorf("table %s: row %d: non-positive overhead", t.Name, i)
		}
	}
	return nil
}

// ValidateCrossvalTable checks crossval.csv is well-formed and that every
// calibrated cell carries a bound (positive hi ≥ lo ≥ 0).
func ValidateCrossvalTable(t *tables.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %s: no rows", t.Name)
	}
	for i := range t.Rows {
		lo, _ := t.Float(i, "brent_lo_ns")
		hi, _ := t.Float(i, "brent_hi_ns")
		if lo < 0 || hi < lo {
			return fmt.Errorf("table %s: row %d: bad bound [%v, %v]", t.Name, i, lo, hi)
		}
		switch t.Rows[i][t.Col("brent_ok")] {
		case "true", "false":
		default:
			return fmt.Errorf("table %s: row %d: bad brent_ok", t.Name, i)
		}
	}
	return nil
}

// WriteOutputs builds, validates, and writes every paper-run artifact
// into dir: the raw samples, the grouped summary, the speedup and
// overhead tables, the cross-validation report (CSV and human-readable),
// the raw results, and the host fingerprint. Any validation failure is an
// error — an unvalidated table is never written.
func (rep *Report) WriteOutputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type out struct {
		name     string
		table    *tables.Table
		validate func(*tables.Table) error
	}
	outs := []out{
		{SamplesCSV, SamplesTable(rep), (*tables.Table).Validate},
		{SummaryCSV, SummaryTable(rep), ValidateSummaryTable},
		{SpeedupCSV, SpeedupTable(rep), ValidateSpeedupTable},
		{OverheadCSV, OverheadTable(rep), ValidateOverheadTable},
		{CrossvalCSV, CrossvalTable(rep), ValidateCrossvalTable},
	}
	for _, o := range outs {
		if err := o.validate(o.table); err != nil {
			return fmt.Errorf("unvalidated table: %w", err)
		}
		if err := tables.WriteCSVFile(filepath.Join(dir, o.name), o.table); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(dir, ResultsJSON), rep); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, HostJSON), rep.Host); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, CrossvalTXT))
	if err != nil {
		return err
	}
	rep.WriteCrossvalText(f)
	return f.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteCrossvalText renders the human-readable cross-validation report.
func (rep *Report) WriteCrossvalText(w *os.File) {
	fmt.Fprintf(w, "# cross-validation: measured T_P vs Brent bound and simulator prediction\n")
	fmt.Fprintf(w, "# host: %s\n# started: %s\n", rep.Host, rep.Started)
	fmt.Fprintf(w, "%-50s %5s %5s %12s %24s %12s %6s %8s\n",
		"cell", "P", "effP", "min", "brent [lo, hi]", "sim pred", "ok", "diverg")
	for _, cv := range rep.CrossVal {
		ok := "OK"
		if !cv.BrentOK {
			ok = "FAIL"
		}
		if !cv.Calibrated {
			ok = "UNCAL"
		}
		fmt.Fprintf(w, "%-50s %5d %5d %12s [%10s, %10s] %12s %6s %+7.0f%%\n",
			cv.CellID, cv.Procs, cv.EffProcs, time.Duration(cv.MinNS),
			time.Duration(int64(cv.BrentLoNS)), time.Duration(int64(cv.BrentHiNS)),
			time.Duration(int64(cv.SimPredNS)), ok, cv.Divergence*100)
	}
	warn := func(header string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s:\n", header)
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}
	warn("BRENT VIOLATIONS (run fails)", rep.BrentViolations)
	warn("simulator divergence (warn)", rep.SimFlags)
	warn("checksum instability (warn)", rep.ChecksumWarnings)
	if len(rep.BrentViolations) == 0 {
		fmt.Fprintf(w, "\nall %d cells satisfy W/effP ≤ T_P ≤ W/effP + c·S\n", len(rep.CrossVal))
	}
}
