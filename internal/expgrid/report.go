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

// Output file names under the paper-run output directory besides the
// tables, each of which is written as <table name>.csv.
const (
	CrossvalTXT = "crossval.txt"
	ResultsJSON = "results.json"
	HostJSON    = "host.json"
)

func entangledOf(name string) bool {
	b, ok := bench.ByName(name)
	return ok && b.Entangled
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
func btoa(v bool) string  { return strconv.FormatBool(v) }
func ftoa(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// cellCols are the identity columns every per-cell table starts with.
func cellCols(c Cell) []string {
	return []string{
		c.ID, c.Bench, btoa(entangledOf(c.Bench)),
		itoa(int64(c.Procs)), c.Mode, itoa(int64(c.N)),
	}
}

var cellHeader = []string{"cell", "bench", "entangled", "procs", "mode", "n"}

// groupCols are the identity columns of a per-group table.
func groupCols(c Cell) []string {
	return []string{c.GroupKey(), c.Bench, btoa(entangledOf(c.Bench)), c.Mode, itoa(int64(c.N))}
}

var groupHeader = []string{"group", "bench", "entangled", "mode", "n"}

func header(lead []string, cols ...string) []string {
	return append(append([]string{}, lead...), cols...)
}

type kind struct {
	name string
	ns   []int64
}

// kinds are the samples a cell takes: the hierarchical runtime at the
// cell's P, and (P=1 cells only) the global-heap baseline and native Go.
func kinds(res *CellResult) []kind {
	return []kind{{"mpl", res.WallNS}, {"seq", res.TseqNS}, {"native", res.NativeNS}}
}

// SamplesTable is the raw per-repeat record: one row per timed sample
// of every kind.
func SamplesTable(rep *Report) *tables.Table {
	t := &tables.Table{Name: "samples", Header: header(cellHeader, "kind", "repeat", "wall_ns")}
	for _, res := range rep.Results {
		for _, k := range kinds(res) {
			for i, ns := range k.ns {
				t.Append(header(cellCols(res.Cell), k.name, itoa(int64(i)), itoa(ns))...)
			}
		}
	}
	return t
}

// SummaryTable is summary_grouped.csv: per-cell grouped statistics (mean,
// min, max, stddev, 95% CI on the mean) of every kind of sample.
func SummaryTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "summary_grouped",
		Header: header(cellHeader, "kind", "samples", "min_ns", "mean_ns", "max_ns",
			"stddev_ns", "ci95_ns"),
	}
	row := func(c Cell, kind string, ns []int64) {
		if len(ns) == 0 {
			return
		}
		s := tables.SummarizeNS(ns)
		t.Append(header(cellCols(c),
			kind, itoa(int64(s.N)), ftoa(s.Min, 0), ftoa(s.Mean, 0), ftoa(s.Max, 0),
			ftoa(s.Stddev, 0), ftoa(s.CI95, 0))...)
	}
	for _, res := range rep.Results {
		for _, k := range kinds(res) {
			row(res.Cell, k.name, k.ns)
		}
	}
	return t
}

// p1Cells are the P=1 cells that carry a group's baselines and replays.
func p1Cells(rep *Report) []*CellResult {
	var out []*CellResult
	for _, res := range rep.Results {
		if res.Cell.Procs == 1 && len(res.Curve) > 0 {
			out = append(out, res)
		}
	}
	return out
}

// SpeedupTable is F1: per group, the measured speedup (best T_1 / best
// T_P, real cores) beside the simulator's replayed speedup for the same
// DAG at the same P, and the replayed speedup alone (measured=false,
// min_ns and speedup 0) at every P of Ps the sweep did not measure.
func SpeedupTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "speedup_curves",
		Header: header(groupHeader, "procs", "eff_procs", "measured", "min_ns",
			"speedup", "sim_speedup"),
	}
	for _, one := range p1Cells(rep) {
		makespan := map[int]int64{} // P → replayed makespan
		for _, pt := range one.Curve {
			makespan[pt.Procs] = pt.Makespan
		}
		measured := map[int]*CellResult{}
		for _, res := range rep.Results {
			if res.Cell.GroupKey() == one.Cell.GroupKey() && tables.MinNS(res.WallNS) > 0 && res.SimTP > 0 {
				measured[res.Cell.Procs], makespan[res.Cell.Procs] = res, res.SimTP
			}
		}
		if measured[1] != one {
			continue
		}
		ps := make([]int, 0, len(makespan))
		for p := range makespan {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		for _, p := range ps {
			res, ok := measured[p]
			min, speedup := int64(0), 0.0
			if ok {
				min = tables.MinNS(res.WallNS)
				speedup = float64(tables.MinNS(one.WallNS)) / float64(min)
			}
			t.Append(header(groupCols(one.Cell), itoa(int64(p)), itoa(int64(one.Host.EffectiveProcs(p))), btoa(ok),
				itoa(min), ftoa(speedup, 3), ftoa(float64(one.SimT1)/float64(makespan[p]), 3))...)
		}
	}
	return t
}

// OverheadTable reports each group's single-processor overhead (best T_1
// over best sequential baseline), the paper's headline per-benchmark
// statistic, with both CIs so drift is visible.
func OverheadTable(rep *Report) *tables.Table {
	t := &tables.Table{
		Name: "overhead",
		Header: header(groupHeader, "tseq_min_ns", "t1_min_ns", "overhead",
			"tseq_ci95_ns", "t1_ci95_ns"),
	}
	for _, res := range p1Cells(rep) {
		tseq, t1min := tables.MinNS(res.TseqNS), tables.MinNS(res.WallNS)
		if tseq == 0 || t1min == 0 {
			continue
		}
		t.Append(header(groupCols(res.Cell),
			itoa(tseq), itoa(t1min), ftoa(float64(t1min)/float64(tseq), 3),
			ci95(res.TseqNS), ci95(res.WallNS))...)
	}
	return t
}

func ci95(ns []int64) string { return ftoa(tables.SummarizeNS(ns).CI95, 0) }

// cellTable builds a per-cell artifact: the identity columns, the group
// and detect's verdict, then what row gives.
func cellTable(rep *Report, name string, cols []string, row func(*CellResult) []string) *tables.Table {
	t := &tables.Table{Name: name, Header: header(cellHeader, append([]string{"group", "aborted"}, cols...)...)}
	for _, res := range rep.Results {
		t.Append(header(cellCols(res.Cell), append([]string{res.Cell.GroupKey(), btoa(res.Aborted)}, row(res)...)...)...)
	}
	return t
}

// curveTable builds a per-group artifact over the P=1 cells' replays:
// one row per curve point for which row returns columns.
func curveTable(rep *Report, name string, cols []string, row func(*CellResult, CurvePoint) []string) *tables.Table {
	t := &tables.Table{Name: name, Header: header(groupHeader, append([]string{"procs"}, cols...)...)}
	for _, res := range p1Cells(rep) {
		for _, pt := range res.Curve {
			if r := row(res, pt); r != nil {
				t.Append(header(groupCols(res.Cell), append([]string{itoa(int64(pt.Procs))}, r...)...)...)
			}
		}
	}
	return t
}

// LangTable is T3: per group, the best native-Go and global-heap times
// beside the hierarchical runtime's best T_1 (procs=1) and its T_64
// (procs=64, simulated: T_1 scaled by the replayed makespans).
func LangTable(rep *Report) *tables.Table {
	return curveTable(rep, "lang", []string{"simulated", "native_min_ns", "native_ci95_ns",
		"tseq_min_ns", "tseq_ci95_ns", "t_ns", "vs_native"}, func(res *CellResult, pt CurvePoint) []string {
		native, t1 := tables.MinNS(res.NativeNS), float64(tables.MinNS(res.WallNS))
		if native == 0 || t1 == 0 || (pt.Procs != 1 && pt.Procs != Ps[len(Ps)-1]) {
			return nil
		}
		tp := t1 * float64(pt.Makespan) / float64(res.Curve[0].Makespan)
		return []string{btoa(pt.Procs != 1), itoa(native), ci95(res.NativeNS),
			itoa(tables.MinNS(res.TseqNS)), ci95(res.TseqNS), ftoa(tp, 0), ftoa(tp/float64(native), 3)}
	})
}

// entCols are T4's count columns.
var entCols = []string{"entangled_reads", "entangled_writes", "slow_reads", "candidates",
	"pins", "unpins", "pinned_peak", "down_pointers"}

// EntangleTable is T4: every cell's entanglement counts at its own P.
func EntangleTable(rep *Report) *tables.Table {
	return cellTable(rep, "entangle", entCols, func(res *CellResult) []string {
		e := res.Ent
		return []string{itoa(e.EntangledReads), itoa(e.EntangledWrites), itoa(e.SlowReads),
			itoa(e.Candidates), itoa(e.Pins), itoa(e.Unpins), itoa(e.PinnedPeak), itoa(e.DownPointers)}
	})
}

// AblateTable is F2: every cell's time under its barrier mode, and
// whether detect mode found entanglement.
func AblateTable(rep *Report) *tables.Table {
	return cellTable(rep, "ablate", []string{"min_ns", "mean_ns", "ci95_ns"}, func(res *CellResult) []string {
		s := tables.SummarizeNS(res.WallNS)
		return []string{ftoa(s.Min, 0), ftoa(s.Mean, 0), ftoa(s.CI95, 0)}
	})
}

// SpaceTable is F3: per group and P of Ps, the modeled residency
// R_1 + (busy(P) − 1) × nurseryWords, from the recorded run's R_1 and the
// replay's peak busy processors.
func SpaceTable(rep *Report) *tables.Table {
	return curveTable(rep, "space_curves", []string{"r1_words", "busy_peak", "residency_words"},
		func(res *CellResult, pt CurvePoint) []string {
			return []string{itoa(res.R1Words), itoa(int64(pt.BusyPeak)),
				itoa(res.R1Words + int64(pt.BusyPeak-1)*nurseryWords)}
		})
}

// STWTable is A6: per group and P of Ps, the modeled T_P (abstract units)
// of the hierarchical runtime and of a stop-the-world global-heap
// runtime, whose collection work (gc_units) cannot parallelize, with the
// first P at which the hierarchical runtime wins (0 if never).
func STWTable(rep *Report) *tables.Table {
	return curveTable(rep, "stw", []string{"mpl_units", "stw_units", "gc_units", "crossover_p"},
		func(res *CellResult, pt CurvePoint) []string {
			crossover := 0
			for _, q := range res.Curve {
				if q.STWMPL < q.STW {
					crossover = q.Procs
					break
				}
			}
			return []string{itoa(pt.STWMPL), itoa(pt.STW), itoa(res.GCWork), itoa(int64(crossover))}
		})
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
	if err := validateRows(t); err != nil {
		return err
	}
	for i := range t.Rows {
		n, _ := t.Float(i, "samples")
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
// group has a measured P=1 row with measured and simulated speedup
// exactly 1, strictly increasing P, positive simulated speedups, positive
// measured speedups (zero where nothing was measured), and
// 1 ≤ eff_procs ≤ procs.
func ValidateSpeedupTable(t *tables.Table) error {
	if err := validateCurves(t, []string{"measured"}, "min_ns", "speedup", "sim_speedup", "eff_procs"); err != nil {
		return err
	}
	lastP := map[string]int{}
	for i, row := range t.Rows {
		group, measured := row[t.Col("group")], row[t.Col("measured")] == "true"
		p, _ := t.Float(i, "procs")
		eff, _ := t.Float(i, "eff_procs")
		sp, _ := t.Float(i, "speedup")
		sim, _ := t.Float(i, "sim_speedup")
		bad := func(format string, args ...any) error {
			return fmt.Errorf("table %s: group %s: row %d: %s", t.Name, group, i, fmt.Sprintf(format, args...))
		}
		switch {
		case int(p) <= lastP[group]:
			return bad("procs not strictly increasing")
		case eff > p || eff < 1:
			return bad("eff_procs %v vs procs %v", eff, p)
		case sim <= 0 || measured != (sp > 0):
			return bad("speedup %v (measured %v), simulated %v", sp, measured, sim)
		case p == 1 && (sp != 1 || sim != 1):
			return bad("P=1 speedup %v/%v (want exactly 1)", sp, sim)
		}
		lastP[group] = int(p)
	}
	return nil
}

// validateRows checks the table is well-formed and not empty.
func validateRows(t *tables.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("table %s: no rows", t.Name)
	}
	return nil
}

// validateCurves checks what every per-group artifact shares: it is a
// well-formed table with rows, the group, procs, text and numeric columns
// exist, each numeric one holds a non-negative number, and every group
// has a P=1 row.
func validateCurves(t *tables.Table, text []string, numeric ...string) error {
	if err := validateRows(t); err != nil {
		return err
	}
	numeric = append([]string{"procs"}, numeric...)
	for _, col := range append(append([]string{"group"}, text...), numeric...) {
		if t.Col(col) < 0 {
			return fmt.Errorf("table %s: no column %q", t.Name, col)
		}
	}
	p1 := map[string]bool{}
	for i, row := range t.Rows {
		for _, col := range numeric {
			if v, err := t.Float(i, col); err != nil || v < 0 {
				return fmt.Errorf("table %s: row %d: %s = %q", t.Name, i, col, row[t.Col(col)])
			}
		}
		p1[row[t.Col("group")]] = p1[row[t.Col("group")]] || row[t.Col("procs")] == "1"
	}
	for group, ok := range p1 {
		if !ok {
			return fmt.Errorf("table %s: group %s: no P=1 row", t.Name, group)
		}
	}
	return nil
}

// ValidateLangTable checks lang.csv (T3).
func ValidateLangTable(t *tables.Table) error {
	return validateCurves(t, nil, "native_min_ns", "native_ci95_ns", "tseq_min_ns", "tseq_ci95_ns",
		"t_ns", "vs_native")
}

// ValidateEntangleTable checks entangle.csv (T4): every pin is unpinned
// by the end of the run, and a disentangled benchmark shows no
// entanglement at all (the paper's shielding claim).
func ValidateEntangleTable(t *tables.Table) error {
	if err := validateCurves(t, []string{"entangled"}, entCols...); err != nil {
		return err
	}
	for i, row := range t.Rows {
		pins, _ := t.Float(i, "pins")
		unpins, _ := t.Float(i, "unpins")
		if pins != unpins {
			return fmt.Errorf("table %s: row %d (%s): pins %v != unpins %v", t.Name, i, row[0], pins, unpins)
		}
		for _, col := range entCols {
			if v, _ := t.Float(i, col); v != 0 && row[t.Col("entangled")] == "false" {
				return fmt.Errorf("table %s: row %d (%s): disentangled benchmark with %s = %v",
					t.Name, i, row[0], col, v)
			}
		}
	}
	return nil
}

// ValidateAblateTable checks ablate.csv (F2): only detect mode aborts,
// only on an entangled benchmark, and no entangled benchmark runs unsafe.
func ValidateAblateTable(t *tables.Table) error {
	if err := validateCurves(t, []string{"mode", "entangled", "aborted"}, "min_ns", "mean_ns", "ci95_ns"); err != nil {
		return err
	}
	for i, row := range t.Rows {
		mode, ent, aborted := row[t.Col("mode")], row[t.Col("entangled")], row[t.Col("aborted")]
		if (aborted != "false" && (aborted != "true" || mode != "detect" || ent != "true")) ||
			(mode == "unsafe" && ent != "false") {
			return fmt.Errorf("table %s: row %d (%s): mode %s, entangled %s, aborted %s",
				t.Name, i, row[0], mode, ent, aborted)
		}
	}
	return nil
}

// ValidateSpaceTable checks space_curves.csv (F3): at P=1 the model is
// the measured residency.
func ValidateSpaceTable(t *tables.Table) error {
	if err := validateCurves(t, nil, "r1_words", "busy_peak", "residency_words"); err != nil {
		return err
	}
	for i, row := range t.Rows {
		r1, _ := t.Float(i, "r1_words")
		r, _ := t.Float(i, "residency_words")
		if row[t.Col("procs")] == "1" && r != r1 {
			return fmt.Errorf("table %s: row %d (%s): P=1 residency %v != R1 %v", t.Name, i, row[0], r, r1)
		}
	}
	return nil
}

// ValidateSTWTable checks stw.csv (A6).
func ValidateSTWTable(t *tables.Table) error {
	return validateCurves(t, nil, "mpl_units", "stw_units", "gc_units", "crossover_p")
}

// ValidateOverheadTable checks overhead.csv semantically.
func ValidateOverheadTable(t *tables.Table) error {
	if err := validateRows(t); err != nil {
		return err
	}
	for i := range t.Rows {
		if ov, err := t.Float(i, "overhead"); err != nil || ov <= 0 {
			return fmt.Errorf("table %s: row %d: overhead %v (%v)", t.Name, i, ov, err)
		}
	}
	return nil
}

// ValidateCrossvalTable checks crossval.csv is well-formed and that every
// calibrated cell carries a bound (positive hi ≥ lo ≥ 0).
func ValidateCrossvalTable(t *tables.Table) error {
	if err := validateRows(t); err != nil {
		return err
	}
	for i := range t.Rows {
		lo, _ := t.Float(i, "brent_lo_ns")
		hi, _ := t.Float(i, "brent_hi_ns")
		if lo < 0 || hi < lo {
			return fmt.Errorf("table %s: row %d: bad bound [%v, %v]", t.Name, i, lo, hi)
		}
		if ok := t.Rows[i][t.Col("brent_ok")]; ok != "true" && ok != "false" {
			return fmt.Errorf("table %s: row %d: bad brent_ok", t.Name, i)
		}
	}
	return nil
}

// Artifacts are the tables a paper run writes, each with its validator.
var Artifacts = []struct {
	Build    func(*Report) *tables.Table
	Validate func(*tables.Table) error
}{
	{SamplesTable, (*tables.Table).Validate},
	{SummaryTable, ValidateSummaryTable},
	{SpeedupTable, ValidateSpeedupTable},
	{OverheadTable, ValidateOverheadTable},
	{CrossvalTable, ValidateCrossvalTable},
	{LangTable, ValidateLangTable},
	{EntangleTable, ValidateEntangleTable},
	{AblateTable, ValidateAblateTable},
	{SpaceTable, ValidateSpaceTable},
	{STWTable, ValidateSTWTable},
}

// WriteOutputs builds, validates, and writes every paper-run artifact
// into dir: the raw samples, the grouped summary, the speedup and
// overhead tables, the cross-validation report (CSV and human-readable),
// one table per remaining paper artifact (T3, T4, F2, F3, A6), the raw
// results, and the host fingerprint. Any validation failure is an
// error — an unvalidated table is never written.
func (rep *Report) WriteOutputs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, o := range Artifacts {
		t := o.Build(rep)
		if err := o.Validate(t); err != nil {
			return fmt.Errorf("unvalidated table: %w", err)
		}
		if err := tables.WriteCSVFile(filepath.Join(dir, t.Name+".csv"), t); err != nil {
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
