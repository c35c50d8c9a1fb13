package expgrid

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"mplgo/internal/sim"
	"mplgo/internal/tables"
)

// Runner executes a grid spec cell by cell and assembles the Report.
type Runner struct {
	Spec *Spec
	// CellCmd is the argv prefix of the cell subprocess (mplgo-paper
	// itself); the runner appends "-cell <file>". Empty runs cells
	// in-process (tests and -inprocess only — a fresh process per cell is
	// the reproducibility contract: no shared allocator, GC, or scheduler
	// state between cells).
	CellCmd []string
	// Progress receives one line per cell (nil for silence).
	Progress io.Writer
	// TraceDir, when set, gives every cell a TracePath under it: one
	// Chrome export per cell, named after the cell ID with "/" as "_"
	// (e.g. pipeline_p=4_mode=manage.trace.json) and stamped with the
	// cell-identity counters.
	TraceDir string
	// Attr, when set, gives every cell attributed runs whose slow-path
	// cost decomposition rides in the CellResult (and its trace).
	Attr bool
	// Cores overrides the host core count for sweep expansion (0 = the
	// current fingerprint's).
	Cores int
}

// Report is the outcome of one full grid run.
type Report struct {
	Started string              `json:"started"` // RFC 3339, UTC
	Host    *tables.Fingerprint `json:"host"`
	Results []*CellResult       `json:"results"`
	// CrossVal is the per-cell simulator cross-validation (Brent's bound
	// plus calibrated-prediction divergence).
	CrossVal []CrossVal `json:"crossval"`
	// BrentViolations fail the paper run; SimFlags and ChecksumWarnings
	// are reported but do not.
	BrentViolations  []string `json:"brent_violations,omitempty"`
	SimFlags         []string `json:"sim_flags,omitempty"`
	ChecksumWarnings []string `json:"checksum_warnings,omitempty"`
}

// CrossVal is one cell's cross-validation row: measured best wall time
// against Brent's bound at the effective parallelism, and against the
// calibrated simulator prediction.
type CrossVal struct {
	CellID     string  `json:"cell"`
	Procs      int     `json:"procs"`
	EffProcs   int     `json:"eff_procs"`
	Work       int64   `json:"work"`
	Span       int64   `json:"span"`
	UnitNS     float64 `json:"unit_ns"` // ns per abstract work unit (group calibration)
	BrentLoNS  float64 `json:"brent_lo_ns"`
	BrentHiNS  float64 `json:"brent_hi_ns"`
	MinNS      int64   `json:"min_ns"`
	BrentOK    bool    `json:"brent_ok"`
	SimPredNS  float64 `json:"sim_pred_ns"`
	Divergence float64 `json:"divergence"` // minNS/simPred − 1
	SimFlagged bool    `json:"sim_flagged"`
	Calibrated bool    `json:"calibrated"`
}

func (r *Runner) progressf(format string, args ...any) {
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format, args...)
	}
}

// Run expands the grid, executes every cell, and cross-validates. The
// returned error covers execution failures only; Brent violations are
// reported in the Report (and by Report.Err) so the caller can still
// write the outputs that show them.
func (r *Runner) Run() (*Report, error) {
	host := tables.CurrentFingerprint()
	cores := r.Cores
	if cores <= 0 {
		cores = host.Cores
	}
	cells := r.Spec.Expand(cores)
	rep := &Report{
		Started: time.Now().UTC().Format(time.RFC3339),
		Host:    host,
	}
	r.progressf("# grid %q: %d cells on %s\n", r.Spec.Name, len(cells), host)
	for i, c := range cells {
		if r.TraceDir != "" {
			c.TracePath = filepath.Join(r.TraceDir, strings.ReplaceAll(c.ID, "/", "_")+".trace.json")
		}
		c.Attr = c.Attr || r.Attr
		start := time.Now()
		res, err := r.runCell(c)
		if err != nil {
			return nil, fmt.Errorf("cell %d/%d %s: %w", i+1, len(cells), c.ID, err)
		}
		rep.Results = append(rep.Results, res)
		r.progressf("# [%d/%d] %-45s min=%-12s samples=%d (%.1fs)\n",
			i+1, len(cells), c.ID, time.Duration(tables.MinNS(res.WallNS)),
			len(res.WallNS), time.Since(start).Seconds())
		if !res.ChecksumStable {
			rep.ChecksumWarnings = append(rep.ChecksumWarnings,
				fmt.Sprintf("%s: checksum varied across repeats", c.ID))
		}
	}
	rep.crossValidate(r.Spec)
	return rep, nil
}

// runCell dispatches one cell to a fresh subprocess (or in-process when
// CellCmd is empty).
func (r *Runner) runCell(c Cell) (*CellResult, error) {
	if len(r.CellCmd) == 0 {
		return ExecuteCell(c)
	}
	dir, err := os.MkdirTemp("", "expgrid-cell-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cellPath := filepath.Join(dir, "cell.json")
	data, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cellPath, data, 0o644); err != nil {
		return nil, err
	}
	args := append(append([]string{}, r.CellCmd[1:]...), "-cell", cellPath)
	cmd := exec.Command(r.CellCmd[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("subprocess %v: %w", r.CellCmd, err)
	}
	var res CellResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("bad cell output (%d bytes): %w", len(out), err)
	}
	return &res, nil
}

// crossValidate checks every cell against Brent's bound and the
// calibrated simulator prediction. Calibration is per sweep group, from
// its P=1 cell: unit = (best measured T_1) / (replayed T_1) converts the
// simulator's abstract makespans to nanoseconds on this host.
func (rep *Report) crossValidate(spec *Spec) {
	unit := map[string]float64{} // group key → ns per abstract unit
	for _, res := range rep.Results {
		if res.Cell.Procs == 1 && res.SimT1 > 0 {
			if m := tables.MinNS(res.WallNS); m > 0 {
				unit[res.Cell.GroupKey()] = float64(m) / float64(res.SimT1)
			}
		}
	}
	for _, res := range rep.Results {
		c := res.Cell
		effP := res.Host.EffectiveProcs(c.Procs)
		cv := CrossVal{
			CellID:   c.ID,
			Procs:    c.Procs,
			EffProcs: effP,
			Work:     res.Work,
			Span:     res.Span,
			MinNS:    tables.MinNS(res.WallNS),
		}
		u, ok := unit[c.GroupKey()]
		cv.Calibrated = ok && u > 0
		if cv.Calibrated {
			cv.UnitNS = u
			lo, hi := sim.Brent(res.Work, res.Span, effP, spec.BrentC)
			cv.BrentLoNS = lo * u
			cv.BrentHiNS = hi * u
			min := float64(cv.MinNS)
			cv.BrentOK = min >= cv.BrentLoNS*(1-spec.BrentTolerance) &&
				min <= cv.BrentHiNS*(1+spec.BrentTolerance)
			cv.SimPredNS = u * float64(res.SimTPEff)
			if cv.SimPredNS > 0 {
				cv.Divergence = min/cv.SimPredNS - 1
			}
			if cv.Divergence > spec.SimTolerance || cv.Divergence < -spec.SimTolerance {
				cv.SimFlagged = true
				flag := fmt.Sprintf(
					"%s: measured %s diverges %+.0f%% from simulator prediction %s",
					c.ID, time.Duration(cv.MinNS), cv.Divergence*100,
					time.Duration(int64(cv.SimPredNS)))
				// When the traced run measured scheduler hand-off latency
				// and it accounts for a visible slice of the wall clock,
				// say so: the simulator charges a flat StealCost per
				// migration, so high real steal latency is the first
				// suspect for a cell running slower than predicted.
				if lat := int64(res.StealLatCount) * res.StealLatMeanNS; res.StealLatCount > 0 &&
					cv.MinNS > 0 && lat*20 > cv.MinNS {
					flag += fmt.Sprintf(
						" — coincides with high steal latency (%d steals, mean %s, ~%.0f%% of wall)",
						res.StealLatCount, time.Duration(res.StealLatMeanNS),
						100*float64(lat)/float64(cv.MinNS))
				}
				rep.SimFlags = append(rep.SimFlags, flag)
			}
			if !cv.BrentOK {
				rep.BrentViolations = append(rep.BrentViolations, fmt.Sprintf(
					"%s: measured %s outside Brent bound [%s, %s] ×(1±%.0f%%) at effP=%d (W=%d S=%d c=%.1f)",
					c.ID, time.Duration(cv.MinNS),
					time.Duration(int64(cv.BrentLoNS)), time.Duration(int64(cv.BrentHiNS)),
					spec.BrentTolerance*100, effP, res.Work, res.Span, spec.BrentC))
			}
		} else {
			rep.BrentViolations = append(rep.BrentViolations, fmt.Sprintf(
				"%s: uncalibrated (no P=1 cell in group %s)", c.ID, c.GroupKey()))
		}
		rep.CrossVal = append(rep.CrossVal, cv)
	}
}

// Err returns the failure the run should exit with: any Brent violation
// (an uncalibrated cell counts — a bound nobody checked is not a pass).
func (rep *Report) Err() error {
	if len(rep.BrentViolations) > 0 {
		return fmt.Errorf("%d Brent-bound violations (see crossval report)", len(rep.BrentViolations))
	}
	return nil
}
