// Package expgrid is the paper-runner's experiment-grid subsystem: a
// checked-in JSON spec declares a grid of benchmark measurements
// (benchmark × worker-count sweep × barrier ablation, with
// per-experiment repeats and warmups), the runner executes each cell in a
// fresh subprocess, and the results become the validated CSV tables and
// the simulator cross-validation report under scripts/paper/out/.
//
// The point of the subsystem is to replace ad-hoc measurement with
// reproducible, statistically summarized curves on *real* cores: every
// cell records all repeat samples plus a host fingerprint, every derived
// table passes a validator before it is written, and every measured T_P
// is checked against Brent's bound
//
//	W/effP  ≤  T_P  ≤  W/effP + c·S
//
// with W and S taken from the deterministic trace replay (package sim)
// and effP = min(P, host cores) — sweeping more workers than the host has
// cores is a legitimate oversubscription experiment, but the bound must
// be stated at the hardware's actual parallelism.
package expgrid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"mplgo/internal/bench"
)

// Spec is the experiment grid, loaded from scripts/paper/experiments.json.
type Spec struct {
	Name string `json:"name"`
	// StealCost is the simulator's strand-migration latency in abstract
	// work units, used for the replay predictions (default 200, matching
	// the table harness).
	StealCost int64 `json:"steal_cost,omitempty"`
	// BrentC is the constant c of the cross-validation bound
	// T_P ≤ W/effP + c·S. It absorbs per-span-node scheduling costs of
	// the real executor (fork/join bookkeeping, steal latency, queue
	// delay); the simulator alone needs c ≈ 1 + steal cost. Default 8.
	BrentC float64 `json:"brent_c,omitempty"`
	// BrentTolerance widens the bound multiplicatively before a cell is
	// flagged: the check is lo·(1−tol) ≤ min T_P ≤ hi·(1+tol). Default
	// 0.25. A Brent violation fails the paper run.
	BrentTolerance float64 `json:"brent_tolerance,omitempty"`
	// SimTolerance flags (warn-only) cells whose measured min T_P
	// diverges from the simulator's calibrated prediction by more than
	// this relative error. Default 0.5.
	SimTolerance float64 `json:"sim_tolerance,omitempty"`
	// Defaults fills unset per-experiment knobs.
	Defaults    Experiment   `json:"defaults"`
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one grid row before expansion: a benchmark swept over a
// list of worker counts with fixed runtime knobs.
type Experiment struct {
	Bench string `json:"bench,omitempty"`
	// Label distinguishes two experiments over the same benchmark (e.g. a
	// core sweep and an oversubscription sweep); it defaults to Bench.
	Label string `json:"label,omitempty"`
	// N overrides the benchmark's default problem size.
	N int `json:"n,omitempty"`
	// Procs is the worker-count sweep: a JSON array of integers and/or
	// the string "cores" (the host's core count), or the string "sweep"
	// for 1..cores. Every experiment's expansion must include P=1 — it is
	// the calibration point for the bound and the speedup curves.
	Procs ProcSpec `json:"procs,omitempty"`
	// Elide runs with the entanglement barriers off (mpl.Unsafe) — the
	// whole-program analogue of the static-elision ablation, valid only
	// for disentangled benchmarks (the spec loader rejects it elsewhere).
	Elide *bool `json:"elide,omitempty"`
	// Repeats is the number of timed samples per cell (default 5);
	// Warmups run first, untimed (default 1; -1 means none).
	Repeats int `json:"repeats,omitempty"`
	Warmups int `json:"warmups,omitempty"`
	// Seed makes the runtime's scheduling decisions reproducible and is
	// surfaced in traced runs (trace.CtrGridSeed). Default 1.
	Seed int64 `json:"seed,omitempty"`
}

// ProcSpec is the worker-count sweep of one experiment. It unmarshals
// from either the string "sweep" (expanded to 1..cores at Expand time) or
// an array whose elements are integers or the string "cores".
type ProcSpec struct {
	Sweep bool
	List  []int // -1 encodes "cores" until expansion
}

// coresMarker stands for the host core count inside ProcSpec.List until
// Expand resolves it.
const coresMarker = -1

func (p *ProcSpec) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if s != "sweep" {
			return fmt.Errorf("procs: unknown keyword %q (want \"sweep\" or an array)", s)
		}
		p.Sweep = true
		return nil
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("procs: want \"sweep\" or an array of ints and \"cores\": %w", err)
	}
	for _, el := range raw {
		var n int
		if err := json.Unmarshal(el, &n); err == nil {
			p.List = append(p.List, n)
			continue
		}
		var kw string
		if err := json.Unmarshal(el, &kw); err != nil || kw != "cores" {
			return fmt.Errorf("procs: bad element %s (want an int or \"cores\")", el)
		}
		p.List = append(p.List, coresMarker)
	}
	return nil
}

func (p ProcSpec) MarshalJSON() ([]byte, error) {
	if p.Sweep {
		return json.Marshal("sweep")
	}
	out := make([]any, len(p.List))
	for i, n := range p.List {
		if n == coresMarker {
			out[i] = "cores"
		} else {
			out[i] = n
		}
	}
	return json.Marshal(out)
}

// expand resolves the sweep against the host core count, dedupes, and
// sorts ascending.
func (p ProcSpec) expand(cores int) []int {
	if cores < 1 {
		cores = 1
	}
	var ps []int
	if p.Sweep {
		for i := 1; i <= cores; i++ {
			ps = append(ps, i)
		}
	}
	for _, n := range p.List {
		if n == coresMarker {
			n = cores
		}
		ps = append(ps, n)
	}
	sort.Ints(ps)
	out := ps[:0]
	for i, n := range ps {
		if i == 0 || n != ps[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// Cell is one fully-resolved grid cell: an (experiment, P) pair with
// every knob concrete. A cell is the unit of subprocess execution — its
// JSON form is the wire format of mplgo-bench's grid-cell mode.
type Cell struct {
	ID      string `json:"id"` // e.g. "msort/p=2/elide=off"
	Label   string `json:"label"`
	Bench   string `json:"bench"`
	N       int    `json:"n"`
	Procs   int    `json:"procs"`
	Elide   bool   `json:"elide"`
	Repeats int    `json:"repeats"`
	Warmups int    `json:"warmups"`
	Seed    int64  `json:"seed"`
	// MeasureSeq adds the global-heap sequential baseline to the cell's
	// measurements (set on each group's P=1 cell — overhead needs it).
	MeasureSeq bool `json:"measure_seq,omitempty"`
	// TracePath, when set, adds one extra untimed traced run and writes
	// its Chrome export there, stamped with the cell-identity counters.
	TracePath string `json:"trace_path,omitempty"`
	// Attr, when set, adds one extra untimed run with the cost-attribution
	// profiler installed; the per-component decomposition rides in the
	// CellResult. The timed repeats never see the profiler.
	Attr bool `json:"attr,omitempty"`
}

// GroupKey identifies the cell's sweep group: all cells differing only in
// P. Speedup curves and bound calibration are per group.
func (c *Cell) GroupKey() string {
	return groupKey(c.Label, c.Elide)
}

func groupKey(label string, elide bool) string {
	return fmt.Sprintf("%s/elide=%s", label, onOff(elide))
}

// IDHash is the cell identity surfaced through trace rings (the value of
// the grid_cell counter event): a stable 64-bit FNV-1a of the cell ID.
func (c *Cell) IDHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.ID))
	return h.Sum64()
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// LoadSpec reads and validates a grid spec from path. Unknown keys are
// errors: a knob the grid no longer has must not be silently ignored.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *Spec) fill() {
	if s.StealCost <= 0 {
		s.StealCost = 200
	}
	if s.BrentC <= 0 {
		s.BrentC = 8
	}
	if s.BrentTolerance <= 0 {
		s.BrentTolerance = 0.25
	}
	if s.SimTolerance <= 0 {
		s.SimTolerance = 0.5
	}
	d := &s.Defaults
	if d.Repeats <= 0 {
		d.Repeats = 5
	}
	if d.Warmups == 0 {
		d.Warmups = 1 // explicit "no warmups" is spelled -1
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
}

// resolve overlays the spec defaults onto e and returns the concrete
// experiment.
func (s *Spec) resolve(e Experiment) Experiment {
	d := s.Defaults
	if e.Label == "" {
		e.Label = e.Bench
	}
	if e.Elide == nil {
		e.Elide = d.Elide
	}
	if e.Elide == nil {
		f := false
		e.Elide = &f
	}
	if e.Repeats <= 0 {
		e.Repeats = d.Repeats
	}
	if e.Warmups == 0 {
		e.Warmups = d.Warmups
	}
	if e.Warmups < 0 {
		e.Warmups = 0
	}
	if e.Seed == 0 {
		e.Seed = d.Seed
	}
	if !e.Procs.Sweep && len(e.Procs.List) == 0 {
		e.Procs = d.Procs
	}
	return e
}

// Validate checks the spec is executable: every experiment names a known
// benchmark, elision is only requested for
// disentangled benchmarks, and every sweep includes P=1 (the calibration
// point), with labels unique per (label, elide) group.
func (s *Spec) Validate() error {
	s.fill()
	if len(s.Experiments) == 0 {
		return fmt.Errorf("no experiments")
	}
	seen := map[string]bool{}
	for i, raw := range s.Experiments {
		e := s.resolve(raw)
		b, ok := bench.ByName(e.Bench)
		if !ok {
			return fmt.Errorf("experiment %d: unknown benchmark %q", i, e.Bench)
		}
		if *e.Elide && b.Entangled {
			return fmt.Errorf("experiment %d (%s): elide=true is unsound for entangled benchmark %q",
				i, e.Label, e.Bench)
		}
		ps := e.Procs.expand(1) // cores=1: the weakest expansion still needs P=1
		if len(ps) == 0 {
			return fmt.Errorf("experiment %d (%s): empty procs sweep", i, e.Label)
		}
		if ps[0] != 1 {
			return fmt.Errorf("experiment %d (%s): procs sweep must include 1 (got %v)", i, e.Label, ps)
		}
		for _, p := range ps {
			if p < 1 {
				return fmt.Errorf("experiment %d (%s): bad procs %d", i, e.Label, p)
			}
		}
		key := groupKey(e.Label, *e.Elide)
		if seen[key] {
			return fmt.Errorf("experiment %d: duplicate group %s (use label to distinguish)", i, key)
		}
		seen[key] = true
	}
	return nil
}

// Expand resolves the grid against a host core count and returns the
// concrete cells in execution order (experiment order, then ascending P).
func (s *Spec) Expand(cores int) []Cell {
	s.fill()
	var cells []Cell
	for _, raw := range s.Experiments {
		e := s.resolve(raw)
		n := e.N
		if n == 0 {
			if b, ok := bench.ByName(e.Bench); ok {
				n = b.DefaultN
			}
		}
		for _, p := range e.Procs.expand(cores) {
			c := Cell{
				Label:      e.Label,
				Bench:      e.Bench,
				N:          n,
				Procs:      p,
				Elide:      *e.Elide,
				Repeats:    e.Repeats,
				Warmups:    e.Warmups,
				Seed:       e.Seed,
				MeasureSeq: p == 1,
			}
			c.ID = fmt.Sprintf("%s/p=%d/elide=%s", e.Label, p, onOff(c.Elide))
			cells = append(cells, c)
		}
	}
	return cells
}
