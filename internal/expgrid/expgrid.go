// Package expgrid is the paper runner: a checked-in JSON spec declares a
// grid of benchmark measurements (benchmark × worker-count sweep ×
// barrier mode, with per-experiment repeats and warmups), the runner
// executes each cell in a fresh subprocess, and the results become one
// validated CSV per paper artifact (DESIGN.md §5) plus the simulator
// cross-validation report under scripts/paper/out/.
//
// Every cell records all repeat samples plus a host fingerprint. Each
// group's P=1 cell also measures the baselines (global-heap Tseq, native
// Go), replays its recorded DAG at every P of Ps (the simulated speedup
// curve, the residency model, T64) and runs the stop-the-world model.
// Every derived table passes a validator before it is written, and every
// measured T_P is checked against Brent's bound
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
	"mplgo/mpl"
)

// StealCost is the simulator's strand-migration latency in abstract work
// units (roughly: words of allocation).
const StealCost = 200

// Ps is the processor-count sweep of the replayed curves (F1's simulated
// speedup, F3's residency model, A6), up to the order of magnitude of the
// paper's 72-core testbed; its last entry is T3's T64.
var Ps = []int{1, 2, 4, 8, 16, 32, 64}

// nurseryWords is the per-processor uncollected allocation window the
// space model assumes (the runtime's default collection budget): each
// additional busy processor holds one such window.
const nurseryWords = 1 << 17

// stwBudget is the collection budget of both sides of the stop-the-world
// model: small, so that both runtimes actually collect.
const stwBudget = 1 << 14

// modes are the barrier modes of F2, by spec name.
var modes = map[string]mpl.Mode{"manage": mpl.Manage, "detect": mpl.Detect, "unsafe": mpl.Unsafe}

// Spec is the experiment grid, loaded from scripts/paper/experiments.json.
type Spec struct {
	Name string `json:"name"`
	// StealCost documents the simulator's strand-migration latency; the
	// replays use the constant StealCost, its default.
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
	// Mode is the barrier mode (F2): "manage" (the default), "detect"
	// (old MPL: an entangled program completes and is reported aborted,
	// DESIGN.md D4) or "unsafe" (no barriers — unsound on an entangled
	// benchmark, which the spec loader rejects).
	Mode string `json:"mode,omitempty"`
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
// JSON form is the wire format of mplgo-paper's -cell mode.
type Cell struct {
	ID      string `json:"id"` // e.g. "msort/p=2/mode=manage"
	Label   string `json:"label"`
	Bench   string `json:"bench"`
	N       int    `json:"n"`
	Procs   int    `json:"procs"`
	Mode    string `json:"mode"`
	Repeats int    `json:"repeats"`
	Warmups int    `json:"warmups"`
	Seed    int64  `json:"seed"`
	// TracePath, when set, adds one extra untimed traced run and writes
	// its Chrome export there, stamped with the cell-identity counters.
	TracePath string `json:"trace_path,omitempty"`
	// Attr, when set, adds attributed runs (warmed and repeated like the
	// timed ones) with the cost-attribution profiler installed; the
	// fastest one's decomposition rides in the CellResult and is stamped
	// into the trace export. The timed repeats never see the profiler.
	Attr bool `json:"attr,omitempty"`
}

// GroupKey identifies the cell's sweep group: all cells differing only in
// P. Speedup curves and bound calibration are per group.
func (c *Cell) GroupKey() string {
	return groupKey(c.Label, c.Mode)
}

func groupKey(label, mode string) string {
	return label + "/mode=" + mode
}

// IDHash is the cell identity surfaced through trace rings (the value of
// the grid_cell counter event): a stable 64-bit FNV-1a of the cell ID.
func (c *Cell) IDHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.ID))
	return h.Sum64()
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
		s.StealCost = StealCost
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
	if e.Mode == "" {
		e.Mode = d.Mode
	}
	if e.Mode == "" {
		e.Mode = "manage"
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
// benchmark and a known mode, unsafe only for disentangled benchmarks, and
// every sweep includes P=1 (the calibration point), with labels unique
// per (label, mode) group.
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
		if err := checkMode(e.Mode, b); err != nil {
			return fmt.Errorf("experiment %d (%s): %w", i, e.Label, err)
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
		key := groupKey(e.Label, e.Mode)
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
				Label:   e.Label,
				Bench:   e.Bench,
				N:       n,
				Procs:   p,
				Mode:    e.Mode,
				Repeats: e.Repeats,
				Warmups: e.Warmups,
				Seed:    e.Seed,
			}
			c.ID = fmt.Sprintf("%s/p=%d/mode=%s", e.Label, p, c.Mode)
			cells = append(cells, c)
		}
	}
	return cells
}

// checkMode rejects an unknown mode, and barriers off on a benchmark that
// entangles.
func checkMode(mode string, b bench.Benchmark) error {
	if _, ok := modes[mode]; !ok {
		return fmt.Errorf("unknown mode %q (want manage, detect or unsafe)", mode)
	}
	if mode == "unsafe" && b.Entangled {
		return fmt.Errorf("mode unsafe is unsound for entangled benchmark %q", b.Name)
	}
	return nil
}
