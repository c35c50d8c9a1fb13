package expgrid

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestProcSpecUnmarshal(t *testing.T) {
	var p ProcSpec
	if err := json.Unmarshal([]byte(`"sweep"`), &p); err != nil || !p.Sweep {
		t.Fatalf("sweep: %+v, %v", p, err)
	}
	p = ProcSpec{}
	if err := json.Unmarshal([]byte(`[1, 4, "cores", 2]`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Sweep || !reflect.DeepEqual(p.List, []int{1, 4, coresMarker, 2}) {
		t.Fatalf("list: %+v", p)
	}
	for _, bad := range []string{`"swoop"`, `[1, "corse"]`, `[1.5]`, `{"a":1}`} {
		if err := json.Unmarshal([]byte(bad), &(ProcSpec{})); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestProcSpecRoundTrip(t *testing.T) {
	for _, src := range []string{`"sweep"`, `[1,2,"cores"]`} {
		var p ProcSpec
		if err := json.Unmarshal([]byte(src), &p); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var q ProcSpec
		if err := json.Unmarshal(out, &q); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%s: %+v != %+v after round trip", src, p, q)
		}
	}
}

func TestProcSpecExpand(t *testing.T) {
	cases := []struct {
		spec  ProcSpec
		cores int
		want  []int
	}{
		{ProcSpec{Sweep: true}, 4, []int{1, 2, 3, 4}},
		{ProcSpec{Sweep: true}, 0, []int{1}},                          // degenerate host still yields P=1
		{ProcSpec{List: []int{1, 2, coresMarker}}, 2, []int{1, 2}},    // "cores" dedupes into 2
		{ProcSpec{List: []int{4, 1, coresMarker}}, 8, []int{1, 4, 8}}, // sorted ascending
		{ProcSpec{Sweep: true, List: []int{8}}, 2, []int{1, 2, 8}},    // sweep + explicit extras
		{ProcSpec{List: []int{2, 2, 2}}, 1, []int{2}},                 // dedup
	}
	for i, c := range cases {
		if got := c.spec.expand(c.cores); !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: expand(%d) = %v, want %v", i, c.cores, got, c.want)
		}
	}
}

func specOf(t *testing.T, src string) (*Spec, error) {
	t.Helper()
	var s Spec
	if err := json.Unmarshal([]byte(src), &s); err != nil {
		t.Fatalf("bad test JSON: %v", err)
	}
	return &s, s.Validate()
}

func TestSpecValidate(t *testing.T) {
	if _, err := specOf(t, `{"experiments":[{"bench":"msort","procs":[1,2]}]}`); err != nil {
		t.Errorf("minimal valid spec rejected: %v", err)
	}
	cases := []struct{ src, want string }{
		{`{"experiments":[]}`, "no experiments"},
		{`{"experiments":[{"bench":"nosuch","procs":[1]}]}`, "unknown benchmark"},
		{`{"experiments":[{"bench":"dedup","procs":[1],"mode":"unsafe"}]}`, "unsound for entangled"},
		{`{"experiments":[{"bench":"msort","procs":[1],"mode":"off"}]}`, "unknown mode"},
		{`{"experiments":[{"bench":"msort","procs":[2,4]}]}`, "must include 1"},
		{`{"experiments":[{"bench":"msort","procs":[1]},{"bench":"msort","procs":[1,2]}]}`, "duplicate group"},
	}
	for _, c := range cases {
		_, err := specOf(t, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.src, err, c.want)
		}
	}
	// Same benchmark twice is fine when labels distinguish the groups.
	if _, err := specOf(t,
		`{"experiments":[{"bench":"msort","procs":[1]},{"bench":"msort","label":"ms2","procs":[1]}]}`); err != nil {
		t.Errorf("labeled duplicate rejected: %v", err)
	}
}

func TestSpecDefaultsFill(t *testing.T) {
	s, err := specOf(t, `{"defaults":{"repeats":7},"experiments":[{"bench":"msort","procs":[1]}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if s.BrentC != 8 || s.BrentTolerance != 0.25 || s.SimTolerance != 0.5 {
		t.Errorf("spec-level defaults: %+v", s)
	}
	cells := s.Expand(1)
	if len(cells) != 1 {
		t.Fatalf("cells: %v", cells)
	}
	c := cells[0]
	if c.Repeats != 7 || c.Warmups != 1 || c.Seed != 1 || c.Mode != "manage" {
		t.Errorf("resolved cell: %+v", c)
	}
	if c.N == 0 {
		t.Error("default problem size not filled from benchmark registry")
	}
}

func TestSpecExpandCells(t *testing.T) {
	s, err := specOf(t, `{"experiments":[
		{"bench":"msort","n":512,"procs":[1,2,"cores"]},
		{"bench":"dedup","n":256,"procs":[1]}]}`)
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Expand(4)
	if len(cells) != 4 { // msort {1,2,4} + dedup {1}
		t.Fatalf("got %d cells: %+v", len(cells), cells)
	}
	if cells[0].ID != "msort/p=1/mode=manage" {
		t.Errorf("ID: %q", cells[0].ID)
	}
	if cells[2].Procs != 4 {
		t.Errorf(`"cores" not resolved: %+v`, cells[2])
	}
	if cells[0].GroupKey() != cells[2].GroupKey() {
		t.Error("sweep cells must share a group key")
	}
	if cells[0].GroupKey() == cells[3].GroupKey() {
		t.Error("different benchmarks must not share a group key")
	}
	if cells[0].IDHash() == cells[1].IDHash() {
		t.Error("distinct cells hashed alike")
	}
}

// A spec naming a knob the grid does not have — including the ones it has
// dropped, such as elide, which mode replaced, and steal_cost, which no
// replay read — is rejected, not run with the knob silently ignored.
func TestLoadSpecRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	for key, src := range map[string]string{
		"ancestry":   `{"experiments":[{"bench":"msort","procs":[1],"ancestry":"orderlist"}]}`,
		"heap":       `{"defaults":{"heap":"lazy"},"experiments":[{"bench":"msort","procs":[1]}]}`,
		"elide":      `{"experiments":[{"bench":"msort","procs":[1],"elide":true}]}`,
		"steal_cost": `{"steal_cost":200,"experiments":[{"bench":"msort","procs":[1]}]}`,
	} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("unknown key %q accepted: %v", key, err)
		}
	}
	// Barriers off on an entangled benchmark is a load error too.
	src := `{"experiments":[{"bench":"pipeline","procs":[1],"mode":"unsafe"}]}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil || !strings.Contains(err.Error(), "unsound") {
		t.Errorf("unsafe on an entangled benchmark loaded: %v", err)
	}
}

// A spec file holds one spec: anything after it but white space — a
// second value, a half-written one, stray bytes — is a load error, not
// silently dropped. Trailing white space loads.
func TestLoadSpecRejectsTrailingData(t *testing.T) {
	const spec = `{"experiments":[{"bench":"msort","procs":[1]}]}`
	path := filepath.Join(t.TempDir(), "grid.json")
	for _, tail := range []string{` {"name": oops`, ` {}`, `]`, ` x`, `{"experiments":[]}`} {
		if err := os.WriteFile(path, []byte(spec+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpec(path); err == nil || !strings.Contains(err.Error(), "after the spec") {
			t.Errorf("spec followed by %q loaded: %v", tail, err)
		}
	}
	if err := os.WriteFile(path, []byte(spec+"\n\t \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err != nil {
		t.Errorf("spec followed by white space: %v", err)
	}
}

// The checked-in grids must stay loadable: they are the reproducibility
// contract of scripts/paper/out, of the CI paper job and of its trace and
// attribution exports.
func TestCheckedInSpecs(t *testing.T) {
	for _, name := range []string{"experiments.json", "experiments-ci.json"} {
		spec, err := LoadSpec(filepath.Join("../../scripts/paper", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// The acceptance bar: at least one disentangled and one entangled
		// sweep with more than one P point, so both speedup curves exist,
		// and every shape an artifact needs: an entangled benchmark under
		// manage and under detect, a disentangled one under unsafe, and
		// treesum for A6.
		kinds := map[bool]bool{}
		shapes := map[string]bool{}
		for _, e := range spec.Experiments {
			e = spec.resolve(e)
			if ps := e.Procs.expand(1); len(ps) > 1 {
				kinds[entangledOf(e.Bench)] = true
			}
			shapes[e.Mode+"/"+strconv.FormatBool(entangledOf(e.Bench))] = true
			shapes[e.Bench] = true
		}
		if !kinds[false] || !kinds[true] {
			t.Errorf("%s: want a multi-P sweep for a disentangled and an entangled benchmark, got %v",
				name, kinds)
		}
		for _, want := range []string{"manage/true", "detect/true", "unsafe/false", "treesum"} {
			if !shapes[want] {
				t.Errorf("%s: no %s experiment", name, want)
			}
		}
	}
	spec, err := LoadSpec("../../scripts/paper/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, c := range spec.Expand(1) {
		ids[c.ID] = true
	}
	for _, want := range []string{"pipeline/p=4/mode=manage", "counter/p=1/mode=manage"} {
		if !ids[want] {
			t.Errorf("trace.json: no cell %s (CI traces it)", want)
		}
	}
}
