package tables_test

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"mplgo/internal/expgrid"
	"mplgo/internal/tables"
)

// The paper's artifact tables (F1, T3, T4, F3, A6) as one in-process
// grid run of tiny sizes builds them. Each group runs at P=1, the cell
// that carries its baselines and replayed curves; msort and dedup also
// run at P=2, so F1 has measured rows beside replayed ones and T4 sees
// an entangled benchmark at P>1. msort and treesum run at sizes where
// both of A6's runtimes collect.
const artifactSpec = `{"defaults":{"repeats":1,"warmups":-1,"procs":[1]},"experiments":[
	{"bench":"fib","n":18},
	{"bench":"primes","n":4000},
	{"bench":"mcss","n":10000},
	{"bench":"msort","n":12000,"procs":[1,2]},
	{"bench":"dedup","n":3000,"procs":[1,2]},
	{"bench":"bfs","n":3000},
	{"bench":"pipeline","n":3000},
	{"bench":"counter","n":2000},
	{"bench":"treesum","n":13}]}`

var (
	artifactOnce sync.Once
	artifactRep  *expgrid.Report
	artifactErr  error
)

func artifactReport(t *testing.T) *expgrid.Report {
	t.Helper()
	artifactOnce.Do(func() {
		var spec expgrid.Spec
		if artifactErr = json.Unmarshal([]byte(artifactSpec), &spec); artifactErr != nil {
			return
		}
		if artifactErr = spec.Validate(); artifactErr != nil {
			return
		}
		artifactRep, artifactErr = (&expgrid.Runner{Spec: &spec}).Run()
	})
	if artifactErr != nil {
		t.Fatal(artifactErr)
	}
	return artifactRep
}

// artifact builds one table of the tiny run and checks it passes its
// own validator.
func artifact(t *testing.T, build func(*expgrid.Report) *tables.Table, validate func(*tables.Table) error) *tables.Table {
	t.Helper()
	tab := build(artifactReport(t))
	if err := validate(tab); err != nil {
		t.Fatal(err)
	}
	return tab
}

// byGroup indexes a table's rows by its group column.
func byGroup(tab *tables.Table) map[string][]int {
	out := map[string][]int{}
	for i, row := range tab.Rows {
		g := row[tab.Col("group")]
		out[g] = append(out[g], i)
	}
	return out
}

func num(t *testing.T, tab *tables.Table, i int, col string) float64 {
	t.Helper()
	v, err := tab.Float(i, col)
	if err != nil {
		t.Fatalf("table %s: row %d: %v", tab.Name, i, err)
	}
	return v
}

// F1: every scalable benchmark's replayed speedup is 1 at P=1 and has
// materialized by P=64, even at tiny sizes; every measured P=1 row reads
// a speedup of 1.
func TestSpeedupFigure(t *testing.T) {
	tab := artifact(t, expgrid.SpeedupTable, expgrid.ValidateSpeedupTable)
	groups := byGroup(tab)
	for _, name := range []string{"fib", "msort", "primes", "mcss", "dedup", "bfs"} {
		rows := groups[name+"/mode=manage"]
		if len(rows) != len(expgrid.Ps) {
			t.Fatalf("%s: %d curve points, want %d", name, len(rows), len(expgrid.Ps))
		}
		first, last := rows[0], rows[len(rows)-1]
		if p := num(t, tab, first, "procs"); p != 1 {
			t.Fatalf("%s: curve starts at P=%v", name, p)
		}
		if s := num(t, tab, first, "sim_speedup"); math.Abs(s-1) > 0.01 {
			t.Errorf("%s: replayed speedup at P=1 is %.3f", name, s)
		}
		if s := num(t, tab, first, "speedup"); math.Abs(s-1) > 0.01 {
			t.Errorf("%s: measured speedup at P=1 is %.3f", name, s)
		}
		if s := num(t, tab, last, "sim_speedup"); s < 1.5 {
			t.Errorf("%s: no speedup by P=64 (%.2f)", name, s)
		}
	}
	// msort's P=2 cell is a measured row; P=4 is replayed only.
	for _, i := range groups["msort/mode=manage"] {
		p, measured := num(t, tab, i, "procs"), tab.Rows[i][tab.Col("measured")]
		if want := p <= 2; (measured == "true") != want {
			t.Errorf("msort P=%v: measured %s", p, measured)
		}
	}
}

// T3: per benchmark, the hierarchical runtime's T1 and simulated T64
// beside native Go and the global-heap Tseq, every time and ratio
// positive.
func TestLangTable(t *testing.T) {
	tab := artifact(t, expgrid.LangTable, expgrid.ValidateLangTable)
	groups := byGroup(tab)
	for _, name := range []string{"fib", "primes", "msort", "mcss", "dedup", "bfs"} {
		rows := groups[name+"/mode=manage"]
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want T1 and T64", name, len(rows))
		}
		for k, i := range rows {
			if sim, want := tab.Rows[i][tab.Col("simulated")], k == 1; (sim == "true") != want {
				t.Errorf("%s row %d: simulated %s", name, k, sim)
			}
			for _, col := range []string{"native_min_ns", "tseq_min_ns", "t_ns", "vs_native"} {
				if v := num(t, tab, i, col); v <= 0 {
					t.Errorf("%s row %d: %s = %v", name, k, col, v)
				}
			}
		}
		if t1, t64 := num(t, tab, rows[0], "t_ns"), num(t, tab, rows[1], "t_ns"); t64 >= t1 {
			t.Errorf("%s: simulated T64 %v not below T1 %v", name, t64, t1)
		}
	}
}

// T4: an entangled benchmark pins, and every pin is unpinned once all
// joins complete (entanglement cost is transient, the paper's bound); a
// disentangled benchmark pays nothing (shielding).
func TestEntangleTable(t *testing.T) {
	tab := artifact(t, expgrid.EntangleTable, expgrid.ValidateEntangleTable)
	if len(tab.Rows) != len(artifactReport(t).Results) {
		t.Fatalf("%d rows for %d cells", len(tab.Rows), len(artifactReport(t).Results))
	}
	entangled := 0
	for i, row := range tab.Rows {
		pins, unpins := num(t, tab, i, "pins"), num(t, tab, i, "unpins")
		if pins != unpins {
			t.Errorf("%s: pins %v != unpins %v", row[0], pins, unpins)
		}
		if row[tab.Col("entangled")] == "true" {
			entangled++
			if pins == 0 || num(t, tab, i, "entangled_reads") == 0 {
				t.Errorf("%s: entangled benchmark shows no entanglement: %v", row[0], row)
			}
			continue
		}
		for _, col := range []string{"entangled_reads", "entangled_writes", "pins", "down_pointers"} {
			if v := num(t, tab, i, col); v != 0 {
				t.Errorf("%s: disentangled benchmark has %s = %v", row[0], col, v)
			}
		}
	}
	if entangled == 0 {
		t.Fatal("no entangled cell in the run")
	}
}

// F3: the modeled residency of every curve is R1 at P=1 and never
// shrinks as processors are added.
func TestSpaceFigure(t *testing.T) {
	tab := artifact(t, expgrid.SpaceTable, expgrid.ValidateSpaceTable)
	groups := byGroup(tab)
	for _, name := range []string{"msort", "mcss", "dedup", "pipeline"} {
		rows := groups[name+"/mode=manage"]
		if len(rows) != len(expgrid.Ps) {
			t.Fatalf("%s: %d curve points, want %d", name, len(rows), len(expgrid.Ps))
		}
		if r1 := num(t, tab, rows[0], "r1_words"); r1 <= 0 {
			t.Errorf("%s: R1 = %v", name, r1)
		}
		for k := 1; k < len(rows); k++ {
			if num(t, tab, rows[k], "residency_words") < num(t, tab, rows[k-1], "residency_words") {
				t.Errorf("%s: residency decreased with processors at P=%v",
					name, num(t, tab, rows[k], "procs"))
			}
		}
	}
}

// A6: on allocation-heavy benchmarks, where both runtimes collect, the
// hierarchical runtime, whose collections parallelize, beats the
// stop-the-world one by P=16.
func TestSTWTable(t *testing.T) {
	tab := artifact(t, expgrid.STWTable, expgrid.ValidateSTWTable)
	groups := byGroup(tab)
	for _, name := range []string{"msort", "treesum"} {
		rows := groups[name+"/mode=manage"]
		if len(rows) != len(expgrid.Ps) {
			t.Fatalf("%s: %d curve points, want %d", name, len(rows), len(expgrid.Ps))
		}
		if gc := num(t, tab, rows[0], "gc_units"); gc <= 0 {
			t.Errorf("%s: no collection work", name)
		}
		crossover := num(t, tab, rows[0], "crossover_p")
		if crossover == 0 || crossover > 16 {
			t.Errorf("%s: crossover at P=%v", name, crossover)
		}
		for _, i := range rows {
			if p := num(t, tab, i, "procs"); p >= crossover && num(t, tab, i, "mpl_units") >= num(t, tab, i, "stw_units") {
				t.Errorf("%s: stop-the-world wins again at P=%v", name, p)
			}
		}
	}
}
