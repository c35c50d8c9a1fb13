package tables

import (
	"fmt"
	"io"
	"time"

	"mplgo/internal/mlang"
	"mplgo/mpl"
)

// The elision ablation: each mlang benchmark is run twice on one
// processor — checked (every access through the managed barriers) and
// elided (unchecked accessors wherever the disentanglement analysis proved
// safety) — and the table reports the wall-clock delta plus how much
// access traffic the analysis moved off the managed path. The entangled
// control (handoff) demonstrates the fallback boundary: its delta is ~1x
// and its entangled reads are identical in both modes.

// ElideRow is one row of the elision ablation.
type ElideRow struct {
	Name          string
	TChecked      time.Duration // managed barriers everywhere, P=1
	TElided       time.Duration // proven sites unchecked, P=1
	Ratio         float64       // TElided / TChecked
	StaticRegions int64
	ElidedLoads   int64
	ElidedStores  int64
	EntReads      int64 // entangled reads of the elided run
}

// Benchmark sources are embedded (scaled-up versions of
// examples/mlang/programs) so the table does not depend on repo-relative
// paths at run time.
var elideBenchmarks = []struct {
	name string
	src  string
}{
	// refloop is the access-dominated case: nearly every operation is a
	// barriered deref/assign, so it bounds the elision win from above.
	{"refloop", `
let val c = ref 0 in
let fun outer k =
  if k = 0 then !c
  else
    let fun go i =
      if i = 0 then ()
      else (c := !c + 1; go (i - 1))
    in (go 20000; outer (k - 1)) end
in outer 60 end end`},
	{"psum", `reduce (tabulate (300000, fn i => i * i), 0, fn a => fn b => a + b)`},
	{"sieve", `
let val n = 20000 in
let val composite = array (n, false) in
let fun markFrom p =
  let fun go k =
    if p * k >= n then ()
    else (update (composite, p * k, true); go (k + 1))
  in go 2 end in
let fun count i =
  if i >= n then 0
  else if not (sub (composite, i)) then (markFrom i; 1 + count (i + 1))
  else count (i + 1)
in count 2 end end end end`},
	{"histogram", `
let val n = 60000 in
let val bins = 8 in
let val h = tabulate (bins, fn b =>
  reduce (tabulate (n, fn i => if (i * i) mod bins = b then 1 else 0), 0,
          fn x => fn y => x + y)) in
reduce (tabulate (bins, fn b => sub (h, b) * (b + 1)), 0, fn x => fn y => x + y)
end end end`},
	{"handoff", `
let val cell = ref (ref 0) in
let val p = par (
    (cell := ref 41; 1),
    let fun poll u =
      let val v = ! (!cell) in
      if v = 41 then v + 1 else poll ()
      end
    in poll () end)
in #2 p end end`},
}

// elideReps mirrors timeReps' best-of-N discipline at a size that keeps
// the ablation quick: the ratio column divides two timings of the same
// program, so the minimum over a few runs is stable enough.
const elideReps = 5

// ElideTable measures the elision-on/off ablation and writes the table.
func ElideTable(w io.Writer) []ElideRow {
	var rows []ElideRow
	fmt.Fprintf(w, "# E: barrier elision — checked vs elided, P=1\n")
	fmt.Fprintf(w, "%-10s %10s %10s %7s %8s %11s %11s %9s\n",
		"benchmark", "Tchecked", "Telided", "ratio", "regions", "el.loads", "el.stores", "ent.reads")
	for _, b := range elideBenchmarks {
		var checked, elided time.Duration
		var last *mlang.Result
		var want string
		for r := 0; r < elideReps; r++ {
			start := time.Now()
			res, err := mlang.RunChecked(b.src, mpl.Config{Procs: 1})
			d := time.Since(start)
			if err != nil {
				fmt.Fprintf(w, "%-10s checked run failed: %v\n", b.name, err)
				return rows
			}
			if r == 0 {
				want = res.Rendered
				checked = d
			} else if d < checked {
				checked = d
			}
		}
		for r := 0; r < elideReps; r++ {
			start := time.Now()
			res, err := mlang.Run(b.src, mpl.Config{Procs: 1})
			d := time.Since(start)
			if err != nil {
				fmt.Fprintf(w, "%-10s elided run failed: %v\n", b.name, err)
				return rows
			}
			if res.Rendered != want {
				fmt.Fprintf(w, "%-10s MODE DIVERGENCE: checked %q, elided %q\n", b.name, want, res.Rendered)
				return rows
			}
			if r == 0 || d < elided {
				elided = d
			}
			last = res
		}
		es := last.Runtime.ElisionStats()
		row := ElideRow{
			Name: b.name, TChecked: checked, TElided: elided,
			Ratio:         ratio(elided, checked),
			StaticRegions: es.StaticRegions,
			ElidedLoads:   es.ElidedLoads,
			ElidedStores:  es.ElidedStores,
			EntReads:      last.Runtime.EntStats().EntangledReads,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %10s %10s %6.2fx %8d %11d %11d %9d\n",
			row.Name, fmtD(row.TChecked), fmtD(row.TElided), row.Ratio,
			row.StaticRegions, row.ElidedLoads, row.ElidedStores, row.EntReads)
	}
	return rows
}
