// Command mplgo-paper is the paper runner: it reads a checked-in grid
// spec (scripts/paper/experiments.json), executes every cell — benchmark
// × worker sweep × barrier mode (manage, detect, unsafe), with warmups and
// repeats — in a fresh subprocess of itself, and writes into the output
// directory one validated CSV per paper artifact (DESIGN.md §5 names
// them: speedup_curves, lang, entangle, ablate, space_curves, stw), the
// raw samples.csv, summary_grouped.csv and overhead.csv, the
// cross-validation report crossval.csv/.txt, the raw results.json and
// the host.json fingerprint.
//
// Every table passes a validator before it is written, and the run exits
// nonzero on any Brent-bound violation: W/effP ≤ T_P ≤ W/effP + c·S must
// hold for every cell, with W and S from the deterministic trace replay
// and effP = min(P, host cores).
//
// Usage:
//
//	mplgo-paper -grid scripts/paper/experiments.json [-out scripts/paper/out]
//	            [-inprocess] [-trace-cells] [-attr-cells] [-list]
//	mplgo-paper -cell <file>   # one cell: Cell JSON in, CellResult JSON on stdout
//
// With -trace-cells -attr-cells each cell's Chrome export under
// <out>/traces/ carries its attributed decomposition for mplgo-trace -attr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"mplgo/internal/expgrid"
)

func main() {
	grid := flag.String("grid", "scripts/paper/experiments.json", "experiment grid spec")
	out := flag.String("out", "scripts/paper/out", "output directory")
	inprocess := flag.Bool("inprocess", false,
		"run cells in this process instead of subprocesses (loses isolation; for quick looks)")
	traceCells := flag.Bool("trace-cells", false,
		"write one Chrome trace per cell into <out>/traces/, stamped with the cell identity")
	attrCells := flag.Bool("attr-cells", false,
		"add attributed runs per cell; the slow-path cost decomposition rides in results.json and the cell's trace")
	list := flag.Bool("list", false, "print the expanded cells and exit without running")
	cores := flag.Int("cores", 0, "override the host core count for sweep expansion (0 = detect)")
	cell := flag.String("cell", "", "run the Cell JSON in this file and print its CellResult JSON (a grid run's subprocess)")
	flag.Parse()

	if *cell != "" {
		if err := runCell(*cell); err != nil {
			fatal("cell: %v", err)
		}
		return
	}

	spec, err := expgrid.LoadSpec(*grid)
	if err != nil {
		fatal("loading grid: %v", err)
	}

	r := &expgrid.Runner{Spec: spec, Progress: os.Stderr, Cores: *cores}
	if !*inprocess {
		exe, err := os.Executable()
		if err != nil {
			fatal("%v", err)
		}
		r.CellCmd = []string{exe}
	}
	if *traceCells {
		r.TraceDir = filepath.Join(*out, "traces")
		if err := os.MkdirAll(r.TraceDir, 0o755); err != nil {
			fatal("%v", err)
		}
	}
	r.Attr = *attrCells

	if *list {
		n := *cores
		if n <= 0 {
			n = runtime.NumCPU()
		}
		for _, c := range spec.Expand(n) {
			fmt.Printf("%s  (n=%d repeats=%d warmups=%d seed=%d)\n",
				c.ID, c.N, c.Repeats, c.Warmups, c.Seed)
		}
		return
	}

	rep, err := r.Run()
	if err != nil {
		fatal("grid run: %v", err)
	}
	if err := rep.WriteOutputs(*out); err != nil {
		fatal("writing outputs: %v", err)
	}
	fmt.Fprintf(os.Stderr, "# wrote %s\n", *out)
	for _, w := range append(rep.SimFlags, rep.ChecksumWarnings...) {
		fmt.Fprintf(os.Stderr, "# warn: %s\n", w)
	}
	if err := rep.Err(); err != nil {
		for _, v := range rep.BrentViolations {
			fmt.Fprintf(os.Stderr, "# BRENT: %s\n", v)
		}
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "# cross-validation: all %d cells within Brent's bound\n",
		len(rep.CrossVal))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mplgo-paper: "+format+"\n", args...)
	os.Exit(1)
}

// runCell executes one grid cell: Cell JSON in, CellResult JSON out on
// stdout, and nothing else on stdout.
func runCell(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var c expgrid.Cell
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("bad cell JSON: %w", err)
	}
	res, err := expgrid.ExecuteCell(c)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
