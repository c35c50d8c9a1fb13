// Command mplgo runs programs in the mlang Parallel-ML-family language on
// the hierarchical runtime with entanglement management.
//
// Usage:
//
//	mplgo [flags] program.mpl
//	mplgo [flags] -e 'par (1 + 1, 2 + 2)'
//
// Flags:
//
//	-e expr       evaluate an expression instead of a file
//	-procs N      scheduler workers (default 1)
//	-mode M       entanglement mode: manage (default), detect, unsafe
//	-stats        print runtime statistics (GC, entanglement) to stderr
//	-dis          print the lowered tree to stderr before running: every
//	              function direct or heap, every access site fast or checked
//	-dis-report   print per-site disentanglement verdicts to stderr
//	-elide=false  disable static barrier elision (checked build)
package main

import (
	"flag"
	"fmt"
	"os"

	"mplgo/internal/mlang"
	"mplgo/internal/trace"
	"mplgo/mpl"
)

func main() {
	expr := flag.String("e", "", "expression to evaluate")
	procs := flag.Int("procs", 1, "scheduler workers")
	modeName := flag.String("mode", "manage", "entanglement mode: manage|detect|unsafe")
	stats := flag.Bool("stats", false, "print runtime statistics")
	dis := flag.Bool("dis", false, "print the lowered tree (functions direct/heap, sites fast/checked)")
	disReport := flag.Bool("dis-report", false, "print per-site disentanglement verdicts")
	elide := flag.Bool("elide", true, "compile with static barrier elision")
	flag.Parse()

	var src string
	switch {
	case *expr != "":
		src = *expr
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: mplgo [flags] program.mpl | mplgo -e expr")
		os.Exit(2)
	}

	var mode mpl.Mode
	switch *modeName {
	case "manage":
		mode = mpl.Manage
	case "detect":
		mode = mpl.Detect
	case "unsafe":
		mode = mpl.Unsafe
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeName)
		os.Exit(2)
	}

	if *disReport {
		ast, err := mlang.Parse(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		an, err := mlang.Analyze(ast)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprint(os.Stderr, an.Report())
	}

	if *dis {
		ast, err := mlang.Parse(src)
		if err == nil {
			var an *mlang.Analysis
			if *elide {
				an, _ = mlang.Analyze(ast)
			}
			if prog, err := mlang.CompileWith(ast, an); err == nil {
				fmt.Fprint(os.Stderr, prog.Listing())
			}
		}
	}

	runner := mlang.Run
	if !*elide {
		runner = mlang.RunChecked
	}
	res, err := runner(src, mpl.Config{Procs: *procs, Mode: mode})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(res.Output)
	fmt.Printf("val it = %s : %s\n", res.Rendered, res.Type)

	if *stats {
		rt := res.Runtime
		fmt.Fprintf(os.Stderr, "heaps: %d  steals: %d\n", rt.Tree().Count(), rt.Steals())
		fmt.Fprintf(os.Stderr, "pinned: peak %d  static regions: %d\n",
			rt.EntStats().PinnedPeak, rt.ElisionStats().StaticRegions)
		// Every event count, one line per layer, in first-row order.
		var layers []string
		lines := map[string]string{}
		for c, row := range trace.Counts {
			if _, ok := lines[row.Layer]; !ok {
				layers = append(layers, row.Layer)
			}
			lines[row.Layer] += fmt.Sprintf(" %s %d", row.Name, rt.Tree().Stats.Load(trace.Count(c)))
		}
		for _, layer := range layers {
			fmt.Fprintf(os.Stderr, "%s:%s\n", layer, lines[layer])
		}
	}
}
