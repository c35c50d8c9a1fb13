// Command benchmark is the repository's benchmark: six workloads, the
// end-to-end numbers the paper's claims are made of (T1, Tbase, overhead,
// space) measured with tracing off, and a separate traced run that counts
// and times around the calls into each module. See README.md.
//
//	bash benchmark/run.sh --seed 1                       # all workloads, timed
//	bash benchmark/run.sh --seed 1 --trace 1             # all workloads, traced
//	bash benchmark/run.sh --workload dis --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object per workload run:
// correct, attempted, failed and the metrics by name. Any oracle violation
// makes the exit code non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type options struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	quick     bool
	outDir    string
	setupReps int // set-ups per run; setup_s is their median
	minRounds int // timed repeats per program, at least
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: dis, ent-reread, ent-publish, gc-churn, mlang, serve or all")
	seed := fs.Int64("seed", 1, "seed for every input the benchmark generates")
	seconds := fs.Float64("seconds", runSeconds, "how long one workload measures")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "sizes / 20 and three repeats: a smoke run, not a measurement")
	outDir := fs.String("out", "benchmark/out", "directory for the traced run's span files")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		fmt.Fprint(stdout, specJSON())
		return 0
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traced != 0,
		quick: *quick, outDir: *outDir, setupReps: 3, minRounds: 5}
	if o.quick {
		o.setupReps, o.minRounds = 1, 3
	}
	if o.trace {
		o.setupReps, o.minRounds = 1, 3
	}
	// Go's own collector stays out of the timed regions: every repeat starts
	// from an explicit runtime.GC() instead. Left on, its cycles and the
	// scavenger handing chunk memory back to the OS between repeats were a
	// quarter of ent-publish's T1 and moved with the state of the box.
	// The memory limit is the backstop: a run peaks near 1 GB.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(3 << 30))
	todo := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		todo = []workload{w}
	}
	code := 0
	for _, w := range todo {
		var rep *report
		switch {
		case w.programs == nil:
			rep = runServe(w, o)
		case o.trace:
			rep = traceBatch(w, o)
		default:
			rep = runBatch(w, o)
		}
		if !emit(rep, o, stdout, stderr) {
			code = 1
		}
	}
	return code
}

// emit prints the workload's table and, last, its JSON line. It reports
// whether every output was correct.
func emit(rep *report, o options, stdout, stderr io.Writer) bool {
	defs, mode := endToEnd, "timed"
	if o.trace {
		defs, mode = perLayer, "traced"
	}
	fmt.Fprintf(stdout, "# workload %s (%s) seed=%d seconds=%g quick=%v cores=%d GOMAXPROCS=%d GOGC=off(set here; env %q) %s\n",
		rep.workload, mode, o.seed, o.seconds.Seconds(), o.quick, runtime.NumCPU(), rep.gomaxprocs, os.Getenv("GOGC"), runtime.Version())
	for _, r := range rep.rows {
		fmt.Fprintln(stdout, r)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	fmt.Fprintf(stdout, "  %-34s %-9s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		s, ok := rep.metrics[d.Name]
		if !ok && !o.trace {
			rep.failed++
			out.Correct = false
			rep.notes = append(rep.notes, "metric not measured: "+d.Name)
		}
		for _, v := range []*float64{&s.Value, &s.Q1, &s.Q3} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				*v = 0
			}
		}
		fmt.Fprintf(stdout, "  %-34s %-9s %14.6g %14.6g %14.6g %6d\n", d.Name, d.Unit, s.Value, s.Q1, s.Q3, s.N)
		out.Metrics[d.Name] = value{s.Value, d.Unit}
	}
	out.Failed = rep.failed
	fmt.Fprintf(stdout, "  failed_share %d/%d\n", rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintln(stderr, "benchmark: FAILED:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return false
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return out.Correct
}
