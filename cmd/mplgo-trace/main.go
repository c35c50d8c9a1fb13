// Command mplgo-trace summarizes a Chrome trace_event JSON file produced
// by the runtime's tracer (mplgo-paper -trace-cells, or mpl.WriteChrome):
// event totals per kind, steal and entangled-read rates, a pin-lifetime
// histogram, and per-phase LGC/CGC latency statistics.
//
// Usage:
//
//	mplgo-trace trace.json
//	mplgo-trace -attr trace.json
//	mplgo-paper -grid scripts/paper/trace.json -out out -trace-cells -attr-cells
//	mplgo-trace -attr "out/traces/counter_p=1_mode=manage.trace.json"
//
// With -attr the tool instead prints the sampled cost-attribution
// decomposition (component × samples / estimated total ns / share of
// the recorded T1−Tseq gap) recovered from attr_* counters, and exits
// nonzero when the trace carries none.
//
// The exit status doubles as a validator: a file that is not a valid
// trace_event export of this runtime (missing traceEvents, events without
// the raw-record args, unknown event kinds) exits nonzero, which is what
// the CI trace job asserts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mplgo/internal/trace"
)

func main() {
	attrOnly := flag.Bool("attr", false,
		"print the cost-attribution report (component × samples/est ns/% of T1−Tseq gap) instead of the summary")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mplgo-trace [-attr] <trace.json|->\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	path := flag.Arg(0)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mplgo-trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	s, err := trace.Summarize(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mplgo-trace: invalid trace %s: %v\n", path, err)
		os.Exit(1)
	}
	if *attrOnly {
		if !s.FormatAttr(os.Stdout) {
			fmt.Fprintf(os.Stderr, "mplgo-trace: %s carries no attribution counters (run with attribution enabled)\n", path)
			os.Exit(1)
		}
		return
	}
	s.Format(os.Stdout)
}
