package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRings is a small fixed trace: two worker rings and a collector
// ring exercising every exporter shape — instants, B/E duration pairs
// (LGC on a worker, a full CGC cycle on the collector), and counter
// samples.
func goldenRings() [][]Event {
	w0 := []Event{
		{TS: 1000, Kind: EvFork, Worker: 0, Depth: 0, Arg1: 2, Arg2: 3},
		{TS: 2000, Kind: EvPin, Worker: 0, Depth: 1, Arg1: 0xbeef, Arg2: 1},
		{TS: 5000, Kind: EvLGCBegin, Worker: 0, Depth: 1, Arg1: 2},
		{TS: 9000, Kind: EvLGCEnd, Worker: 0, Depth: 1, Arg1: 128, Arg2: 64},
		{TS: 9100, Kind: EvCounter, Worker: 0, Depth: 1, Arg1: uint64(GCRetainedChunks.Counter()), Arg2: 2},
		{TS: 12000, Kind: EvUnpin, Worker: 0, Depth: 0, Arg1: 0xbeef},
		{TS: 13000, Kind: EvJoin, Worker: 0, Depth: 0, Arg1: 1},
	}
	w1 := []Event{
		{TS: 1500, Kind: EvSteal, Worker: 1, Depth: 0, Arg1: 0},
		{TS: 2500, Kind: EvSlowRead, Worker: 1, Depth: 1, Arg1: 0xbeef},
		{TS: 2600, Kind: EvEntangledRead, Worker: 1, Depth: 1, Arg1: 0xbeef, Arg2: 1},
		{TS: 3000, Kind: EvCounter, Worker: 1, Arg1: uint64(CtrPinnedBytes), Arg2: 4096},
		{TS: 11000, Kind: EvCounter, Worker: 1, Arg1: uint64(CtrPinnedBytes), Arg2: 1024},
	}
	col := []Event{
		{TS: 4000, Kind: EvCGCCycleBegin, Worker: 2, Arg1: 3},
		{TS: 4100, Kind: EvCGCMarkBegin, Worker: 2},
		{TS: 6100, Kind: EvCGCMarkEnd, Worker: 2, Arg1: 42},
		{TS: 6200, Kind: EvCGCSweepBegin, Worker: 2},
		{TS: 7200, Kind: EvCGCSweepEnd, Worker: 2, Arg1: 5, Arg2: 2},
		{TS: 7300, Kind: EvCGCCycleEnd, Worker: 2, Arg1: 512},
	}
	return [][]Event{w0, w1, col}
}

func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeEvents(&buf, goldenRings(), 2); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output drifted from golden file; rerun with -update and review the diff\n got: %s", buf.Bytes())
	}
}

// TestChromeStructure checks the output is well-formed trace_event JSON:
// the object form with a traceEvents array whose entries all carry a
// legal ph, and whose B/E events pair up per track.
func TestChromeStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeEvents(&buf, goldenRings(), 2); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if tf.TraceEvents == nil {
		t.Fatal("no traceEvents array")
	}
	names := 0
	depth := make(map[int]int) // B/E nesting per tid
	for _, e := range tf.TraceEvents {
		switch e.Ph {
		case "M":
			names++
			if e.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %q", e.Name)
			}
		case "B":
			depth[e.TID]++
		case "E":
			depth[e.TID]--
			if depth[e.TID] < 0 {
				t.Fatalf("E without B on tid %d", e.TID)
			}
		case "i":
			if e.Args["kind"] == nil {
				t.Fatalf("instant %q missing raw ring record", e.Name)
			}
		case "C":
			if e.Args["value"] == nil {
				t.Fatalf("counter %q missing value", e.Name)
			}
		default:
			t.Fatalf("illegal ph %q", e.Ph)
		}
	}
	if names != 3 {
		t.Fatalf("got %d thread_name rows, want 3", names)
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("tid %d has %d unclosed B events", tid, d)
		}
	}
}

// TestExportSummarizeRoundTrip feeds the exported JSON back through the
// summarizer and checks the derived numbers against the fixture.
func TestExportSummarizeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeEvents(&buf, goldenRings(), 2); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 18 {
		t.Fatalf("Events = %d, want 18", s.Events)
	}
	if s.Forks != 1 || s.Steals != 1 || s.SlowReads != 1 || s.EntangledReads != 1 {
		t.Fatalf("rates miscounted: %+v", s)
	}
	if s.Pins != 1 || s.Unpins != 1 || s.UnmatchedPins != 0 {
		t.Fatalf("pin matching: pins=%d unpins=%d unmatched=%d", s.Pins, s.Unpins, s.UnmatchedPins)
	}
	// The fixture's one pin lives 10µs: bucket bits.Len64(10000) = 14.
	if s.PinLifetimes[14] != 1 {
		t.Fatalf("pin lifetime histogram: %v", s.PinLifetimes)
	}
	if s.LGC.Count != 1 || s.LGC.Total != 4*time.Microsecond {
		t.Fatalf("LGC stats: %+v", s.LGC)
	}
	if s.CGCCycle.Count != 1 || s.CGCMark.Count != 1 || s.CGCSweep.Count != 1 {
		t.Fatalf("CGC stats: cycle=%+v mark=%+v sweep=%+v", s.CGCCycle, s.CGCMark, s.CGCSweep)
	}
	if s.CounterMax[CtrPinnedBytes] != 4096 || s.CounterMax[GCRetainedChunks.Counter()] != 2 {
		t.Fatalf("counter maxima: %v", s.CounterMax)
	}
	if s.Span != time.Duration(12000) {
		t.Fatalf("span = %v", s.Span)
	}
	var report bytes.Buffer
	s.Format(&report)
	for _, want := range []string{"steals:", "entangled reads:", "pin lifetime histogram", "LGC:", "counter maxima:"} {
		if !bytes.Contains(report.Bytes(), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, report.String())
		}
	}
}

// TestCounterMaximaByName: the report lists counter maxima in name order,
// whatever order the counter ids are declared in.
func TestCounterMaximaByName(t *testing.T) {
	s := &Summary{CounterMax: map[Counter]uint64{
		CtrRequestsShed:            1,
		CtrRequestsAdmitted:        2,
		AncestryQueries.Counter():  3,
		ElidedStores.Counter():     4,
		CtrLiveWords:               5,
		CtrAttrBudgetPollN:         6, // attr_* counters are reported apart
		HeapsDropped.Counter():     7,
		GCRetainedChunks.Counter(): 8,
	}}
	var report bytes.Buffer
	s.Format(&report)
	_, list, ok := strings.Cut(report.String(), "counter maxima:\n")
	if !ok {
		t.Fatalf("report has no counter maxima:\n%s", report.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"ancestry_queries", "elided_stores", "gc_retained_chunks", "heaps_dropped",
		"live_words", "requests_admitted", "requests_shed"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("counter maxima order %v, want %v", names, want)
	}
}

// TestSummarizeRejectsGarbage: the summarizer doubles as the CI trace
// validator, so malformed inputs must error, not zero out.
func TestSummarizeRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		``,
		`not json`,
		`{}`,
		`{"traceEvents":[{"name":"x","ph":"i","ts":1}]}`,
		`{"traceEvents":[{"name":"x","ph":"i","ts":1,"args":{"kind":"no_such_kind"}}]}`,
	} {
		if _, err := Summarize(bytes.NewReader([]byte(in))); err == nil {
			t.Fatalf("Summarize accepted %q", in)
		}
	}
}

// scriptRings decodes ops into the rings of a two-worker tracer and its
// collector ring, four bytes per event: the ring, the kind, the time since
// the ring's last event (2^(b%40) ns, so pin lifetimes reach past the
// histogram's last bucket) and an argument. Pins and unpins name one of
// four refs, so some match; counter events name a valid counter, which is
// all the exporter's counter tracks carry by name.
func scriptRings(ops []byte) [][]Event {
	rings := make([][]Event, 3)
	var ts [3]int64
	for i := 0; i+3 < len(ops); i += 4 {
		r := int(ops[i]) % len(rings)
		k := Kind(1 + int(ops[i+1])%(int(evKinds)-1))
		ts[r] += 1 << (ops[i+2] % 40)
		e := Event{TS: ts[r], Kind: k, Worker: int32(r), Depth: int32(ops[i+3] % 8), Arg1: uint64(ops[i+3] % 4), Arg2: uint64(ops[i+3])}
		if k == EvCounter {
			e.Arg1 = uint64(Counter(ops[i+3]) % ctrCounters)
			e.Arg2 = uint64(ops[i+2]) << 8
		}
		rings[r] = append(rings[r], e)
	}
	return rings
}

// FuzzSummarize: Summarize reads files from outside the process, so any
// bytes end in an error or a summary that formats, never a panic. The same
// bytes, read as a script of ring events, export to a file that summarizes
// to what the events say.
func FuzzSummarize(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "chrome_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, in := range []string{``, `not json`, `{}`, `{"traceEvents":[{"name":"x","ph":"i","ts":1,"args":{"kind":"no_such_kind"}}]}`} {
		f.Add([]byte(in))
	}
	f.Add([]byte{ // fork, steal, pin, slow and entangled read, unpin 2^35 ns on, counter, LGC
		0, 0, 3, 0, 1, 2, 4, 0, 0, 13, 5, 1, 1, 11, 6, 1, 1, 12, 7, 1,
		0, 14, 35, 5, 2, 18, 8, 40, 0, 3, 9, 0, 0, 4, 10, 0,
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		if s, err := Summarize(bytes.NewReader(in)); err == nil {
			s.Format(io.Discard)
			s.FormatAttr(io.Discard)
		}

		rings := scriptRings(in)
		var buf bytes.Buffer
		if err := writeChromeEvents(&buf, rings, 2); err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(&buf)
		if err != nil {
			t.Fatalf("the export of %v does not summarize: %v", rings, err)
		}
		want := Summary{ByKind: map[Kind]int{}, CounterMax: map[Counter]uint64{}}
		var lo, hi int64
		for _, evs := range rings {
			if len(evs) > 0 {
				want.Workers++
			}
			for _, e := range evs {
				if want.Events == 0 || e.TS < lo {
					lo = e.TS
				}
				if want.Events == 0 || e.TS > hi {
					hi = e.TS
				}
				want.Events++
				want.ByKind[e.Kind]++
				switch e.Kind {
				case EvFork:
					want.Forks++
				case EvSteal:
					want.Steals++
				case EvSlowRead:
					want.SlowReads++
				case EvEntangledRead:
					want.EntangledReads++
				case EvPin:
					want.Pins++
				case EvUnpin:
					want.Unpins++
				case EvCounter:
					if c := Counter(e.Arg1); e.Arg2 > want.CounterMax[c] {
						want.CounterMax[c] = e.Arg2
					}
				}
			}
		}
		want.Span = time.Duration(hi - lo)
		if s.Events != want.Events || s.Workers != want.Workers || s.Span != want.Span ||
			s.Forks != want.Forks || s.Steals != want.Steals || s.SlowReads != want.SlowReads ||
			s.EntangledReads != want.EntangledReads || s.Pins != want.Pins || s.Unpins != want.Unpins ||
			!maps.Equal(s.ByKind, want.ByKind) || !maps.Equal(s.CounterMax, want.CounterMax) {
			t.Fatalf("summary of the export\n got %+v\nwant %+v", *s, want)
		}
	})
}
