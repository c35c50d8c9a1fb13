package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mplgo/internal/core"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// runSmall runs a tiny fork–join workload so the counters are non-trivial.
func runSmall(t *testing.T) *core.Runtime {
	t.Helper()
	rt := core.New(core.Config{Procs: 2})
	_, err := rt.Run(func(tk *core.Task) mem.Value {
		var fib func(t *core.Task, n int) mem.Value
		fib = func(t *core.Task, n int) mem.Value {
			if n < 2 {
				return mem.Int(int64(n))
			}
			a, b := t.Par(
				func(t *core.Task) mem.Value { return fib(t, n-1) },
				func(t *core.Task) mem.Value { return fib(t, n-2) },
			)
			return mem.Int(a.AsInt() + b.AsInt())
		}
		return fib(tk, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	rt := runSmall(t)
	mux := http.NewServeMux()
	Register(mux, rt)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, body, ct := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE mplgo_steals_total counter",
		"mplgo_live_words ",
		"mplgo_gc_collections_total ",
		"mplgo_ent_pinned_peak_bytes ",
		"mplgo_cgc_cycles_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// fib's branches return immediates, so every one of its heaps drops.
	if n := rt.Tree().Stats.Load(trace.HeapsDropped); n == 0 || !strings.Contains(body, fmt.Sprintf("mplgo_heaps_dropped_total %d\n", n)) {
		t.Fatalf("metrics do not report the %d dropped heaps:\n%s", n, body)
	}
	// Every line must be a comment or "name value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden pins the runtime's /metrics exposition — every metric's
// name, # HELP and # TYPE line, in order — with each value masked, so a
// renamed, reordered or dropped metric fails here. Regenerate with -update.
func TestMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, runSmall(t)); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			line = name + " N\n"
		}
		got.WriteString(line)
	}
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("/metrics drifted from %s; rerun with -update and review the diff\n got:\n%s", golden, got.String())
	}
}

// TestEveryCountReachesItsSurfaces sets each tally row to a value of its
// own, drains, and follows every row to its total, its /metrics line (rows
// with help text) and its trace track (traced rows), so a row added to
// trace.Counts is covered with no edit here.
func TestEveryCountReachesItsSurfaces(t *testing.T) {
	rt := core.New(core.Config{Procs: 1})
	value := func(c int) int64 { return 1000 + int64(c) }
	root := rt.Tree().Root()
	for c := range root.Tally {
		root.Tally[c] = value(c)
	}
	rt.Tree().Stats.Drain(&root.Tally)
	if root.Tally != (hierarchy.Tally{}) {
		t.Fatalf("the drain left %v on the tally", root.Tally)
	}

	var body bytes.Buffer
	if err := WriteMetrics(&body, rt); err != nil {
		t.Fatal(err)
	}
	tracer := trace.NewTracer(1, 1<<8)
	trace.Enable()
	rt.Tree().Stats.Emit(tracer.Ring(0), 0)
	trace.Disable()
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, tracer); err != nil {
		t.Fatal(err)
	}
	s, err := trace.Summarize(&chrome)
	if err != nil {
		t.Fatal(err)
	}

	for c, row := range trace.Counts {
		want := value(c)
		if got := rt.Tree().Stats.Load(trace.Count(c)); got != want {
			t.Errorf("%s: total %d, want %d", row.Name, got, want)
		}
		line := fmt.Sprintf("_%s_total %d\n", row.Name, want)
		if got := strings.Contains(body.String(), line); got != (row.Help != "") {
			t.Errorf("%s: /metrics has %q: %v, want %v", row.Name, line, got, row.Help != "")
		}
		got, ok := s.CounterMax[trace.Count(c).Counter()]
		if ok != row.Traced || ok && got != uint64(want) {
			t.Errorf("%s: trace track %d (present %v), want %d (traced %v)", row.Name, got, ok, want, row.Traced)
		}
	}
}

func TestHeapTreeEndpoint(t *testing.T) {
	rt := runSmall(t)
	mux := http.NewServeMux()
	Register(mux, rt)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, body, ct := get(t, srv, "/debug/heaptree")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var d hierarchy.TreeDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("heaptree JSON: %v\n%s", err, body)
	}
	if d.LiveHeaps < 1 || len(d.Heaps) != d.LiveHeaps || d.Pinned != rt.EntStats().PinnedNow {
		t.Fatalf("heaptree dump %+v, pin gauge %d", d, rt.EntStats().PinnedNow)
	}

	_, dot, dotCT := get(t, srv, "/debug/heaptree?format=dot")
	if !strings.HasPrefix(dotCT, "text/vnd.graphviz") {
		t.Fatalf("dot content type %q", dotCT)
	}
	if !strings.HasPrefix(dot, "digraph heaps {") {
		t.Fatalf("dot output:\n%s", dot)
	}
}
