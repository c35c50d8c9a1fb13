package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mplgo/internal/core"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
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
	if n := rt.Tree().Stats.HeapsDropped.Load(); n == 0 || !strings.Contains(body, fmt.Sprintf("mplgo_heaps_dropped_total %d\n", n)) {
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
	if d.LiveHeaps < 1 || len(d.Heaps) != d.LiveHeaps {
		t.Fatalf("heaptree dump %+v", d)
	}

	_, dot, dotCT := get(t, srv, "/debug/heaptree?format=dot")
	if !strings.HasPrefix(dotCT, "text/vnd.graphviz") {
		t.Fatalf("dot content type %q", dotCT)
	}
	if !strings.HasPrefix(dot, "digraph heaps {") {
		t.Fatalf("dot output:\n%s", dot)
	}
}
