// Package telemetry exposes a runtime's live counters and heap hierarchy
// over HTTP, for watching an entangled workload from the outside while it
// runs. Everything served here reads only atomic snapshots (the Stats
// counters, Space gauges, and hierarchy.DumpTree), so scraping a runtime
// under full parallel load is safe and nearly free — no locks are taken on
// any mutator path.
//
// The format of /metrics is the Prometheus text exposition format, written
// by hand to keep the runtime dependency-free; /debug/heaptree serves the
// hierarchy.DumpTree snapshot as JSON, or DOT with ?format=dot;
// /debug/attr serves the live cost-attribution snapshot as JSON.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"mplgo/internal/attr"
	"mplgo/internal/core"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Source is an application-side metrics provider: a host package (the
// admission controller in internal/serve, a cache, a custom workload)
// appends its own gauges and counters to the /metrics exposition next to
// the runtime's. Implementations must read only atomic snapshots — the
// handler runs while the workload is under full load.
type Source interface {
	// AppendMetrics calls emit once per metric, with the Prometheus metric
	// name (conventionally mplgo_-prefixed), the help line, the type
	// ("counter" or "gauge"), and the current value.
	AppendMetrics(emit func(name, help, typ string, val int64))
}

// metric is one exported gauge or counter.
type metric struct {
	name string
	help string
	typ  string // "counter" or "gauge"
	val  int64
}

// collect snapshots every exported metric from the runtime's accessors.
// The event counts come from the table (trace.Counts): each row with help
// text is the counter mplgo_<prefix><name>_total, the tree's beside the
// collector's totals and the barriers' beside the pin gauge.
func collect(rt *core.Runtime) []metric {
	es := rt.EntStats()
	collections, copied, reclaimed := rt.GCStats()
	cycles, freed, swept, cgcRetained, lastLive := rt.CGCStats()
	sp := rt.Space()
	counts := func(ms []metric, layer, prefix string) []metric {
		for c, row := range trace.Counts {
			if row.Layer == layer && row.Help != "" {
				ms = append(ms, metric{"mplgo_" + prefix + row.Name + "_total", row.Help, "counter", rt.Tree().Stats.Load(trace.Count(c))})
			}
		}
		return ms
	}
	ms := []metric{
		{"mplgo_steals_total", "Work-stealing deque steals", "counter", rt.Steals()},
		{"mplgo_live_words", "Words in live chunks", "gauge", sp.LiveWords()},
		{"mplgo_max_live_words", "High-water mark of live words", "gauge", sp.MaxLiveWords()},
		{"mplgo_total_alloc_words", "Cumulative words handed to allocators", "counter", sp.TotalAllocWords()},
		{"mplgo_gc_collections_total", "Local (LGC) collections", "counter", collections},
		{"mplgo_gc_copied_words_total", "Words copied by local collections", "counter", copied},
		{"mplgo_gc_reclaimed_words_total", "Words reclaimed by local collections", "counter", reclaimed},
		{"mplgo_gc_retained_chunks_total", "Chunks retained for pinned objects by LGC", "counter", rt.RetainedChunks()},
	}
	ms = counts(ms, "hierarchy", "")
	ms = append(ms, []metric{
		{"mplgo_cgc_cycles_total", "Concurrent collection cycles completed", "counter", cycles},
		{"mplgo_cgc_freed_words_total", "Words reclaimed in place by CGC sweeps", "counter", freed},
		{"mplgo_cgc_swept_chunks_total", "Chunks released whole by CGC sweeps", "counter", swept},
		{"mplgo_cgc_retained_chunks_total", "Chunks retained with live or pinned objects by CGC", "counter", cgcRetained},
		{"mplgo_cgc_last_live_words", "Live words observed by the last CGC sweep", "gauge", lastLive},
	}...)
	ms = counts(ms, "entangle", "ent_")
	return append(ms, []metric{
		{"mplgo_ent_unpins_total", "Objects unpinned", "counter", es.Unpins},
		{"mplgo_ent_pinned_now", "Currently pinned objects", "gauge", es.PinnedNow},
		{"mplgo_ent_pinned_peak", "High-water mark of pinned objects", "gauge", es.PinnedPeak},
		{"mplgo_ent_pinned_peak_bytes", "High-water mark of pinned bytes", "gauge", es.PinnedPeakBytes},
	}...)
}

// WriteMetrics writes the Prometheus text exposition of the runtime's
// counters, followed by any additional sources' metrics.
func WriteMetrics(w io.Writer, rt *core.Runtime, srcs ...Source) error {
	ms := collect(rt)
	for _, s := range srcs {
		s.AppendMetrics(func(name, help, typ string, val int64) {
			ms = append(ms, metric{name, help, typ, val})
		})
	}
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.typ, m.name, m.val); err != nil {
			return err
		}
	}
	return nil
}

// Metrics returns the /metrics handler.
func Metrics(rt *core.Runtime, srcs ...Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteMetrics(w, rt, srcs...)
	})
}

// Attr returns the /debug/attr handler: a live JSON snapshot of the
// runtime's cost-attribution profiler (per-component samples, sampled
// ns, estimated total ns, and log2-ns histograms) plus the pin-CAS
// outcome counters. Reading it while the workload runs is safe — the
// snapshot is the read side of the attr package's single-writer
// discipline, all atomic loads. A runtime with no profiler installed
// serves {"attr": null, ...}.
func Attr(rt *core.Runtime) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = json.NewEncoder(w).Encode(struct {
			Attr    *attr.Snapshot     `json:"attr"`
			Enabled bool               `json:"enabled"`
			PinCAS  mem.PinCASSnapshot `json:"pin_cas"`
		}{
			Attr:    rt.AttrProfiler().Snapshot(),
			Enabled: attr.Enabled(),
			PinCAS:  rt.PinCASStats(),
		})
	})
}

// HeapTree returns the /debug/heaptree handler: a point-in-time dump of
// the live heap hierarchy, JSON by default, Graphviz with ?format=dot. The
// tree's pinned total is the pin gauge, which is exact and only loads.
func HeapTree(rt *core.Runtime) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := rt.Tree().DumpTree(rt.Space())
		d.Pinned = rt.EntStats().PinnedNow
		if r.URL.Query().Get("format") == "dot" {
			w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
			_ = d.WriteDOT(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = d.WriteJSON(w)
	})
}

// Register wires the telemetry handlers into mux under their conventional
// paths.
func Register(mux *http.ServeMux, rt *core.Runtime) {
	RegisterSources(mux, rt)
}

// RegisterSources is Register with additional application metric sources
// merged into the /metrics exposition (e.g. internal/serve's admission
// counters next to the runtime's GC and entanglement counters).
func RegisterSources(mux *http.ServeMux, rt *core.Runtime, srcs ...Source) {
	mux.Handle("/metrics", Metrics(rt, srcs...))
	mux.Handle("/debug/attr", Attr(rt))
	mux.Handle("/debug/heaptree", HeapTree(rt))
}

// RegisterPprof mounts the standard net/http/pprof handlers under
// /debug/pprof/ on mux. Split out of Register because pprof exposes
// goroutine dumps and CPU profiling endpoints a production mux may not
// want; servers that do want them (examples/server) call this instead of
// hand-rolling the four handler registrations pprof needs on a non-default
// mux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
