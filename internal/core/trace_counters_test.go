package core

import (
	"bytes"
	"testing"

	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// TestAncestryCountersReachTrace runs an entangled workload with tracing on
// and checks the ancestry-oracle counters flow end to end: join/LGC sites
// sample Tree.Stats into counter events, and the Chrome export + summary
// surface them by name.
func TestAncestryCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(4, 1<<14)
	rt := New(Config{Procs: 4, HeapBudgetWords: 2048, Tracer: tracer})
	trace.Enable()
	_, err := rt.Run(randomProgram(11, 6, true))
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if rt.tree.Stats.AncestryQueries.Load() == 0 {
		t.Fatal("entangled run consulted no ancestry oracle")
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if max, ok := s.CounterMax[trace.CtrAncestryQueries]; !ok || max == 0 {
		t.Fatalf("ancestry_queries missing from trace summary: %v", s.CounterMax)
	}
}

// TestElisionCountersReachTrace drives the unchecked accessors under a
// small budget with tracing on and checks the elision counters flow end
// to end: the leaves' tallies drain into the runtime totals, collection
// sites sample them into counter events, and the summary surfaces them by
// name alongside ancestry_queries.
func TestElisionCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(2, 1<<14)
	rt := New(Config{Procs: 1, HeapBudgetWords: 512, Tracer: tracer})
	rt.SetStaticRegions(3)
	trace.Enable()
	_, err := rt.Run(func(tk *Task) mem.Value {
		r := tk.AllocRefFast(mem.Int(0))
		for i := 0; i < 2000; i++ {
			tk.WriteFast(r, 0, mem.Int(tk.ReadFast(r, 0).AsInt()+1))
			r = tk.AllocRefFast(tk.ReadFast(r, 0))
		}
		return tk.ReadFast(r, 0)
	})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	es := rt.ElisionStats()
	if es.StaticRegions != 3 || es.ElidedLoads == 0 || es.ElidedStores == 0 || es.ElidedAllocs == 0 {
		t.Fatalf("elision totals not accumulated: %+v", es)
	}
	if s := rt.EntStats(); s.SlowReads != 0 {
		t.Fatalf("unchecked accessors entered the slow path %d times", s.SlowReads)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []trace.Counter{trace.CtrStaticRegions, trace.CtrElidedLoads, trace.CtrElidedStores} {
		if max, ok := s.CounterMax[c]; !ok || max == 0 {
			t.Fatalf("%v missing from trace summary: %v", c, s.CounterMax)
		}
	}
}

// TestEntangledSeedsAgreeAcrossProcs runs the entangled stress workload for
// each seed on four workers and checks results and pin accounting agree with
// a sequential baseline.
func TestEntangledSeedsAgreeAcrossProcs(t *testing.T) {
	for _, seed := range []uint64{5, 17} {
		prog := randomProgram(seed, 6, true)
		var want int64
		{
			rt := New(Config{Procs: 1})
			v, err := rt.Run(prog)
			if err != nil {
				t.Fatalf("seed %d: baseline: %v", seed, err)
			}
			want = v.AsInt()
		}
		rt := New(Config{Procs: 4, HeapBudgetWords: 2048})
		v, err := rt.Run(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.AsInt() != want {
			t.Fatalf("seed %d: result %d, want %d", seed, v.AsInt(), want)
		}
		if s := rt.EntStats(); s.Pins != s.Unpins {
			t.Fatalf("seed %d: pins %d != unpins %d", seed, s.Pins, s.Unpins)
		}
	}
}
