package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// TestAncestryCountersReachTrace runs an entangled workload with tracing on
// and checks the ancestry-oracle count flows end to end: join/LGC sites
// sample the tree's totals into counter events, and the Chrome export +
// summary surface it by name.
func TestAncestryCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(4, 1<<14)
	rt := New(Config{Procs: 4, HeapBudgetWords: 2048, Tracer: tracer})
	trace.Enable()
	_, err := rt.Run(randomProgram(11, 6, true))
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if rt.tree.Stats.Load(trace.AncestryQueries) == 0 {
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
	if max, ok := s.CounterMax[trace.AncestryQueries.Counter()]; !ok || max == 0 {
		t.Fatalf("ancestry_queries missing from trace summary: %v", s.CounterMax)
	}
}

// TestElisionCountersReachTrace drives the unchecked accessors under a
// small budget with tracing on and checks the elision counts flow end to
// end: the leaves' tallies drain into the runtime totals, collection sites
// sample them into counter events, and the summary surfaces them by name,
// and no unchecked access enters the read barrier's slow path.
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
	for _, c := range []trace.Counter{trace.CtrStaticRegions, trace.ElidedLoads.Counter(), trace.ElidedStores.Counter()} {
		if max, ok := s.CounterMax[c]; !ok || max == 0 {
			t.Fatalf("%v missing from trace summary: %v", c, s.CounterMax)
		}
	}
}

// TestTracedCountsReachTrace runs, with tracing on, a workload that moves
// every traced count (trace.Counts) — an entangled random program, a
// collection of a heap holding a pinned object and a live one in a chunk
// without a pin, unchecked accesses, and branches whose heaps drop — and
// checks each reaches the trace end to end: the collection and join sites
// sample its total into a counter track, and the summary reports it by
// name, never above the total. A row marked traced later is checked here
// too.
func TestTracedCountsReachTrace(t *testing.T) {
	tracer := trace.NewTracer(4, 1<<14)
	rt := New(Config{Procs: 4, HeapBudgetWords: 2048, Tracer: tracer})
	rt.SetStaticRegions(3)
	trace.Enable()
	_, err := rt.Run(func(tk *Task) mem.Value {
		randomProgram(11, 6, true)(tk)
		// The left branch publishes X in the root's cell and collects, with X
		// and Z framed, once the right branch, stolen, has pinned X: X's
		// chunk is retained, and Z, too large to share that chunk (the first
		// chunk of a heap is the smallest class), is copied.
		pinned := make(chan struct{})
		f := tk.NewFrame(1)
		f.Set(0, tk.AllocRef(mem.Nil).Value())
		tk.Par(
			func(t *Task) mem.Value {
				lf := t.NewFrame(2)
				defer lf.Pop()
				lf.Set(0, t.AllocTuple(mem.Int(1)).Value())
				lf.Set(1, t.AllocArray(mem.MinChunkWords, mem.Int(2)).Value())
				t.Write(f.Ref(0), 0, lf.Get(0))
				select {
				case <-pinned:
				case <-time.After(10 * time.Second):
				}
				churn(t, 1000)
				return mem.Nil
			},
			func(t *Task) mem.Value {
				for !t.Read(f.Ref(0), 0).IsRef() {
					runtime.Gosched()
				}
				close(pinned)
				return mem.Nil
			},
		)
		f.Pop()
		r := tk.AllocRefFast(mem.Int(0))
		for i := 0; i < 2000; i++ {
			tk.WriteFast(r, 0, mem.Int(tk.ReadFast(r, 0).AsInt()+1))
			r = tk.AllocRefFast(tk.ReadFast(r, 0))
		}
		var rec func(t *Task, d int) mem.Value
		rec = func(t *Task, d int) mem.Value {
			if d == 0 {
				churn(t, 100)
				return mem.Int(1)
			}
			t.Par(
				func(t *Task) mem.Value { return rec(t, d-1) },
				func(t *Task) mem.Value { return rec(t, d-1) },
			)
			return mem.Int(0)
		}
		return rec(tk, 3)
	})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for c, row := range trace.Counts {
		if !row.Traced {
			continue
		}
		total := rt.tree.Stats.Load(trace.Count(c))
		max, ok := s.CounterMax[trace.Count(c).Counter()]
		if total == 0 || !ok || max == 0 || int64(max) > total {
			t.Errorf("%s: drained total %d, trace maximum %d (present %v)", row.Name, total, max, ok)
		}
	}
	if got := s.CounterMax[trace.CtrStaticRegions]; got != 3 {
		t.Errorf("static_regions in the trace = %d, want 3", got)
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
