package core

import (
	"testing"

	"mplgo/internal/attr"
	"mplgo/internal/entangle"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// counts is every event total a runtime reports.
type counts struct {
	Ent      entangle.StatsSnapshot
	PinCAS   mem.PinCASSnapshot
	Elision  ElisionStats
	Ancestry int64
}

func countsOf(rt *Runtime) counts {
	return counts{rt.EntStats(), rt.PinCASStats(), rt.ElisionStats(), rt.Tree().Stats.AncestryQueries.Load()}
}

// TestCountsIndependentOfInstruments runs one entangled random program and
// one loop of unchecked accesses with no instruments, with a tracer, and with
// a tracer and an attribution profiler, and requires the same totals from
// all three: every count is on the leaves' tallies, whatever is installed.
func TestCountsIndependentOfInstruments(t *testing.T) {
	program := func(tk *Task) mem.Value {
		sum := randomProgram(7, 6, true)(tk).AsInt()
		r := tk.AllocRefFast(mem.Int(0))
		for i := 0; i < 500; i++ {
			tk.WriteFast(r, 0, mem.Int(tk.ReadFast(r, 0).AsInt()+1))
			r = tk.AllocRefFast(tk.ReadFast(r, 0))
		}
		return mem.Int(sum + tk.ReadFast(r, 0).AsInt())
	}
	var first counts
	for i, cfg := range []Config{
		{Procs: 1},
		{Procs: 1, Tracer: trace.NewTracer(1, 1<<10)},
		{Procs: 1, Tracer: trace.NewTracer(1, 1<<10), Attr: attr.NewProfiler(1, 0)},
	} {
		rt := New(cfg)
		if _, err := rt.Run(program); err != nil {
			t.Fatal(err)
		}
		c := countsOf(rt)
		if i == 0 {
			first = c
			if c.Ent.Pins == 0 || c.PinCAS.Attempts == 0 || c.Elision.ElidedLoads == 0 ||
				c.Elision.ElidedStores == 0 || c.Elision.ElidedAllocs == 0 || c.Ancestry == 0 {
				t.Fatalf("uninstrumented run counted nothing somewhere: %+v", c)
			}
		} else if c != first {
			t.Fatalf("instruments %d changed the counts:\n got  %+v\n want %+v", i, c, first)
		}
	}
}

// TestCollectionDrainsElisionCounts: a task's unchecked accesses reach
// ElisionStats at its next local collection, while it is still running.
func TestCollectionDrainsElisionCounts(t *testing.T) {
	const n = 100
	rt := New(Config{Procs: 1, HeapBudgetWords: 256})
	_, err := rt.Run(func(tk *Task) mem.Value {
		r := tk.AllocRef(mem.Int(0))
		for i := 0; i < n; i++ {
			tk.WriteFast(r, 0, mem.Int(tk.ReadFast(r, 0).AsInt()+1))
		}
		before, _, _ := rt.GCStats()
		for c := before; c == before; c, _, _ = rt.GCStats() {
			tk.AllocArray(16, mem.Nil)
		}
		if es := rt.ElisionStats(); es.ElidedLoads != n || es.ElidedStores != n {
			t.Errorf("after a collection, mid-task: %+v, want %d loads and stores", es, n)
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
