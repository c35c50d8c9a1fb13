package core

import (
	"errors"
	"testing"

	"mplgo/internal/entangle"
	"mplgo/internal/mem"
	"mplgo/internal/sim"
)

func run1(t *testing.T, cfg Config, f func(*Task) mem.Value) mem.Value {
	t.Helper()
	rt := New(cfg)
	v, err := rt.Run(f)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

func TestRunTrivial(t *testing.T) {
	v := run1(t, Config{}, func(tk *Task) mem.Value { return mem.Int(7) })
	if v.AsInt() != 7 {
		t.Fatalf("got %v", v)
	}
}

func TestAllocReadWrite(t *testing.T) {
	run1(t, Config{}, func(tk *Task) mem.Value {
		tup := tk.AllocTuple(mem.Int(1), mem.Int(2))
		if tk.Read(tup, 0).AsInt() != 1 || tk.Read(tup, 1).AsInt() != 2 {
			t.Error("tuple fields wrong")
		}
		arr := tk.AllocArray(3, mem.Int(0))
		tk.Write(arr, 2, mem.Int(9))
		if tk.Read(arr, 2).AsInt() != 9 || tk.Read(arr, 0).AsInt() != 0 {
			t.Error("array access wrong")
		}
		cell := tk.AllocRef(tup.Value())
		if tk.Deref(cell).Ref() != tup {
			t.Error("ref cell wrong")
		}
		tk.Assign(cell, mem.Int(5))
		if tk.Deref(cell).AsInt() != 5 {
			t.Error("assign failed")
		}
		if tk.Length(arr) != 3 || tk.Length(tup) != 2 {
			t.Error("Length wrong")
		}
		s := tk.AllocString("hello")
		if tk.StringOf(s) != "hello" {
			t.Error("string roundtrip failed")
		}
		return mem.Nil
	})
}

func fib(tk *Task, n int64) int64 {
	if n < 2 {
		tk.Work(1)
		return n
	}
	a, b := tk.Par(
		func(tk *Task) mem.Value { return mem.Int(fib(tk, n-1)) },
		func(tk *Task) mem.Value { return mem.Int(fib(tk, n-2)) },
	)
	return a.AsInt() + b.AsInt()
}

func TestParFib(t *testing.T) {
	for _, cfg := range []Config{
		{Procs: 1},
		{Procs: 4},
		{Procs: 2, Mode: entangle.Unsafe},
	} {
		v := run1(t, cfg, func(tk *Task) mem.Value { return mem.Int(fib(tk, 15)) })
		if v.AsInt() != 610 {
			t.Fatalf("cfg %+v: fib(15) = %d", cfg, v.AsInt())
		}
	}
}

func TestForceHeapsCreatesHeaps(t *testing.T) {
	rt := New(Config{Procs: 1})
	_, err := rt.Run(func(tk *Task) mem.Value { return mem.Int(fib(tk, 10)) })
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tree().Count() < 10 {
		t.Fatalf("fork-time heaps missing: %d", rt.Tree().Count())
	}
}

func TestParFor(t *testing.T) {
	run1(t, Config{Procs: 4}, func(tk *Task) mem.Value {
		arr := tk.AllocArray(1000, mem.Int(0))
		f := tk.NewFrame(1)
		f.Set(0, arr.Value())
		tk.ParFor(0, 1000, 16, func(tk *Task, lo, hi int) {
			for i := lo; i < hi; i++ {
				tk.Write(f.Ref(0), i, mem.Int(int64(i*i)))
			}
		})
		a := f.Ref(0)
		for i := 0; i < 1000; i++ {
			if tk.Read(a, i).AsInt() != int64(i*i) {
				t.Fatalf("slot %d wrong", i)
			}
		}
		f.Pop()
		return mem.Nil
	})
}

func TestGCWithFrames(t *testing.T) {
	// A tiny budget forces many collections while a list is built; the
	// frame keeps the head alive and updated.
	rt := New(Config{Procs: 1, HeapBudgetWords: 512})
	_, err := rt.Run(func(tk *Task) mem.Value {
		f := tk.NewFrame(1)
		const n = 2000
		for i := 0; i < n; i++ {
			head := tk.AllocTuple(mem.Int(int64(i)), f.Get(0))
			f.Set(0, head.Value())
			// garbage
			tk.AllocArray(16, mem.Int(1))
		}
		// Verify the list.
		cur := f.Get(0)
		for i := n - 1; i >= 0; i-- {
			if got := tk.Read(cur.Ref(), 0).AsInt(); got != int64(i) {
				t.Fatalf("list[%d] = %d after GCs", i, got)
			}
			cur = tk.Read(cur.Ref(), 1)
		}
		if !cur.IsNil() {
			t.Fatal("list tail not nil")
		}
		f.Pop()
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, _, _ := rt.GCStats(); c == 0 {
		t.Fatal("expected collections with a 512-word budget")
	}
}

func TestEntanglementEndToEnd(t *testing.T) {
	rt := New(Config{Procs: 1}) // deterministic: left runs before right
	v, err := rt.Run(func(tk *Task) mem.Value {
		shared := tk.AllocArray(1, mem.Nil)
		_, rv := tk.Par(
			func(l *Task) mem.Value {
				x := l.AllocTuple(mem.Int(42))
				l.Write(shared, 0, x.Value()) // down-pointer into l's heap
				return mem.Nil
			},
			func(r *Task) mem.Value {
				v := r.Read(shared, 0) // entangled read of l's object
				if !v.IsRef() {
					t.Error("right did not see left's write")
					return mem.Nil
				}
				return r.Read(v.Ref(), 0) // read through the entangled object
			},
		)
		// The root task's own slow read (disentangled: the join brought the
		// object onto its path). No join ever drains the root heap's tally;
		// the end of the task does.
		if v := tk.Read(shared, 0); !v.IsRef() {
			t.Error("root lost the published object")
		}
		return rv
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 42 {
		t.Fatalf("entangled read returned %v", v)
	}
	want := entangle.StatsSnapshot{
		SlowReads: 2, EntangledReads: 1, DownPointers: 1, Candidates: 2,
		Pins: 1, Unpins: 1, PinnedPeak: 1, PinnedPeakBytes: 16,
	}
	if s := rt.EntStats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

func TestEntanglementSurvivesOwnerGC(t *testing.T) {
	// Left writes a down-pointer, then allocates enough garbage to force
	// collections of its own heap; the remembered set must keep the target
	// alive and the holder field updated, so right still reads 42.
	rt := New(Config{Procs: 1, HeapBudgetWords: 256})
	v, err := rt.Run(func(tk *Task) mem.Value {
		shared := tk.AllocArray(1, mem.Nil)
		_, rv := tk.Par(
			func(l *Task) mem.Value {
				x := l.AllocTuple(mem.Int(42))
				l.Write(shared, 0, x.Value())
				for i := 0; i < 200; i++ {
					l.AllocArray(32, mem.Int(0)) // force GCs
				}
				return mem.Nil
			},
			func(r *Task) mem.Value {
				v := r.Read(shared, 0)
				if !v.IsRef() {
					t.Error("lost the down-pointer")
					return mem.Nil
				}
				return r.Read(v.Ref(), 0)
			},
		)
		return rv
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 42 {
		t.Fatalf("read %v after owner GCs", v)
	}
	if c, _, _ := rt.GCStats(); c == 0 {
		t.Fatal("expected collections")
	}
}

func TestDetectModeReportsEntanglement(t *testing.T) {
	rt := New(Config{Procs: 1, Mode: entangle.Detect})
	_, err := rt.Run(func(tk *Task) mem.Value {
		shared := tk.AllocArray(1, mem.Nil)
		tk.Par(
			func(l *Task) mem.Value {
				l.Write(shared, 0, l.AllocTuple(mem.Int(1)).Value())
				return mem.Nil
			},
			func(r *Task) mem.Value { return r.Read(shared, 0) },
		)
		return mem.Nil
	})
	if !errors.Is(err, entangle.ErrEntangled) {
		t.Fatalf("err = %v, want ErrEntangled", err)
	}
}

func TestDetectModeCleanProgram(t *testing.T) {
	rt := New(Config{Procs: 2, Mode: entangle.Detect})
	v, err := rt.Run(func(tk *Task) mem.Value { return mem.Int(fib(tk, 12)) })
	if err != nil {
		t.Fatalf("disentangled program reported entanglement: %v", err)
	}
	if v.AsInt() != 144 {
		t.Fatal("wrong result")
	}
}

func TestCAS(t *testing.T) {
	run1(t, Config{}, func(tk *Task) mem.Value {
		cell := tk.AllocRef(mem.Int(1))
		if !tk.CAS(cell, 0, mem.Int(1), mem.Int(2)) {
			t.Error("CAS with correct old must succeed")
		}
		if tk.CAS(cell, 0, mem.Int(1), mem.Int(3)) {
			t.Error("CAS with stale old must fail")
		}
		if tk.Deref(cell).AsInt() != 2 {
			t.Error("CAS result wrong")
		}
		return mem.Nil
	})
}

func TestRecordingAndReplay(t *testing.T) {
	rt := New(Config{Procs: 1, Record: true})
	_, err := rt.Run(func(tk *Task) mem.Value { return mem.Int(fib(tk, 14)) })
	if err != nil {
		t.Fatal(err)
	}
	trace := rt.Trace()
	if trace == nil {
		t.Fatal("no trace recorded")
	}
	w, s := trace.WorkSpan()
	if w <= 0 || s <= 0 || s > w {
		t.Fatalf("W=%d S=%d", w, s)
	}
	if trace.CountForks() == 0 {
		t.Fatal("no forks recorded")
	}
	t1 := sim.Replay(trace, sim.ReplayConfig{P: 1, StealCost: 10}).Makespan
	t8 := sim.Replay(trace, sim.ReplayConfig{P: 8, StealCost: 10}).Makespan
	if t1 != w {
		t.Fatalf("T1=%d != W=%d", t1, w)
	}
	if float64(t1)/float64(t8) < 3 {
		t.Fatalf("fib trace should speed up: T1=%d T8=%d", t1, t8)
	}
}

func TestFrameDiscipline(t *testing.T) {
	run1(t, Config{}, func(tk *Task) mem.Value {
		f1 := tk.NewFrame(1)
		f2 := tk.NewFrame(2)
		f2.Pop()
		f1.Pop()

		f := tk.NewFrame(1)
		defer func() {
			if recover() == nil {
				t.Error("non-LIFO pop must panic")
			}
		}()
		_ = tk.NewFrame(1) // left unpopped
		f.Pop()            // out of order
		return mem.Nil
	})
}

func TestFrameBounds(t *testing.T) {
	run1(t, Config{}, func(tk *Task) mem.Value {
		f := tk.NewFrame(1)
		defer f.Pop()
		defer func() {
			if recover() == nil {
				t.Error("out-of-range Set must panic")
			}
		}()
		f.Set(1, mem.Nil)
		return mem.Nil
	})
}

func TestStressParallelWithEffects(t *testing.T) {
	// Many tasks hammer a shared concurrent counter array (entangled
	// reads and writes) while also allocating; exercises barriers, GC and
	// pinning under real parallelism.
	rt := New(Config{Procs: 4, HeapBudgetWords: 4096})
	v, err := rt.Run(func(tk *Task) mem.Value {
		counters := tk.AllocArray(8, mem.Int(0))
		tk.ParFor(0, 64, 1, func(tk *Task, lo, hi int) {
			for i := lo; i < hi; i++ {
				slot := i % 8
				for {
					old := tk.Read(counters, slot)
					if tk.CAS(counters, slot, old, mem.Int(old.AsInt()+1)) {
						break
					}
				}
				tk.AllocArray(64, mem.Int(int64(i))) // allocation pressure
			}
		})
		var sum int64
		for i := 0; i < 8; i++ {
			sum += tk.Read(counters, i).AsInt()
		}
		return mem.Int(sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 64 {
		t.Fatalf("lost updates: sum = %d, want 64", v.AsInt())
	}
}
