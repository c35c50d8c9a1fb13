package core

import (
	"testing"

	"mplgo/internal/entangle"
	"mplgo/internal/mem"
	"mplgo/internal/workload"
)

// The stress tests generate random fork–join programs with shared-state
// effects and check the runtime's global invariants across configurations:
//
//   - results are deterministic (the programs are written to be
//     schedule-independent) across processor counts and GC budgets;
//   - every pin is released by the time all joins complete
//     (pins == unpins, PinnedNow == 0): entanglement cost is transient;
//   - the space high-water mark stays bounded under tiny GC budgets.

// randomProgram builds a deterministic random computation: a fork tree of
// the given depth whose leaves mix allocation, task-local mutation, and
// (when shared is true) CAS publication + reads through a shared array.
// The result is an order-independent checksum.
func randomProgram(seed uint64, depth int, shared bool) func(t *Task) mem.Value {
	return func(t *Task) mem.Value {
		f := t.NewFrame(1)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())

		var rec func(t *Task, seed uint64, depth int) int64
		rec = func(t *Task, seed uint64, depth int) int64 {
			rng := workload.NewRNG(seed)
			if depth == 0 {
				var sum int64
				// Task-local allocation and mutation.
				local := t.AllocArray(8, mem.Int(0))
				for i := 0; i < 16; i++ {
					slot := rng.Intn(8)
					old := t.Read(local, slot).AsInt()
					t.Write(local, slot, mem.Int(old+int64(rng.Intn(10))))
				}
				for i := 0; i < 8; i++ {
					sum += t.Read(local, i).AsInt()
				}
				if shared {
					// Publish a box into the shared array (down-pointer
					// CAS) and read through whatever is there (possibly a
					// concurrent task's box: entangled read).
					slot := rng.Intn(64)
					box := t.AllocTuple(mem.Int(int64(rng.Intn(100))))
					t.CAS(f.Ref(0), slot, mem.Nil, box.Value())
					v := t.Read(f.Ref(0), slot)
					if v.IsRef() {
						// Order-independent: only count that a value is
						// readable, not which one.
						if t.Read(v.Ref(), 0).AsInt() >= 0 {
							sum++
						}
					}
				}
				return sum
			}
			a, b := t.Par(
				func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+1, depth-1)) },
				func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+2, depth-1)) },
			)
			return a.AsInt() + b.AsInt()
		}
		sum := rec(t, seed, depth)
		if err := t.ValidateHeaps(); err != nil {
			panic(err)
		}
		f.Pop()
		return mem.Int(sum)
	}
}

func TestStressDeterministicAcrossConfigs(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		var want int64
		for i, cfg := range []Config{
			{Procs: 1},
			{Procs: 1, HeapBudgetWords: 512},
			{Procs: 3, HeapBudgetWords: 2048},
			{Procs: 1, Mode: entangle.Unsafe}, // sound here: P=1, no races
		} {
			// The unsafe run takes the program without shared effects, so
			// only the barriered runs are compared (against the first).
			shared := cfg.Mode != entangle.Unsafe
			rt := New(cfg)
			v, err := rt.Run(randomProgram(seed, 6, shared))
			if err != nil {
				t.Fatalf("seed %d cfg %+v: %v", seed, cfg, err)
			}
			if i == 0 {
				want = v.AsInt()
			} else if shared && v.AsInt() != want {
				t.Fatalf("seed %d cfg %+v: result %d, want %d", seed, cfg, v.AsInt(), want)
			}
		}
	}
}

func TestStressPinsAlwaysReleased(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, cfg := range []Config{
			{Procs: 1, HeapBudgetWords: 1024},
			{Procs: 4, HeapBudgetWords: 4096},
		} {
			rt := New(cfg)
			if _, err := rt.Run(randomProgram(seed, 6, true)); err != nil {
				t.Fatal(err)
			}
			s := rt.EntStats()
			if s.Pins != s.Unpins {
				t.Fatalf("seed %d %+v: pins %d != unpins %d", seed, cfg, s.Pins, s.Unpins)
			}
			if got := rt.EntStats().PinnedNow; got != 0 {
				t.Fatalf("seed %d %+v: %d objects still pinned after all joins", seed, cfg, got)
			}
		}
	}
}

func TestStressSpaceBoundedUnderTinyBudget(t *testing.T) {
	rt := New(Config{Procs: 1, HeapBudgetWords: 512})
	_, err := rt.Run(func(tk *Task) mem.Value {
		// Sequential loop allocating ~1M words of garbage; residency must
		// stay within a small multiple of the budget.
		for i := 0; i < 20000; i++ {
			tk.AllocArray(50, mem.Int(int64(i)))
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max := rt.MaxLiveWords(); max > 1<<16 {
		t.Fatalf("residency %d words for 1M words of garbage under a 512-word budget", max)
	}
}

func TestStressDeepForkTree(t *testing.T) {
	// A deep, narrow fork chain: one side of every fork recurses, the
	// other allocates. Exercises heap depths and merge chains.
	rt := New(Config{Procs: 2, HeapBudgetWords: 4096})
	v, err := rt.Run(func(tk *Task) mem.Value {
		var rec func(t *Task, d int) int64
		rec = func(t *Task, d int) int64 {
			if d == 0 {
				return 1
			}
			a, b := t.Par(
				func(t *Task) mem.Value { return mem.Int(rec(t, d-1)) },
				func(t *Task) mem.Value {
					arr := t.AllocArray(32, mem.Int(int64(d)))
					return t.Read(arr, 7)
				},
			)
			return a.AsInt() + b.AsInt()
		}
		return mem.Int(rec(tk, 200))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1)
	for d := 1; d <= 200; d++ {
		want += int64(d)
	}
	if v.AsInt() != want {
		t.Fatalf("deep chain sum = %d, want %d", v.AsInt(), want)
	}
}

// TestStressStealHeavyEntangled drives a fine-grained fork tree (256
// leaves, all publishing and reading through one shared array) on 8
// workers, the configuration where the lock-free deques see real thief
// contention. Checks: the order-independent checksum matches the P=1 run,
// every pin is released, and a tiny GC budget doesn't break either — all
// under concurrent stealing.
func TestStressStealHeavyEntangled(t *testing.T) {
	const seed, depth = 99, 8
	var want int64
	{
		rt := New(Config{Procs: 1})
		v, err := rt.Run(randomProgram(seed, depth, true))
		if err != nil {
			t.Fatal(err)
		}
		want = v.AsInt()
	}
	for _, cfg := range []Config{
		{Procs: 8},
		{Procs: 8, HeapBudgetWords: 2048},
	} {
		rt := New(cfg)
		v, err := rt.Run(randomProgram(seed, depth, true))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if v.AsInt() != want {
			t.Fatalf("%+v: result %d, want %d", cfg, v.AsInt(), want)
		}
		s := rt.EntStats()
		if s.Pins != s.Unpins {
			t.Fatalf("%+v: pins %d != unpins %d", cfg, s.Pins, s.Unpins)
		}
		if got := rt.EntStats().PinnedNow; got != 0 {
			t.Fatalf("%+v: %d objects still pinned after all joins", cfg, got)
		}
		t.Logf("%+v: steals=%d pins=%d", cfg, rt.Steals(), s.Pins)
	}
}

func TestStressEntangledChainAcrossGC(t *testing.T) {
	// Left builds a linked list and publishes the head; right traverses it
	// while left keeps allocating (forcing left-side collections). Every
	// node right touches must pin and remain readable; the traversal sum
	// is deterministic.
	const nodes = 200
	rt := New(Config{Procs: 1, HeapBudgetWords: 1024})
	v, err := rt.Run(func(tk *Task) mem.Value {
		shared := tk.AllocArray(1, mem.Nil)
		_, rv := tk.Par(
			func(l *Task) mem.Value {
				f := l.NewFrame(1)
				for i := nodes; i >= 1; i-- {
					f.Set(0, l.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
				}
				l.Write(shared, 0, f.Get(0))
				f.Pop()
				// Allocation pressure after publishing: the list must
				// survive via the remembered set.
				for i := 0; i < 100; i++ {
					l.AllocArray(64, mem.Int(0))
				}
				return mem.Nil
			},
			func(r *Task) mem.Value {
				v := r.Read(shared, 0)
				var sum int64
				for v.IsRef() {
					sum += r.Read(v.Ref(), 0).AsInt()
					v = r.Read(v.Ref(), 1)
				}
				return mem.Int(sum)
			},
		)
		return rv
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(nodes) * (nodes + 1) / 2; v.AsInt() != want {
		t.Fatalf("entangled traversal sum = %d, want %d", v.AsInt(), want)
	}
	s := rt.EntStats()
	if s.EntangledReads < nodes {
		t.Fatalf("expected ≥%d entangled reads, got %d", nodes, s.EntangledReads)
	}
}
