package core

import (
	"errors"
	"fmt"
	"testing"

	"mplgo/internal/mem"
	"mplgo/internal/workload"
)

// The failure-model tests: panics in Par branches, cooperative
// cancellation, and heap-limit backpressure must all surface as errors from
// Run with the pool drained and the heap hierarchy consistent — never as a
// crashed process or a hung join.

// panickyProgram builds a fork tree of the given depth whose leaves do
// entangled publication/reads through a shared array and churn enough
// garbage to force local collections; a deterministic subset of branches
// (chosen by seed, at varying depths) panics mid-work.
func panickyProgram(seed uint64, depth int, panicRate int) func(t *Task) mem.Value {
	return func(t *Task) mem.Value {
		f := t.NewFrame(1)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())

		var rec func(t *Task, seed uint64, depth int) int64
		rec = func(t *Task, seed uint64, depth int) int64 {
			rng := workload.NewRNG(seed)
			// Panic at a random interior or leaf node: after some real
			// work, so collections and pins are in flight when we unwind.
			boom := panicRate > 0 && rng.Intn(panicRate) == 0
			if depth == 0 {
				var sum int64
				slot := rng.Intn(64)
				box := t.AllocTuple(mem.Int(int64(rng.Intn(100))))
				t.CAS(f.Ref(0), slot, mem.Nil, box.Value())
				v := t.Read(f.Ref(0), slot)
				if v.IsRef() && t.Read(v.Ref(), 0).AsInt() >= 0 {
					sum++
				}
				// Garbage churn to trigger LGCs under a tiny budget.
				t.AllocArray(64, mem.Int(sum))
				if boom {
					panic(fmt.Sprintf("injected leaf panic (seed %d)", seed))
				}
				return sum
			}
			if boom {
				panic(fmt.Sprintf("injected interior panic (seed %d depth %d)", seed, depth))
			}
			a, b := t.Par(
				func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+1, depth-1)) },
				func(t *Task) mem.Value { return mem.Int(rec(t, seed*31+2, depth-1)) },
			)
			return a.AsInt() + b.AsInt()
		}
		sum := rec(t, seed, depth)
		f.Pop()
		return mem.Int(sum)
	}
}

// TestPanicInParReturnsError is the core contract: a panicking branch does
// not hang the join or kill the process; Run returns a *PanicError.
func TestPanicInParReturnsError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			rt := New(Config{Procs: procs})
			_, err := rt.Run(func(tk *Task) mem.Value {
				a, _ := tk.Par(
					func(t *Task) mem.Value { return mem.Int(1) },
					func(t *Task) mem.Value { panic("boom") },
				)
				return a
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Run error = %v, want *PanicError", err)
			}
			if pe.Value != "boom" {
				t.Fatalf("recovered value = %v, want \"boom\"", pe.Value)
			}
			if !rt.Cancelled() {
				t.Fatal("runtime not cancelled after branch panic")
			}
		})
	}
}

// TestPanicStressUnderRace drives random fork trees where branches panic at
// random depths while sibling branches do entangled reads and forced LGCs.
// For every seed and configuration: Run must return (error or not — some
// seeds never hit a panicking branch), the pool must have drained (Run
// returning at all proves the joins resolved), and the strict quiescent
// invariant audit must pass on whatever heap state the unwind left behind.
// Run under -race.
func TestPanicStressUnderRace(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		for _, cfg := range []Config{
			{Procs: 1, HeapBudgetWords: 512},
			{Procs: 4, HeapBudgetWords: 1024},
			{Procs: 8, HeapBudgetWords: 512},
		} {
			rt := New(cfg)
			_, err := rt.Run(panickyProgram(seed, 7, 10))
			if err != nil {
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("seed %d %+v: non-panic error %v", seed, cfg, err)
				}
				if !rt.Cancelled() {
					t.Fatalf("seed %d %+v: error returned but runtime not cancelled", seed, cfg)
				}
			}
			if ierr := rt.CheckInvariants(); ierr != nil {
				t.Fatalf("seed %d %+v: invariants after unwind: %v", seed, cfg, ierr)
			}
		}
	}
}

// TestCancelUnwinds: Cancel from a branch makes the whole fork tree unwind
// cooperatively and Run report ErrCancelled.
func TestCancelUnwinds(t *testing.T) {
	rt := New(Config{Procs: 4, HeapBudgetWords: 512})
	var after int64
	_, err := rt.Run(func(tk *Task) mem.Value {
		tk.ParFor(0, 1<<16, 16, func(t *Task, lo, hi int) {
			if lo >= 1<<12 && !t.rt.cancelled.Load() {
				t.Runtime().Cancel()
			}
			if t.rt.cancelled.Load() {
				return
			}
			after++ // not a data point, just keeps the body non-trivial
			t.AllocArray(16, mem.Int(int64(lo)))
		})
		return mem.Nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run error = %v, want ErrCancelled", err)
	}
	if ierr := rt.CheckInvariants(); ierr != nil {
		t.Fatalf("invariants after cancel: %v", ierr)
	}
}

// TestCancelFromOutside: cancellation from a goroutine outside the pool
// (the supported external-abort path) also unwinds and reports.
func TestCancelFromOutside(t *testing.T) {
	rt := New(Config{Procs: 2, HeapBudgetWords: 1024})
	started := make(chan struct{})
	go func() {
		<-started
		rt.Cancel()
	}()
	_, err := rt.Run(func(tk *Task) mem.Value {
		close(started)
		// Loop until the cancellation point at Par observes the flag.
		for i := 0; ; i++ {
			if tk.rt.cancelled.Load() {
				return mem.Nil
			}
			tk.Par(
				func(t *Task) mem.Value { return t.AllocTuple(mem.Int(int64(i))).Value() },
				func(t *Task) mem.Value { return mem.Nil },
			)
		}
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run error = %v, want ErrCancelled", err)
	}
}

// TestHeapLimitBackpressure: a program that retains everything it
// allocates must be stopped by MaxHeapWords with ErrHeapLimit — after a
// forced collection proved the residency is real, not garbage.
func TestHeapLimitBackpressure(t *testing.T) {
	rt := New(Config{Procs: 1, HeapBudgetWords: 512, MaxHeapWords: 1 << 14})
	_, err := rt.Run(func(tk *Task) mem.Value {
		f := tk.NewFrame(1)
		defer f.Pop()
		// Build an ever-growing live list; every node is reachable from the
		// frame, so collections cannot reclaim it.
		for i := 0; i < 1<<20; i++ {
			if tk.rt.cancelled.Load() {
				break
			}
			f.Set(0, tk.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
		}
		return mem.Nil
	})
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("Run error = %v, want ErrHeapLimit", err)
	}
}

// TestHeapLimitNotTrippedByGarbage: the same limit must NOT fire on a
// program whose residency stays low even though its total allocation is far
// above the limit — the forced collection gets back under and the run
// completes.
func TestHeapLimitNotTrippedByGarbage(t *testing.T) {
	rt := New(Config{Procs: 1, HeapBudgetWords: 512, MaxHeapWords: 1 << 16})
	_, err := rt.Run(func(tk *Task) mem.Value {
		for i := 0; i < 20000; i++ { // ~1M words of pure garbage
			tk.AllocArray(50, mem.Int(int64(i)))
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatalf("garbage-only program hit the heap limit: %v", err)
	}
}
