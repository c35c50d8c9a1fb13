package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/internal/entangle"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// The join's drop decision seen from Par: a branch heap drops when nothing
// outside it can reach it, and merges when its result points into it, when
// it recorded a way in (a down-pointer, a pin), or when the runtime cannot
// vouch for its records. A Par's drops are read off the joining strand's own
// tally, which only that strand writes.

// churn allocates n two-word tuples nothing keeps.
func churn(t *Task, n int) {
	for i := 0; i < n; i++ {
		t.AllocTuple(mem.Int(int64(i)), mem.Int(1))
	}
}

// dropsOf runs a Par on t and returns how many of its two branch heaps the
// join dropped, with the branches' results.
func dropsOf(t *Task, f, g func(*Task) mem.Value) (int64, mem.Value, mem.Value) {
	before := t.heap.Tally.HeapsDropped
	lv, rv := t.Par(f, g)
	return t.heap.Tally.HeapsDropped - before, lv, rv
}

// runDrops runs body as the root task of a runtime configured by cfg and
// fails the test with whatever body reports.
func runDrops(t *testing.T, cfg Config, body func(tk *Task) error) *Runtime {
	t.Helper()
	rt := New(cfg)
	var failed error
	if _, err := rt.Run(func(tk *Task) mem.Value { failed = body(tk); return mem.Nil }); err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	return rt
}

func TestParKeepsBranchReturningItsObject(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 512}, func(tk *Task) error {
		n, lv, _ := dropsOf(tk,
			func(t *Task) mem.Value { churn(t, 400); return t.AllocTuple(mem.Int(42)).Value() },
			func(t *Task) mem.Value { churn(t, 400); return mem.Int(1) },
		)
		if n != 1 {
			return fmt.Errorf("the join dropped %d heaps, want 1 (the branch returning an immediate)", n)
		}
		if hierarchy.OwnerOf(tk.rt.space.ChunkOf(lv.Ref())) != tk.heap {
			return errors.New("the result's chunk did not merge into the parent")
		}
		f := tk.NewFrame(1)
		defer f.Pop()
		f.Set(0, lv)
		if got := tk.Read(lv.Ref(), 0).AsInt(); got != 42 {
			return fmt.Errorf("result reads %d, want 42", got)
		}
		return tk.ValidateHeaps()
	})
}

func TestParDropsBranchReturningAncestorObject(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 512}, func(tk *Task) error {
		f := tk.NewFrame(1)
		defer f.Pop()
		f.Set(0, tk.AllocTuple(mem.Int(5), mem.Int(6)).Value())
		live := tk.rt.space.LiveWords()
		n, lv, _ := dropsOf(tk,
			func(t *Task) mem.Value { churn(t, 400); return f.Get(0) },
			func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
		)
		if n != 2 {
			return fmt.Errorf("the join dropped %d heaps, want 2: a result in an ancestor keeps nothing alive", n)
		}
		if lv != f.Get(0) || tk.Read(lv.Ref(), 0).AsInt() != 5 || tk.Read(lv.Ref(), 1).AsInt() != 6 {
			return errors.New("the ancestor object the result names did not survive the drop intact")
		}
		if now := tk.rt.space.LiveWords(); now != live {
			return fmt.Errorf("live words %d after the drops, %d before the fork", now, live)
		}
		return tk.ValidateHeaps()
	})
}

func TestParKeepsBranchWithDownPointer(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 512}, func(tk *Task) error {
		f := tk.NewFrame(1)
		defer f.Pop()
		f.Set(0, tk.AllocArray(2, mem.Nil).Value())
		n, _, _ := dropsOf(tk,
			func(t *Task) mem.Value {
				t.Write(f.Ref(0), 0, t.AllocTuple(mem.Int(7)).Value())
				churn(t, 400)
				return mem.Nil
			},
			func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
		)
		if n != 1 {
			return fmt.Errorf("the join dropped %d heaps, want 1: the down-pointer's target must survive", n)
		}
		// The grandchild's down-pointer reaches the child's remembered set
		// only through the splice at the grandchild's own join.
		var inner int64
		n, _, _ = dropsOf(tk,
			func(t *Task) mem.Value {
				inner, _, _ = dropsOf(t,
					func(t *Task) mem.Value {
						t.Write(f.Ref(0), 1, t.AllocTuple(mem.Int(8)).Value())
						churn(t, 400)
						return mem.Nil
					},
					func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
				)
				return mem.Nil
			},
			func(t *Task) mem.Value { return mem.Nil },
		)
		if inner != 1 || n != 1 {
			return fmt.Errorf("dropped %d grandchildren and %d children, want 1 and 1", inner, n)
		}
		for i, want := range []int64{7, 8} {
			if got := tk.Read(tk.Read(f.Ref(0), i).Ref(), 0).AsInt(); got != want {
				return fmt.Errorf("slot %d reads %d, want %d", i, got, want)
			}
		}
		return tk.ValidateHeaps()
	})
}

func TestParKeepsBranchesAfterCancel(t *testing.T) {
	rt := New(Config{Procs: 1, HeapBudgetWords: 512})
	var before, outer int64
	_, err := rt.Run(func(tk *Task) mem.Value {
		outer, _, _ = dropsOf(tk,
			func(t *Task) mem.Value {
				before, _, _ = dropsOf(t,
					func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
					func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
				)
				t.Runtime().Cancel()
				return mem.Nil
			},
			func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
		)
		return mem.Nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run = %v, want ErrCancelled", err)
	}
	if before != 2 || outer != 0 {
		t.Fatalf("dropped %d heaps before the cancel and %d after, want 2 and 0", before, outer)
	}
	if got := rt.tree.Stats.HeapsDropped.Load(); got != 2 {
		t.Fatalf("tree counts %d dropped heaps, want 2", got)
	}
}

// TestParDropsNothingWithoutItsRecords: with collections off (tests pass raw
// references out of branches) or the barriers off (no remembered set is
// kept), no join may drop.
func TestParDropsNothingWithoutItsRecords(t *testing.T) {
	for _, cfg := range []Config{
		{Procs: 2, DisableGC: true},
		{Procs: 2, HeapBudgetWords: 512, Mode: entangle.Unsafe},
	} {
		var escaped mem.Value
		rt := runDrops(t, cfg, func(tk *Task) error {
			tk.Par(
				func(t *Task) mem.Value { churn(t, 400); escaped = t.AllocTuple(mem.Int(3)).Value(); return mem.Nil },
				func(t *Task) mem.Value { churn(t, 400); return mem.Nil },
			)
			if got := tk.Read(escaped.Ref(), 0).AsInt(); got != 3 {
				return fmt.Errorf("%+v: the escaped tuple reads %d, want 3", cfg, got)
			}
			return nil
		})
		if n := rt.tree.Stats.HeapsDropped.Load(); n != 0 {
			t.Fatalf("%+v: %d heaps dropped", cfg, n)
		}
	}
}

// TestDropCountersReachTrace: the drop totals are drained into the tree's
// stats and sampled into trace counters the summary reports by name, and a
// drop is not a collection.
func TestDropCountersReachTrace(t *testing.T) {
	tracer := trace.NewTracer(2, 1<<14)
	rt := New(Config{Procs: 2, Tracer: tracer})
	trace.Enable()
	_, err := rt.Run(func(tk *Task) mem.Value {
		var rec func(t *Task, d int) mem.Value
		rec = func(t *Task, d int) mem.Value {
			if d == 0 {
				churn(t, 100)
				return mem.Int(1)
			}
			a, b := t.Par(
				func(t *Task) mem.Value { return rec(t, d-1) },
				func(t *Task) mem.Value { return rec(t, d-1) },
			)
			return mem.Int(a.AsInt() + b.AsInt())
		}
		return rec(tk, 5)
	})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	heaps, words := rt.tree.Stats.HeapsDropped.Load(), rt.tree.Stats.DroppedWords.Load()
	if heaps != 62 || words < 32*200 {
		t.Fatalf("dropped %d heaps holding %d words, want all 62 and at least the leaves' 6 400 words", heaps, words)
	}
	if c, _, _ := rt.GCStats(); c != 0 {
		t.Fatalf("%d collections: a drop is not a collection", c)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracer); err != nil {
		t.Fatal(err)
	}
	s, err := trace.Summarize(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for c, total := range map[trace.Counter]int64{trace.CtrHeapsDropped: heaps, trace.CtrDroppedWords: words} {
		if max := s.CounterMax[c]; max == 0 || int64(max) > total {
			t.Fatalf("%v: trace maximum %d, drained total %d", c, max, total)
		}
	}
}

// TestDropRacesCousinPins races drops against entangled reads at 2, 4 and 8
// workers. Leaves of three kinds share a board in the root heap:
// publishers store a cell holding a box of their own (a down-pointer: their
// heaps merge), readers read their cousins' cells and boxes (pins published
// into the owners' pinned buffers, perhaps while those owners join) and
// mailers store a box of their own into a cousin's cell (a cross-pointer,
// whose pin is their heap's only record). Everyone churns, so collections
// and drops release chunks that other heaps recycle under the readers.
// Every round validates the heaps, audits the invariants and checks
// pins == unpins; chaos and the concurrent collector ride on some rounds.
func TestDropRacesCousinPins(t *testing.T) {
	const leaves = 96
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	opts := chaos.Soak()
	for _, procs := range []int{2, 4, 8} {
		for round := 0; round < rounds; round++ {
			cfg := Config{Procs: procs, HeapBudgetWords: 1024, Seed: int64(round)}
			if round%2 == 1 {
				cfg.Chaos = &opts
			}
			if round%3 == 2 {
				cfg.CGC, cfg.CGCThresholdWords = true, 1<<12
			}
			var bad atomic.Int64
			var verr error
			rt := New(cfg)
			v, err := rt.Run(func(tk *Task) mem.Value {
				board := tk.NewFrame(1)
				defer board.Pop()
				board.Set(0, tk.AllocArray(leaves, mem.Nil).Value())
				var rec func(t *Task, lo, hi int) mem.Value
				rec = func(t *Task, lo, hi int) mem.Value {
					if hi-lo == 1 {
						cousinLeaf(t, board, lo, leaves, &bad)
						return mem.Int(1)
					}
					mid := (lo + hi) / 2
					a, b := t.Par(
						func(t *Task) mem.Value { return rec(t, lo, mid) },
						func(t *Task) mem.Value { return rec(t, mid, hi) },
					)
					return mem.Int(a.AsInt() + b.AsInt())
				}
				sum := rec(tk, 0, leaves)
				verr = tk.ValidateHeaps()
				return sum
			})
			name := fmt.Sprintf("procs %d round %d", procs, round)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if verr != nil {
				t.Fatalf("%s: %v", name, verr)
			}
			if v.AsInt() != leaves || bad.Load() != 0 {
				t.Fatalf("%s: sum %d (want %d), %d wrong values read", name, v.AsInt(), leaves, bad.Load())
			}
			if s := rt.EntStats(); s.Pins != s.Unpins {
				t.Fatalf("%s: pins %d != unpins %d", name, s.Pins, s.Unpins)
			}
			if err := rt.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rt.tree.Stats.HeapsDropped.Load() == 0 {
				t.Fatalf("%s: no heap dropped", name)
			}
		}
	}
}

// cousinLeaf is leaf i of TestDropRacesCousinPins. A cell on the board holds
// a box whose one field is its publisher's index, or a mailer's index plus
// leaves.
func cousinLeaf(t *Task, board Frame, i, leaves int, bad *atomic.Int64) {
	churn(t, 150)
	switch i % 3 {
	case 0:
		cell := t.AllocRef(t.AllocTuple(mem.Int(int64(i))).Value())
		t.Write(board.Ref(0), i, cell.Value())
	case 1:
		for j := 0; j < leaves; j++ {
			cell := t.Read(board.Ref(0), j)
			if !cell.IsRef() {
				continue
			}
			v := t.Read(t.Read(cell.Ref(), 0).Ref(), 0).AsInt()
			if v != int64(j) && (v < int64(leaves) || (v-int64(leaves))%3 != 2) {
				bad.Add(1)
			}
		}
	case 2:
		for j := 0; j < leaves; j++ {
			if cell := t.Read(board.Ref(0), j); cell.IsRef() {
				// The read pinned the cell, or found it on this leaf's own
				// path: either way the allocation cannot move it.
				t.Write(cell.Ref(), 0, t.AllocTuple(mem.Int(int64(leaves+i))).Value())
				break
			}
		}
	}
	churn(t, 150)
}
