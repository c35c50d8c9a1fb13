package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mplgo/internal/chaos"
	"mplgo/internal/entangle"
	"mplgo/internal/gc"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// The release decision seen from Par: a branch heap drops when its branch
// returns if nothing outside it can reach it, and merges at its join when
// its result points into it, when it recorded a way in (a down-pointer, a
// pin), or when the runtime cannot vouch for its records. A drop is counted
// at the release, on the branch's own tally, which its finish drains, so a
// Par's drops are read off the tree's totals: at one worker nothing else
// drains while the Par runs, but a nested Par's drops are in its parent's
// count too.

// churn allocates n two-word tuples nothing keeps.
func churn(t *Task, n int) {
	for i := 0; i < n; i++ {
		t.AllocTuple(mem.Int(int64(i)), mem.Int(1))
	}
}

// dropsOf runs a Par on t and returns how many heaps it dropped — its two
// branch heaps and those of any Par nested in them — with the branches'
// results.
func dropsOf(t *Task, f, g func(*Task) mem.Value) (int64, mem.Value, mem.Value) {
	before := t.rt.tree.Stats.Load(trace.HeapsDropped)
	lv, rv := t.Par(f, g)
	return t.rt.tree.Stats.Load(trace.HeapsDropped) - before, lv, rv
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

// TestParDropsBranchBeforeSiblingRuns: at one worker the right branch runs
// after the left has returned, and finds none of the words the left churned
// and abandoned still live: the left heap went back when its branch
// returned, not at the join.
func TestParDropsBranchBeforeSiblingRuns(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 1 << 20}, func(tk *Task) error {
		live := tk.rt.space.LiveWords()
		var seen int64
		n, _, _ := dropsOf(tk,
			func(t *Task) mem.Value { churn(t, 4000); return mem.Nil },
			func(t *Task) mem.Value { seen = t.rt.space.LiveWords(); return mem.Nil },
		)
		if n != 2 {
			return fmt.Errorf("dropped %d heaps, want 2", n)
		}
		if seen != live {
			return fmt.Errorf("the right branch found %d live words, %d before the fork: its sibling's churn is still held", seen, live)
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
		if inner != 1 || n-inner != 1 {
			return fmt.Errorf("dropped %d grandchildren and %d children, want 1 and 1", inner, n-inner)
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
	if before != 2 || outer-before != 0 {
		t.Fatalf("dropped %d heaps before the cancel and %d after, want 2 and 0", before, outer-before)
	}
	if got := rt.tree.Stats.Load(trace.HeapsDropped); got != 2 {
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
		if n := rt.tree.Stats.Load(trace.HeapsDropped); n != 0 {
			t.Fatalf("%+v: %d heaps dropped", cfg, n)
		}
	}
}

// TestDropCountsDrainToTotals: every drop of a fork tree reaches the
// tree's totals, with the words it handed back, and a drop is not a
// collection. (TestTracedCountsReachTrace follows the totals into the trace.)
func TestDropCountsDrainToTotals(t *testing.T) {
	rt := New(Config{Procs: 2})
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
	if err != nil {
		t.Fatal(err)
	}
	heaps, words := rt.tree.Stats.Load(trace.HeapsDropped), rt.tree.Stats.Load(trace.DroppedWords)
	if heaps != 62 || words < 32*200 {
		t.Fatalf("dropped %d heaps holding %d words, want all 62 and at least the leaves' 6 400 words", heaps, words)
	}
	if c, _, _ := rt.GCStats(); c != 0 {
		t.Fatalf("%d collections: a drop is not a collection", c)
	}
}

// TestDropRacesCousinPins races releases against entangled reads at 2, 4
// and 8 workers, and against the concurrent collector: a branch releases its
// heap on its own worker unless a cycle is marking, and a cycle may start
// marking while it does. Leaves of three kinds share a board in the root heap:
// publishers store a cell holding a box of their own (a down-pointer: their
// heaps merge), readers read their cousins' cells and boxes (pins published
// into the owners' pinned buffers, perhaps while those owners join) and
// mailers store a box of their own into a cousin's cell (a cross-pointer,
// whose pin is their heap's only record). Everyone churns, so collections
// and drops release chunks that other heaps recycle under the readers.
// Every round validates the heaps, audits the invariants and checks
// pins == unpins; chaos rides on every other round, and the concurrent
// collector on every third and on the last. A round without it must drop a
// heap. With it, no heap drops while a cycle marks, and cycles may run back
// to back, so a round may drop none: its rounds together must run a cycle
// and drop a heap.
func TestDropRacesCousinPins(t *testing.T) {
	const leaves = 96
	rounds := 8
	if testing.Short() {
		rounds = 3 // round 2 runs the concurrent collector without chaos
	}
	opts := chaos.Soak()
	for _, procs := range []int{2, 4, 8} {
		var cycles, cgcDropped int64
		for round := 0; round < rounds; round++ {
			cfg := Config{Procs: procs, HeapBudgetWords: 1024, Seed: int64(round)}
			if round%2 == 1 {
				cfg.Chaos = &opts
			}
			cgc := round%3 == 2 || round == rounds-1
			if cgc {
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
			dropped := rt.tree.Stats.Load(trace.HeapsDropped)
			if cgc {
				c, _, _, _, _ := rt.CGCStats()
				cycles += c
				cgcDropped += dropped
			} else if dropped == 0 {
				t.Fatalf("%s: no heap dropped", name)
			}
		}
		if cycles == 0 || cgcDropped == 0 {
			t.Fatalf("procs %d: the concurrent collector's rounds ran %d cycles and dropped %d heaps", procs, cycles, cgcDropped)
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

// TestParKeepsBranchWhileCycleMarks: a branch does not release its heap
// while a concurrent cycle is marking, since the marker may pass through an
// object of that heap the branch shaded, to reach an ancestor object the
// snapshot reaches by no other path. Before the cycle the left branch copies
// X, held by the root's cell C, into its own Y and clears C. During marking
// it passes its safepoint, shading Y from its frame, waits until the marker
// has scanned C, stores X back into C (the deletion barrier shades only the
// old Nil) and returns. A released Y would be skipped and X swept while C
// points to it. The cycle is run by hand, so that it starts after the clear;
// the marker consults the injector's CGCMark point once per object it marks
// (at rate 1 it yields once in 1024), so its second hit says that C, the
// marker's only root, has been scanned; C's list keeps the marker busy while
// the branch returns. A run in which the marker finished first built nothing
// and is repeated.
func TestParKeepsBranchWhileCycleMarks(t *testing.T) {
	for range 5 {
		if cycleMarksAtReturn(t) {
			return
		}
	}
	t.Skip("the marker finished before the branch returned in every run")
}

// cycleMarksAtReturn is one run of TestParKeepsBranchWhileCycleMarks. It
// reports whether the cycle was still marking when the left branch returned.
func cycleMarksAtReturn(t *testing.T) (built bool) {
	opts := chaos.Options{CGCMark: 1}
	cfg := Config{Procs: 1, HeapBudgetWords: 1 << 22, CGC: true, CGCThresholdWords: 1 << 40, Chaos: &opts}
	wait := func(what string, done func() bool) error {
		for deadline := time.Now().Add(10 * time.Second); !done(); runtime.Gosched() {
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for %s", what)
			}
		}
		return nil
	}
	runDrops(t, cfg, func(tk *Task) error {
		rt := tk.rt
		f := tk.NewFrame(2)
		defer f.Pop()
		for i := 0; i < 1<<17; i++ {
			f.Set(0, tk.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
		}
		f.Set(1, tk.AllocTuple(mem.Int(42)).Value())
		f.Set(1, tk.AllocTuple(f.Get(1), f.Get(0)).Value()) // C = (X, list)
		f.Set(0, mem.Nil)
		cycle := make(chan gc.CGCResult, 1)
		var res gc.CGCResult
		var lerr error
		tk.Par(
			func(t *Task) mem.Value {
				lf := t.NewFrame(1)
				defer lf.Pop()
				c := f.Ref(1)
				lf.Set(0, t.AllocTuple(t.Read(c, 0)).Value()) // Y = (X)
				t.Write(c, 0, mem.Nil)
				epoch := rt.cgc.Epoch()
				go func() {
					rt.cgcExcl.Lock()
					defer rt.cgcExcl.Unlock()
					cycle <- rt.cgc.RunCycle(rt, func() bool { return false })
				}()
				if lerr = wait("the cycle to mark", func() bool { return rt.cgc.Epoch() != epoch }); lerr != nil {
					return mem.Nil
				}
				t.cgcSafepoint()
				if lerr = wait("the marker to scan C", func() bool { return rt.chaos.Hits(chaos.CGCMark) >= 2 }); lerr != nil {
					return mem.Nil
				}
				t.Write(c, 0, t.Read(lf.Ref(0), 0))
				built = rt.cgc.Marking()
				return mem.Nil
			},
			func(t *Task) mem.Value {
				select {
				case res = <-cycle:
				case <-time.After(10 * time.Second):
				}
				return mem.Nil
			},
		)
		if lerr != nil {
			return lerr
		}
		if res.ScopeHeaps == 0 || res.Aborted {
			return fmt.Errorf("the cycle claimed %d heaps, aborted %v", res.ScopeHeaps, res.Aborted)
		}
		if x := tk.Read(f.Ref(1), 0); !x.IsRef() || rt.space.Header(x.Ref()).Kind() == mem.KFree {
			return fmt.Errorf("C holds %v, freed by the cycle's sweep", x)
		}
		return tk.ValidateHeaps()
	})
	return built
}
