package core

import (
	"errors"
	"fmt"
	"testing"

	"mplgo/internal/entangle"
	"mplgo/internal/mem"
)

// A merge sort's interior node allocates its own merge and no more, yet its
// heap holds the arrays its joined children returned: what a child's heap
// grew by since its last collection adds to its parent's at the join
// (Heap.Growth), and a branch kept by its result alone collects at its
// return once its own words and that growth pass half the budget. A heap a
// remembered entry or a pin keeps does not count the growth, and a child
// released at its return adds none.

// mergeShaped is msort's interior node under a 4 096-word budget: two
// leaves each churn garbage*3 words and return an array of k words, which
// the node merges into an array of 2k it returns. With slots given, each
// leaf first fills its half of the slots array in slots' slot 0, as
// memoize's leaves fill a shared table: each slot a down-pointer into the
// leaf's heap, remembered there and spliced into the node's at the join.
// leaves receives each leaf's allocation at its return.
func mergeShaped(t *Task, k, garbage int, slots *Frame, leaves *[2]int64) mem.Value {
	leaf := func(i int) func(*Task) mem.Value {
		return func(t *Task) mem.Value {
			if slots != nil {
				fillSlots(t, *slots, i*k/4, (i+1)*k/4, false)
			}
			churn(t, garbage)
			a := t.AllocArray(k, mem.Int(int64(i)))
			if leaves != nil {
				leaves[i] = t.sinceGC
			}
			return a.Value()
		}
	}
	l, r := t.Par(leaf(0), leaf(1))
	f := t.NewFrame(2)
	defer f.Pop()
	f.Set(0, l)
	f.Set(1, r)
	out := t.AllocArray(2*k, mem.Nil)
	for i := 0; i < 2*k; i++ {
		t.Write(out, i, t.Read(f.Ref(i/k), i%k))
	}
	return out.Value()
}

// checkMerged fails unless v is the array mergeShaped returns.
func checkMerged(t *Task, v mem.Value, k int) error {
	for i := 0; i < 2*k; i++ {
		if got := t.Read(v.Ref(), i).AsInt(); got != int64(i/k) {
			return fmt.Errorf("merged word %d reads %d, want %d", i, got, i/k)
		}
	}
	return nil
}

// TestSettleCollectsMergedResultsOnce: each leaf allocates 1 101 words and
// the interior node 1 001 of its own, all under half the 4 096-word budget,
// so no strand collects on its own words. The node's heap has grown by
// 3 203 once its leaves merge, kept by its result alone, so it collects
// exactly once, at its return, and merges into the parent holding its
// result and not its leaves' arrays, adding no growth: what a collection
// keeps is not growth since it.
func TestSettleCollectsMergedResultsOnce(t *testing.T) {
	const k, garbage = 500, 200
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		rt := tk.rt
		var during int64
		var leaves [2]int64
		before := rt.space.LiveWords()
		var v mem.Value
		if c := collectionsDuring(rt, func() {
			v, _ = tk.Par(func(t *Task) mem.Value {
				var out mem.Value
				during = collectionsDuring(rt, func() { out = mergeShaped(t, k, garbage, nil, &leaves) })
				return out
			}, func(*Task) mem.Value { return mem.Nil })
		}); c != 1 || during != 0 {
			return fmt.Errorf("interior node: %d collections, %d before its return, want 1 at its return", c, during)
		}
		if max(leaves[0], leaves[1]) > 2048 || leaves[0]+leaves[1] <= 2048 {
			return fmt.Errorf("leaves allocated %v words, want each under half the budget and both over", leaves)
		}
		if merged := rt.space.LiveWords() - before; merged >= 2*k+1+2*(k+1) {
			return fmt.Errorf("the node's heap merged holding %d words, its result and its leaves' arrays %d", merged, 2*k+1+2*(k+1))
		}
		if tk.heap.Growth != 0 {
			return fmt.Errorf("the parent's heap grew by %d words through a node collected at its return", tk.heap.Growth)
		}
		if err := checkMerged(tk, v, k); err != nil {
			return err
		}
		return tk.ValidateHeaps()
	})
}

// TestSettleSkipsMergedGrowthOfRememberedHeap: the same tree, whose leaves
// also fill slots of a table in the parent as memoize's do. The node's heap
// has grown as much, but their remembered entries keep it, and such a heap
// holds what other strands reach: no strand collects.
func TestSettleSkipsMergedGrowthOfRememberedHeap(t *testing.T) {
	const k, garbage = 500, 200
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		rt := tk.rt
		slots := tk.NewFrame(1)
		defer slots.Pop()
		slots.Set(0, tk.AllocArray(k/2, mem.Nil).Value())
		var leaves [2]int64
		var v mem.Value
		if c := collectionsDuring(rt, func() {
			v, _ = tk.Par(func(t *Task) mem.Value { return mergeShaped(t, k, garbage, &slots, &leaves) },
				func(*Task) mem.Value { return mem.Nil })
		}); c != 0 {
			return fmt.Errorf("memoize-shaped node: %d collections, want 0", c)
		}
		if max(leaves[0], leaves[1]) > 2048 || leaves[0]+leaves[1] <= 2048 {
			return fmt.Errorf("leaves allocated %v words, want each under half the budget and both over", leaves)
		}
		for i := 0; i < k/2; i++ {
			if got := tk.Read(tk.Read(slots.Ref(0), i).Ref(), 0).AsInt(); got != int64(i) {
				return fmt.Errorf("slot %d reads %d", i, got)
			}
		}
		if err := checkMerged(tk, v, k); err != nil {
			return err
		}
		return tk.ValidateHeaps()
	})
}

// TestSettleReleasedChildAddsNoGrowth: a leaf that returns an immediate is
// released at its return, its words handed back, and adds nothing to the
// heap it would have merged into; a leaf that returns its array merges and
// adds what it allocated.
func TestSettleReleasedChildAddsNoGrowth(t *testing.T) {
	runDrops(t, Config{Procs: 1, HeapBudgetWords: 4096}, func(tk *Task) error {
		var kept, grown int64
		if c := collectionsDuring(tk.rt, func() {
			tk.Par(func(t *Task) mem.Value {
				dropped, _, _ := dropsOf(t,
					func(t *Task) mem.Value { churn(t, 600); return mem.Int(1) },
					func(t *Task) mem.Value {
						churn(t, 200)
						a := t.AllocArray(100, mem.Nil)
						kept = t.sinceGC
						return a.Value()
					})
				if dropped != 1 {
					panic(fmt.Sprintf("the join dropped %d heaps, want the one returning an immediate", dropped))
				}
				grown = t.heap.Growth
				return mem.Nil
			}, func(*Task) mem.Value { return mem.Nil })
		}); c != 0 {
			return fmt.Errorf("%d collections, want 0", c)
		}
		if grown != kept {
			return fmt.Errorf("the node's heap grew by %d words at the join, want the kept leaf's %d", grown, kept)
		}
		return nil
	})
}

// TestSettleMergedGrowthNeverWithoutItsPreconditions: the merge-shaped node
// that collects at its return with the barriers and collections on does not
// with collections off, with the barriers off or after a runtime-wide cancel.
func TestSettleMergedGrowthNeverWithoutItsPreconditions(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		cancel bool
		want   int64
	}{
		{"Vouched", Config{Procs: 1, HeapBudgetWords: 4096}, false, 1},
		{"DisableGC", Config{Procs: 1, HeapBudgetWords: 4096, DisableGC: true}, false, 0},
		{"Unsafe", Config{Procs: 1, HeapBudgetWords: 4096, Mode: entangle.Unsafe}, false, 0},
		{"Cancel", Config{Procs: 1, HeapBudgetWords: 4096}, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := New(c.cfg)
			_, err := rt.Run(func(tk *Task) mem.Value {
				tk.Par(func(t *Task) mem.Value {
					v := mergeShaped(t, 500, 200, nil, nil)
					if c.cancel {
						t.Runtime().Cancel()
					}
					return v
				}, func(*Task) mem.Value { return mem.Nil })
				return mem.Nil
			})
			if c.cancel != errors.Is(err, ErrCancelled) || !c.cancel && err != nil {
				t.Fatalf("Run = %v", err)
			}
			if n, _, _ := rt.GCStats(); n != c.want {
				t.Fatalf("%d collections, want %d", n, c.want)
			}
		})
	}
}
