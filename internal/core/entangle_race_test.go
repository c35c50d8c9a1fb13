package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mplgo/internal/mem"
)

// TestRaceReadVsMerge races entangled re-reads against the merges that
// re-point the chunks being read. The writer forks short-lived children
// that publish fresh boxes through a root-heap array and join at once, so
// the boxes' chunks move from each child to the writer's heap (and its
// collections move the unpinned ones) while readers on the other side of
// the root re-read them. A reader that resolved a child which then merged
// away is on the already-pinned path (its LCA with the child is its LCA
// with the parent) or re-validates under the gate. Every box read must be
// the one its slot was written with: a reader whose value went stale — the
// box moved, its chunk recycled under another pinned box — must not take
// that box for its slot's.
//
// The writer starts publishing once every reader runs, one per other
// worker: a join waiting on a stolen child helps by running stolen work,
// and a writer that picked up a reader would stall until the reader gave
// up. The readers yield now and then so that, with more workers than
// CPUs, the writer keeps publishing. Run under -race.
func TestRaceReadVsMerge(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			rt := New(Config{Procs: procs, HeapBudgetWords: 512})
			const (
				slots  = 8
				rounds = 1000
			)
			readers := int64(procs - 1)
			var started atomic.Int64
			var done atomic.Bool
			_, err := rt.Run(func(tk *Task) mem.Value {
				f := tk.NewFrame(1)
				f.Set(0, tk.AllocArray(slots, mem.Nil).Value())
				holder := f.Ref(0)

				// A box is (round, slot): a reader checks it against the slot
				// it came from.
				publish := func(round, from int) func(*Task) mem.Value {
					return func(t *Task) mem.Value {
						for s := from; s < from+slots/2; s++ {
							box := t.AllocTuple(mem.Int(int64(round)), mem.Int(int64(s)))
							t.Write(holder, s, box.Value())
						}
						return mem.Nil
					}
				}
				writer := func(t *Task) mem.Value {
					for i := 0; started.Load() < readers && i < 1_000_000; i++ {
						runtime.Gosched()
					}
					for r := 0; r < rounds; r++ {
						t.Par(publish(r, 0), publish(r, slots/2))
						t.AllocArray(64, mem.Int(int64(r))) // churn: collect between rounds
					}
					done.Store(true)
					return mem.Nil
				}
				read := func(t *Task, s int) {
					v := t.Read(holder, s)
					if !v.IsRef() {
						return
					}
					b := v.Ref()
					if l, r, got := t.Length(b), t.Read(b, 0).AsInt(), t.Read(b, 1).AsInt(); l != 2 || r < 0 || r >= rounds || got != int64(s) {
						panic(fmt.Sprintf("slot %d holds box %v: length %d, round %d, slot %d", s, b, l, r, got))
					}
				}
				reader := func(t *Task) mem.Value {
					started.Add(1)
					for i := 0; !done.Load() && i < 1_000_000; i++ {
						if i%256 == 255 {
							runtime.Gosched() // let the writer's worker run
						}
						read(t, i%slots)
					}
					// With few workers a reader may first run once the writer is
					// done. The writer's heap is its sibling until the top join,
					// so this pass reads every slot's last box entangled.
					for s := 0; s < slots; s++ {
						read(t, s)
					}
					return mem.Nil
				}
				var fan func(t *Task, n int64)
				fan = func(t *Task, n int64) {
					if n == 1 {
						reader(t)
						return
					}
					t.Par(
						func(t *Task) mem.Value { fan(t, n/2); return mem.Nil },
						func(t *Task) mem.Value { fan(t, n-n/2); return mem.Nil },
					)
				}

				tk.Par(writer, func(t *Task) mem.Value { fan(t, readers); return mem.Nil })
				if err := tk.ValidateHeaps(); err != nil {
					panic(err)
				}
				f.Pop()
				return mem.Nil
			})
			if err != nil {
				t.Fatal(err)
			}
			s := rt.EntStats()
			if s.EntangledReads == 0 {
				t.Fatal("no entangled reads")
			}
			if s.Pins != s.Unpins || s.PinnedNow != 0 {
				t.Fatalf("pins %d, unpins %d, %d still pinned after all joins", s.Pins, s.Unpins, s.PinnedNow)
			}
			t.Logf("%d slow reads, %d pins", s.SlowReads, s.Pins)
		})
	}
}

// TestRacePinVsCollect hammers the central race the lock-free entanglement
// protocol must win: concurrent entangled reads pinning objects of a heap
// that is being locally collected at the same time.
//
// One branch (the writer) repeatedly publishes fresh boxes through a
// shared root-heap array — down-pointer writes — and churns enough garbage
// to push its heap over a tiny budget, forcing a local collection on
// nearly every iteration that wants to move exactly the boxes the other
// side is acquiring. N sibling branches hammer entangled reads through the
// shared array, pinning those boxes via the header CAS while the writer's
// collections copy, forward, and release chunks around them. Until the
// final join, the writer's heap stays concurrent with every reader, so
// every successful read of a box is an entangled read.
//
// Run under -race; several worker counts cover the uncontended,
// lightly-contended, and oversubscribed regimes.
func TestRacePinVsCollect(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%d-readers", workers), func(t *testing.T) {
			rt := New(Config{Procs: workers + 1, HeapBudgetWords: 512})
			const (
				slots  = 8
				writes = 300
			)
			_, err := rt.Run(func(tk *Task) mem.Value {
				f := tk.NewFrame(1)
				f.Set(0, tk.AllocArray(slots, mem.Nil).Value())
				holder := f.Ref(0)

				writer := func(t *Task) mem.Value {
					for i := 0; i < writes; i++ {
						box := t.AllocTuple(mem.Int(int64(i)))
						t.Write(holder, i%slots, box.Value())
						// Garbage churn: drive this heap over its budget so
						// an LGC runs while readers pin our boxes.
						t.AllocArray(96, mem.Int(int64(i)))
					}
					return mem.Int(0)
				}
				reader := func(t *Task) mem.Value {
					// Keep reading until enough entangled reads landed; the
					// writer runs concurrently until the final join, so
					// every box acquired here lives in a concurrent heap.
					var ok int64
					for i := 0; ok < 64 && i < 1_000_000; i++ {
						v := t.Read(holder, i%slots)
						if v.IsRef() && t.Read(v.Ref(), 0).AsInt() >= 0 {
							ok++
						}
					}
					return mem.Int(ok)
				}

				var fan func(t *Task, n int) int64
				fan = func(t *Task, n int) int64 {
					if n == 1 {
						return reader(t).AsInt()
					}
					a, b := t.Par(
						func(t *Task) mem.Value { return mem.Int(fan(t, n/2)) },
						func(t *Task) mem.Value { return mem.Int(fan(t, n-n/2)) },
					)
					return a.AsInt() + b.AsInt()
				}

				_, got := tk.Par(writer,
					func(t *Task) mem.Value { return mem.Int(fan(t, workers)) })
				if err := tk.ValidateHeaps(); err != nil {
					panic(err)
				}
				f.Pop()
				return got
			})
			if err != nil {
				t.Fatal(err)
			}
			s := rt.EntStats()
			if s.EntangledReads == 0 {
				t.Fatal("stress produced no entangled reads")
			}
			if s.Pins != s.Unpins {
				t.Fatalf("pins %d != unpins %d after all joins", s.Pins, s.Unpins)
			}
			if got := rt.EntStats().PinnedNow; got != 0 {
				t.Fatalf("%d objects still pinned after all joins", got)
			}
			cols, _, _ := rt.GCStats()
			if cols == 0 {
				t.Fatal("stress forced no collections — budget too large?")
			}
		})
	}
}
