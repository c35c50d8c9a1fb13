package core

import (
	"fmt"
	"testing"

	"mplgo/internal/mem"
)

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
