package core

import (
	"fmt"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// The write barrier's store classes driven through the task's own stores —
// Write, a CAS that swaps and a CAS that fails — rather than through
// entangle.OnWrite: each class's tally rows, what it records against the
// value's heap (remembered and pinned entries), the holder's candidate bit,
// and Heap.Overwritten, which a failed CAS must restore. A failed CAS has
// run the barrier before its swap failed, so what the barrier records is the
// same for all three stores.

// storeOp is one of the task's barriered stores.
type storeOp struct {
	name string
	// do stores x into payload word 0 of o from w and reports whether the
	// field now holds x.
	do func(w *Task, o mem.Ref, x mem.Value) bool
}

var storeOps = []storeOp{
	{"Write", func(w *Task, o mem.Ref, x mem.Value) bool { w.Write(o, 0, x); return true }},
	{"CAS", func(w *Task, o mem.Ref, x mem.Value) bool {
		return w.CAS(o, 0, w.rt.space.Load(o, 0), x)
	}},
	{"failed CAS", func(w *Task, o mem.Ref, x mem.Value) bool {
		if w.CAS(o, 0, mem.Int(-1), x) {
			panic("a CAS against a value the field does not hold swapped")
		}
		return false
	}},
}

// storeWant is what one store of a class records.
type storeWant struct {
	candidates, downPointers, entangledWrites, pins int64
	remembered, pinned                              int // entries added against the value's heap
	candidate                                       bool
	overwritten                                     int64 // added to the writer's estimate by a store that took
}

// storeClass builds a holder o and a value x and hands them to store from
// the writing task, before any join could fold what the store recorded.
type storeClass struct {
	name  string
	setup func(tk *Task, store func(w *Task, o mem.Ref, x mem.Ref))
	want  storeWant
}

// storeRows are the tally rows a store may move. The ancestry query count is
// the ancestry cache's business and is tested on its own.
var storeRows = []trace.Count{
	trace.Candidates, trace.DownPointers, trace.EntangledWrites,
	trace.Pins, trace.PinDepthLowered, trace.PinAlready, trace.PinBusy,
	trace.PinForwarded, trace.PinRetries, trace.SlowReads, trace.EntangledReads,
}

// entriesOf counts the remembered and pinned entries recorded against h.
func entriesOf(h *hierarchy.Heap) (remembered, pinned int) {
	h.ForEachRemembered(func(hierarchy.RememberedEntry) { remembered++ })
	h.ForEachPinned(func(mem.Ref) { pinned++ })
	return remembered, pinned
}

var storeClasses = []storeClass{
	{
		name: "same chunk",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			o := tk.AllocArray(1, mem.Nil)
			store(tk, o, tk.AllocTuple(mem.Int(1)))
		},
	},
	{
		name: "same heap, other chunk",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			o := tk.AllocArray(1, mem.Nil)
			x := tk.AllocTuple(mem.Int(1))
			for x.Chunk() == o.Chunk() {
				x = tk.AllocTuple(mem.Int(1))
			}
			store(tk, o, x)
		},
	},
	{
		name: "up-pointer",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			x := tk.AllocTuple(mem.Int(1))
			tk.Par(func(l *Task) mem.Value {
				store(l, l.AllocArray(1, mem.Nil), x)
				return mem.Nil
			}, nop)
		},
	},
	{
		name: "down-pointer into the writer's heap",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			o := tk.AllocArray(1, mem.Nil)
			tk.Par(func(l *Task) mem.Value {
				store(l, o, l.AllocTuple(mem.Int(1)))
				return mem.Nil
			}, nop)
		},
		want: storeWant{candidates: 1, downPointers: 1, remembered: 1, candidate: true},
	},
	{
		// The field already points into the writer's heap, so it is already
		// remembered: the store adds no entry and counts the box it displaces
		// (a one-field tuple and its header).
		name: "down-pointer overwriting one into the writer's heap",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			o := tk.AllocArray(1, mem.Nil)
			tk.Par(func(l *Task) mem.Value {
				l.Write(o, 0, l.AllocTuple(mem.Int(1)).Value())
				store(l, o, l.AllocTuple(mem.Int(2)))
				return mem.Nil
			}, nop)
		},
		want: storeWant{downPointers: 1, candidate: true, overwritten: 2},
	},
	{
		// The field points into the holder's own heap: the store displaces
		// nothing of the writer's, and the field is remembered.
		name: "down-pointer overwriting one into the holder's heap",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			o := tk.AllocArray(1, mem.Nil)
			tk.Write(o, 0, tk.AllocTuple(mem.Int(1)).Value())
			tk.Par(func(l *Task) mem.Value {
				store(l, o, l.AllocTuple(mem.Int(2)))
				return mem.Nil
			}, nop)
		},
		want: storeWant{candidates: 1, downPointers: 1, remembered: 1, candidate: true},
	},
	{
		// The writer is a grandchild of the holder's heap and the value
		// lies in its parent's: the entry is published to that heap.
		name: "down-pointer into another heap",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			o := tk.AllocArray(1, mem.Nil)
			tk.Par(func(p *Task) mem.Value {
				x := p.AllocTuple(mem.Int(1))
				p.Par(func(l *Task) mem.Value {
					store(l, o, x)
					return mem.Nil
				}, nop)
				return mem.Nil
			}, nop)
		},
		want: storeWant{candidates: 1, downPointers: 1, remembered: 1, candidate: true},
	},
	{
		// The right branch reaches the left branch's array through an
		// entangled read and stores its own fresh box into it: the box is
		// published to a concurrent heap and is pinned there and then.
		name: "cross-pointer",
		setup: func(tk *Task, store func(*Task, mem.Ref, mem.Ref)) {
			shared := tk.AllocArray(1, mem.Nil)
			tk.Par(func(l *Task) mem.Value {
				l.Write(shared, 0, l.AllocArray(1, mem.Nil).Value())
				return mem.Nil
			}, func(r *Task) mem.Value {
				o := r.Read(shared, 0).Ref()
				store(r, o, r.AllocTuple(mem.Int(1)))
				return mem.Nil
			})
		},
		want: storeWant{candidates: 1, entangledWrites: 1, pins: 1, pinned: 1, candidate: true},
	},
}

func nop(*Task) mem.Value { return mem.Nil }

func TestStoreClassesThroughTask(t *testing.T) {
	for _, c := range storeClasses {
		for _, op := range storeOps {
			t.Run(c.name+"/"+op.name, func(t *testing.T) {
				stores := 0
				runDrops(t, Config{Procs: 1}, func(tk *Task) error {
					var failed error
					c.setup(tk, func(w *Task, o, x mem.Ref) {
						stores++
						failed = checkStore(w, op, o, x, c.want)
					})
					return failed
				})
				if stores != 1 {
					t.Fatalf("the class stored %d times, want 1", stores)
				}
			})
		}
	}
}

// checkStore runs op from w and compares what it recorded with want.
func checkStore(w *Task, op storeOp, o, x mem.Ref, want storeWant) error {
	sp := w.rt.space
	xh := hierarchy.OwnerOf(sp.ChunkOf(x))
	tally, overwritten := w.heap.Tally, w.heap.Overwritten
	rem, pin := entriesOf(xh)
	stored := op.do(w, o, x.Value())

	if got := sp.Load(o, 0) == x.Value(); got != stored {
		return fmt.Errorf("field holds the value: %v, want %v", got, stored)
	}
	for _, row := range storeRows {
		var n int64
		switch row {
		case trace.Candidates:
			n = want.candidates
		case trace.DownPointers:
			n = want.downPointers
		case trace.EntangledWrites:
			n = want.entangledWrites
		case trace.Pins:
			n = want.pins
		}
		if d := w.heap.Tally[row] - tally[row]; d != n {
			return fmt.Errorf("tally row %s moved by %d, want %d", trace.Counts[row].Name, d, n)
		}
	}
	rem2, pin2 := entriesOf(xh)
	if rem2-rem != want.remembered || pin2-pin != want.pinned {
		return fmt.Errorf("value's heap gained %d remembered and %d pinned entries, want %d and %d",
			rem2-rem, pin2-pin, want.remembered, want.pinned)
	}
	if got := sp.Header(o).Candidate(); got != want.candidate {
		return fmt.Errorf("holder's candidate bit %v, want %v", got, want.candidate)
	}
	wantOver := overwritten
	if stored {
		wantOver += want.overwritten
	}
	if w.heap.Overwritten != wantOver {
		return fmt.Errorf("Overwritten %d, want %d", w.heap.Overwritten, wantOver)
	}
	return nil
}

// TestCounterLeafAsksOncePerHeap: in a counter-shaped loop — ParFor leaves
// read a slot of an ancestor's array and CAS a fresh box of their own into
// it — the read asks the ancestry oracle about the box's heap and the CAS
// about the array's, in turn. The leaf's ancestry cache holds both answers,
// so each leaf asks at most once per heap it reaches; a one-entry cache asks
// twice per increment.
func TestCounterLeafAsksOncePerHeap(t *testing.T) {
	const n, cells, grain = 4096, 16, 256
	runDrops(t, Config{Procs: 1}, func(tk *Task) error {
		f := counterCells(tk, cells)
		defer f.Pop()
		var failed error
		leaves := 0
		tk.ParFor(0, n, grain, func(t *Task, lo, hi int) {
			leaves++
			sp := t.rt.space
			heaps := map[*hierarchy.Heap]bool{hierarchy.OwnerOf(sp.ChunkOf(f.Ref(0))): true}
			before := t.heap.Tally[trace.AncestryQueries]
			b := t.NewFrame(1)
			for i := lo; i < hi; i++ {
				for {
					b.Set(0, t.Read(f.Ref(0), i%cells))
					if h := hierarchy.OwnerOf(sp.ChunkOf(b.Ref(0))); h != t.heap {
						heaps[h] = true // the leaf's own heap is never asked about
					}
					nb := t.AllocTuple(mem.Int(t.Read(b.Ref(0), 0).AsInt() + 1))
					if t.CAS(f.Ref(0), i%cells, b.Get(0), nb.Value()) {
						break
					}
				}
			}
			b.Pop()
			if q := t.heap.Tally[trace.AncestryQueries] - before; q > int64(len(heaps)) && failed == nil {
				failed = fmt.Errorf("leaf [%d,%d) tallied %d ancestry queries reaching %d heaps", lo, hi, q, len(heaps))
			}
		})
		if leaves != n/grain {
			return fmt.Errorf("%d leaves ran, want %d", leaves, n/grain)
		}
		var sum int64
		for i := 0; i < cells; i++ {
			sum += tk.Read(tk.Read(f.Ref(0), i).Ref(), 0).AsInt()
		}
		if sum != n {
			return fmt.Errorf("the cells sum to %d, want %d", sum, n)
		}
		return failed
	})
}
