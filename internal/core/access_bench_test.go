package core

import (
	"testing"

	"mplgo/internal/entangle"
	"mplgo/internal/mem"
)

// The access microbenchmarks price the barrier fast paths the T1 overhead
// table is made of: non-candidate reads (one fused load + bit test),
// same-heap writes (no second chunk resolution when holder and value share
// a chunk, one when they do not), CAS, and for contrast the entangled read
// slow path and counter's down-pointer CAS.

// benchTask runs body inside a fresh single-worker runtime so the
// benchmark loop executes on a real task with barriers enabled.
func benchTask(b *testing.B, cfg Config, body func(t *Task)) {
	b.Helper()
	rt := New(cfg)
	if _, err := rt.Run(func(t *Task) mem.Value {
		body(t)
		return mem.Nil
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReadImmediate(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		arr := t.AllocArray(64, mem.Int(7))
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += t.Read(arr, i&63).AsInt()
		}
		_ = sink
	})
}

func BenchmarkReadRefNonCandidate(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		f := t.NewFrame(1)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())
		for i := 0; i < 64; i++ {
			box := t.AllocTuple(mem.Int(int64(i)))
			t.Write(f.Ref(0), i, box.Value())
		}
		arr := f.Ref(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !t.Read(arr, i&63).IsRef() {
				b.Fatal("expected ref")
			}
		}
		b.StopTimer()
		f.Pop()
	})
}

func BenchmarkReadUnsafeMode(b *testing.B) {
	benchTask(b, Config{Procs: 1, Mode: entangle.Unsafe}, func(t *Task) {
		arr := t.AllocArray(64, mem.Int(7))
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += t.Read(arr, i&63).AsInt()
		}
		_ = sink
	})
}

func BenchmarkWriteImmediate(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		arr := t.AllocArray(64, mem.Int(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Write(arr, i&63, mem.Int(int64(i)))
		}
	})
}

func BenchmarkWriteRefSameHeap(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		f := t.NewFrame(2)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())
		f.Set(1, t.AllocTuple(mem.Int(42)).Value())
		arr, box := f.Ref(0), f.Get(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Write(arr, i&63, box)
		}
		b.StopTimer()
		f.Pop()
	})
}

// BenchmarkWriteRefSameHeapOtherChunk prices the same-heap fast path when
// the value lies in another chunk of the holder's heap: the value's chunk is
// resolved and the two heap ids compared.
func BenchmarkWriteRefSameHeapOtherChunk(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		f := t.NewFrame(2)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())
		box := t.AllocTuple(mem.Int(42))
		for box.Chunk() == f.Ref(0).Chunk() {
			box = t.AllocTuple(mem.Int(42))
		}
		f.Set(1, box.Value())
		arr, v := f.Ref(0), f.Get(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Write(arr, i&63, v)
		}
		b.StopTimer()
		f.Pop()
	})
}

func BenchmarkCASImmediate(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		arr := t.AllocArray(1, mem.Int(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !t.CAS(arr, 0, mem.Int(int64(i)), mem.Int(int64(i+1))) {
				b.Fatal("CAS must succeed uncontended")
			}
		}
	})
}

// BenchmarkReadEntangledSlowPath prices the slow path: reads through a
// candidate holder of a concurrent object (pin + ancestry check per read).
func BenchmarkReadEntangledSlowPath(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		shared := t.AllocArray(1, mem.Nil)
		t.Par(
			func(l *Task) mem.Value {
				box := l.AllocTuple(mem.Int(99))
				l.Write(shared, 0, box.Value()) // down-pointer: shared becomes candidate
				return mem.Nil
			},
			func(r *Task) mem.Value {
				v := r.Read(shared, 0)
				if !v.IsRef() {
					b.Fatal("expected published ref")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Read(shared, 0)
				}
				b.StopTimer()
				return mem.Nil
			},
		)
	})
}

// BenchmarkCASDownPointer prices counter's store: a forked leaf CASes a box
// of its own heap into an ancestor's array, over a box it published there
// before — a down-pointer into the writer's heap whose field is already
// remembered, so each CAS sets no bit and adds no entry, and counts the box
// it displaces.
func BenchmarkCASDownPointer(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		arr := t.AllocArray(1, mem.Nil)
		t.Par(func(l *Task) mem.Value {
			boxes := [2]mem.Value{l.AllocTuple(mem.Int(0)).Value(), l.AllocTuple(mem.Int(1)).Value()}
			l.Write(arr, 0, boxes[0])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !l.CAS(arr, 0, boxes[i&1], boxes[(i+1)&1]) {
					b.Fatal("CAS must succeed uncontended")
				}
			}
			b.StopTimer()
			return mem.Nil
		}, nop)
	})
}

// BenchmarkAllocTuple prices allocation including the amortized GC check.
func BenchmarkAllocTuple(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.AllocTuple(mem.Int(1), mem.Int(2))
		}
	})
}

// Unchecked twins of the benchmarks above: what a statically-proven
// disentangled site pays after barrier elision. Compare against
// BenchmarkReadImmediate / BenchmarkReadRefNonCandidate /
// BenchmarkWriteImmediate / BenchmarkWriteRefSameHeap.

func BenchmarkReadFast(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		arr := t.AllocArray(64, mem.Int(7))
		b.ResetTimer()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += t.ReadFast(arr, i&63).AsInt()
		}
		_ = sink
	})
}

func BenchmarkReadRefFast(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		f := t.NewFrame(1)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())
		for i := 0; i < 64; i++ {
			box := t.AllocTuple(mem.Int(int64(i)))
			t.Write(f.Ref(0), i, box.Value())
		}
		arr := f.Ref(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !t.ReadFast(arr, i&63).IsRef() {
				b.Fatal("expected ref")
			}
		}
		b.StopTimer()
		f.Pop()
	})
}

func BenchmarkWriteFast(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		arr := t.AllocArray(64, mem.Int(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.WriteFast(arr, i&63, mem.Int(int64(i)))
		}
	})
}

func BenchmarkWriteRefFast(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		f := t.NewFrame(2)
		f.Set(0, t.AllocArray(64, mem.Nil).Value())
		f.Set(1, t.AllocTuple(mem.Int(42)).Value())
		arr, box := f.Ref(0), f.Get(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.WriteFast(arr, i&63, box)
		}
		b.StopTimer()
		f.Pop()
	})
}

// BenchmarkAllocRef / BenchmarkAllocRefFast price the guarded vs
// unguarded ref-cell allocation path.
func BenchmarkAllocRef(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.AllocRef(mem.Int(int64(i)))
		}
	})
}

func BenchmarkAllocRefFast(b *testing.B) {
	benchTask(b, Config{Procs: 1}, func(t *Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.AllocRefFast(mem.Int(int64(i)))
		}
	})
}
