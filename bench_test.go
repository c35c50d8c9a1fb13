// Ablation benchmarks for the design decisions DESIGN.md §6 calls out:
//
//	go test -run '^$' -bench BenchmarkAblate -benchmem
//
// The paper's tables and figures are not here: the repo benchmark
// (benchmark/) measures time, space, elision and attribution, and
// `go run ./cmd/mplgo-paper` writes the rest (experiment index in
// DESIGN.md §5).
package mplgo

import (
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/mpl"
)

// BenchmarkAblateMergeCost shows join-time heap merging is O(chunks), not
// O(objects): merge cost scales with the chunk count, independent of how
// many objects the chunks hold (heap identity lives on chunks).
func BenchmarkAblateMergeCost(b *testing.B) {
	for _, nchunks := range []int{16, 256} {
		b.Run(map[int]string{16: "16-chunks", 256: "256-chunks"}[nchunks], func(b *testing.B) {
			sp := mem.NewSpace()
			tr := hierarchy.New()
			root := tr.Root()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				child := tr.Fork(root)
				for j := 0; j < nchunks; j++ {
					c := sp.NewChunk(child.ID, mem.ChunkWords)
					c.Alloc = c.Words() // fully occupied
					child.Chunks = append(child.Chunks, c)
				}
				b.StartTimer()
				tr.Merge(child, root, sp)
				b.StopTimer()
				for _, c := range root.Chunks {
					sp.Release(c)
				}
				root.Chunks = root.Chunks[:0]
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblateReadBarrier prices the read barrier: reads of ordinary
// objects (fast path: one header test) vs candidate objects whose slow
// path classifies the edge — the cost disentangled data is shielded from.
func BenchmarkAblateReadBarrier(b *testing.B) {
	run := func(b *testing.B, candidate bool) {
		rt := mpl.New(mpl.Config{Procs: 1})
		if _, err := rt.Run(func(t *mpl.Task) mpl.Value {
			tgt := t.AllocTuple(mpl.Int(5))
			holder := t.AllocArray(1, mpl.Nil)
			t.Write(holder, 0, tgt.Value())
			if candidate {
				rt.Space().SetCandidate(holder)
			}
			b.ResetTimer()
			var sink mpl.Value
			for i := 0; i < b.N; i++ {
				sink = t.Read(holder, 0)
			}
			return sink
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fast-path", func(b *testing.B) { run(b, false) })
	b.Run("candidate-slow-path", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblateUnpin shows why join-time unpinning matters: merging a
// heap whose pinned list has reached its unpin depth releases the pins
// (and, transitively, their chunks) in one pass.
func BenchmarkAblateUnpin(b *testing.B) {
	const pins = 256
	sp := mem.NewSpace()
	tr := hierarchy.New()
	root := tr.Root()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		child := tr.Fork(root)
		al := mem.NewAllocator(sp, child.ID)
		for j := 0; j < pins; j++ {
			r := al.AllocRef(mem.Int(int64(j)))
			sp.Pin(r, 0)
			child.AddPinned(r)
		}
		child.Chunks = al.Chunks
		b.StartTimer()
		if n, _ := tr.Merge(child, root, sp); n != pins {
			b.Fatalf("unpinned %d, want %d", n, pins)
		}
		b.StopTimer()
		for _, c := range root.Chunks {
			sp.Release(c)
		}
		root.Chunks = root.Chunks[:0]
		root.Pinned.Reset()
		b.StartTimer()
	}
}

// BenchmarkAblateAncestor compares the O(1) ancestor test (the fork-path
// prefix test, on a depth-256 spine with spilled paths) against naive
// parent walking on a deep hierarchy.
func BenchmarkAblateAncestor(b *testing.B) {
	tr := hierarchy.New()
	h := tr.Root()
	for i := 0; i < 256; i++ {
		h = tr.Fork(h)
	}
	leaf := h
	root := tr.Root()
	walk := func(a, d *hierarchy.Heap) bool {
		for x := d; x != nil; x = x.Parent() {
			if x == a {
				return true
			}
		}
		return false
	}
	for _, mode := range []struct {
		name       string
		isAncestor func(a, d *hierarchy.Heap) bool
	}{{"fork-path", tr.IsAncestor}, {"parent-walk", walk}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !mode.isAncestor(root, leaf) {
					b.Fatal("ancestry broken")
				}
			}
		})
	}
}

// BenchmarkAblateLazyPin prices lazy pinning: the entangled read that pins
// an object (first touch) vs subsequent entangled reads of the already
// pinned object vs an eager-transitive alternative, approximated by the
// number of pins the lazy scheme avoids (reported as a metric).
func BenchmarkAblateLazyPin(b *testing.B) {
	// A chain of k objects published through one down-pointer: lazy
	// pinning pins only the objects the reader actually traverses.
	const k = 64
	for _, hops := range []int{1, k} {
		name := "touch-1"
		if hops == k {
			name = "touch-all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rt := mpl.New(mpl.Config{Procs: 1})
				if _, err := rt.Run(func(t *mpl.Task) mpl.Value {
					shared := t.AllocArray(1, mpl.Nil)
					t.Par(
						func(l *mpl.Task) mpl.Value {
							f := l.NewFrame(1)
							for j := 0; j < k; j++ {
								f.Set(0, l.AllocTuple(mpl.Int(int64(j)), f.Get(0)).Value())
							}
							l.Write(shared, 0, f.Get(0))
							f.Pop()
							return mpl.Nil
						},
						func(r *mpl.Task) mpl.Value {
							v := r.Read(shared, 0)
							for h := 1; h < hops && v.IsRef(); h++ {
								v = r.Read(v.Ref(), 1)
							}
							return mpl.Nil
						},
					)
					return mpl.Nil
				}); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(rt.EntStats().Pins), "pins")
				}
			}
		})
	}
}
