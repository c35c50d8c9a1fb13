// Benchmark harness: one testing.B benchmark per table and figure of the
// paper that the repo benchmark (benchmark/) does not measure (experiment
// index in DESIGN.md §5), plus the ablation benchmarks for the design
// decisions DESIGN.md §6 calls out.
//
//	go test -bench=. -benchmem
//
// The per-table drivers that print the paper-shaped rows live in
// internal/tables and are exercised by `go run ./cmd/mplgo-bench`.
package mplgo

import (
	"testing"

	"mplgo/internal/bench"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/sim"
	"mplgo/mpl"
)

// benchSizes trims default problem sizes so the full harness completes in
// minutes on one core.
var benchSizes = map[string]int{
	"fib": 22, "mcss": 50_000, "primes": 20_000, "integrate": 100_000,
	"nqueens": 8, "msort": 10_000, "quickhull": 10_000, "tokens": 100_000,
	"wc": 100_000, "spmv": 1_000, "dedup": 10_000, "bfs": 10_000,
	"counter": 10_000, "memoize": 20_000, "pipeline": 10_000,
	"grep": 50_000, "histogram": 30_000, "filter": 50_000,
	"treesum": 12, "matmul": 32,
}

func sizeOf(b bench.Benchmark) int {
	if n, ok := benchSizes[b.Name]; ok {
		return n
	}
	return b.DefaultN
}

func runMPL(b *testing.B, bm bench.Benchmark, n int, cfg mpl.Config) *mpl.Runtime {
	var rt *mpl.Runtime
	for i := 0; i < b.N; i++ {
		rt = mpl.New(cfg)
		if _, err := rt.Run(func(t *mpl.Task) mpl.Value {
			return mpl.Int(bm.MPL(t, n))
		}); err != nil && cfg.Mode != mpl.Detect {
			b.Fatal(err)
		}
	}
	return rt
}

// BenchmarkFigureSpeedup regenerates figure F1: each sub-benchmark records
// a trace once and reports replayed speedups at 8 and 64 processors.
func BenchmarkFigureSpeedup(b *testing.B) {
	for _, name := range []string{"fib", "msort", "primes", "mcss", "dedup", "bfs"} {
		bm, ok := bench.ByName(name)
		if !ok {
			b.Fatalf("unknown benchmark %s", name)
		}
		n := sizeOf(bm)
		b.Run(name, func(b *testing.B) {
			rt := runMPL(b, bm, n, mpl.Config{Procs: 1, Record: true})
			curve := mpl.Speedup(rt, []int{8, 64}, 200)
			b.ReportMetric(curve[0], "speedup8")
			b.ReportMetric(curve[1], "speedup64")
		})
	}
}

// BenchmarkTableLang regenerates experiment T3: native Go vs the
// hierarchical runtime on the comparison benchmarks.
func BenchmarkTableLang(b *testing.B) {
	for _, name := range []string{"fib", "primes", "msort", "mcss", "dedup", "bfs"} {
		bm, _ := bench.ByName(name)
		n := sizeOf(bm)
		b.Run(name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bm.Native(n)
			}
		})
		b.Run(name+"/mpl1", func(b *testing.B) {
			runMPL(b, bm, n, mpl.Config{Procs: 1})
		})
	}
}

// BenchmarkTableEntangle regenerates experiment T4: the entanglement cost
// metrics of the entangled suite under parallel execution, as metrics.
func BenchmarkTableEntangle(b *testing.B) {
	for _, bm := range bench.All {
		if !bm.Entangled {
			continue
		}
		bm := bm
		n := sizeOf(bm)
		b.Run(bm.Name, func(b *testing.B) {
			rt := runMPL(b, bm, n, mpl.Config{Procs: 2})
			s := rt.EntStats()
			b.ReportMetric(float64(s.EntangledReads), "eReads")
			b.ReportMetric(float64(s.Pins), "pins")
			b.ReportMetric(float64(s.PinnedPeak), "pinPeak")
		})
	}
}

// BenchmarkFigureAblate regenerates figure F2: the barrier-mode ablation
// (manage vs detect vs no barriers) on a disentangled and an entangled
// representative.
func BenchmarkFigureAblate(b *testing.B) {
	modes := []struct {
		name string
		mode mpl.Mode
	}{{"manage", mpl.Manage}, {"detect", mpl.Detect}, {"unsafe", mpl.Unsafe}}
	for _, name := range []string{"msort", "tokens", "mcss"} {
		bm, _ := bench.ByName(name)
		n := sizeOf(bm)
		for _, m := range modes {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				runMPL(b, bm, n, mpl.Config{Procs: 1, Mode: m.mode})
			})
		}
	}
	// Entangled representative: only manage is sound and accepted.
	bm, _ := bench.ByName("dedup")
	b.Run("dedup/manage", func(b *testing.B) {
		runMPL(b, bm, sizeOf(bm), mpl.Config{Procs: 1})
	})
}

// BenchmarkFigureSpaceCurve regenerates figure F3's inputs: residency at
// P=1 plus the replayed busy-processor peaks that drive the space model.
func BenchmarkFigureSpaceCurve(b *testing.B) {
	for _, name := range []string{"msort", "mcss", "dedup", "pipeline"} {
		bm, _ := bench.ByName(name)
		n := sizeOf(bm)
		b.Run(name, func(b *testing.B) {
			rt := runMPL(b, bm, n, mpl.Config{Procs: 1, Record: true})
			b.ReportMetric(float64(rt.MaxLiveWords()), "R1-words")
			res := sim.Replay(rt.Trace(), sim.ReplayConfig{P: 64, StealCost: 200})
			b.ReportMetric(float64(res.BusyPeak), "busy64")
		})
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks for DESIGN.md §6's design decisions.

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
