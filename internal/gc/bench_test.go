package gc

import (
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// BenchmarkCollectRecycledToSpace times one local collection of a list of
// 3-word cells, all live, the copy kernel's own workload: into a fresh space,
// whose to-space chunks Go allocates zeroed, and into a space whose free
// lists hold the chunks a garbage list of the same shape filled and
// released, so that every to-space refill recycles a dirty chunk — what a
// heap that collects over and over, as gc-churn's do, gets. The metric is
// ns per copied word; setup is outside the timer.
func BenchmarkCollectRecycledToSpace(b *testing.B) {
	const cells = 1 << 13
	list := func(s *mem.Space, heap uint32, root *rootSlot) []*mem.Chunk {
		al := mem.NewAllocator(s, heap)
		for i := 0; i < cells; i++ {
			root.v = al.AllocTuple(mem.Int(int64(i)), root.v).Value()
		}
		return al.Chunks
	}
	for _, recycled := range []bool{false, true} {
		name := "fresh"
		if recycled {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			var words int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, tr := mem.NewSpace(), hierarchy.New()
				h := tr.Root()
				col := New(s, tr)
				if recycled {
					for _, c := range list(s, h.ID, &rootSlot{}) {
						s.Release(c)
					}
				}
				root := &rootSlot{}
				h.Chunks = list(s, h.ID, root)
				h.AddRootSet(root)
				b.StartTimer()
				res := col.Collect([]*hierarchy.Heap{h})
				if res.CopiedWords != 3*cells {
					b.Fatalf("copied %d words, want %d", res.CopiedWords, 3*cells)
				}
				words += res.CopiedWords
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(words), "ns/word")
		})
	}
}
