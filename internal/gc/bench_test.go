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

// BenchmarkCollectRemembered times a leaf collection whose only roots are
// remembered down-pointers: a holder array in the root heap, each of whose
// fields points at a 1-word tuple in the leaf and is remembered once. In
// "copied" each tuple is the target of two fields, which refuses its chunk
// the in-place rule: every collection walks the entries, copies each
// target, redirects the fields and keeps the entries. In "in place" each
// tuple has a field of its own, and the 8 064 tuples fill the allocator's
// 256- to 8 192-word chunks, which every collection traces in place. The
// heap is collected over and over, each collection first taking the tenure
// off the leaf's chunks (a loop over a few chunks). The metric is ns per
// remembered entry.
func BenchmarkCollectRemembered(b *testing.B) {
	for _, tc := range []struct {
		name             string
		targets, entries int
		copied           int64
	}{{"copied", 1 << 12, 1 << 13, 1 << 12}, {"in place", 8064, 8064, 0}} {
		b.Run(tc.name, func(b *testing.B) {
			s, tr := mem.NewSpace(), hierarchy.New()
			col := New(s, tr)
			leaf := tr.Fork(tr.Root())
			root := mem.NewAllocator(s, tr.Root().ID)
			holder := root.AllocArray(tc.entries, mem.Nil)
			tr.Root().Chunks = root.Chunks
			al := mem.NewAllocator(s, leaf.ID)
			per := tc.entries / tc.targets
			for i := 0; i < tc.targets; i++ {
				v := al.AllocTuple(mem.Int(int64(i))).Value()
				for f := i * per; f < (i+1)*per; f++ {
					s.Store(holder, f, v)
					leaf.AddRemembered(holder, f)
				}
			}
			leaf.Chunks = al.Chunks
			scope := []*hierarchy.Heap{leaf}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				untenure(leaf)
				if res := col.Collect(scope); res.CopiedObjects != tc.copied {
					b.Fatalf("copied %d objects, want %d", res.CopiedObjects, tc.copied)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tc.entries), "ns/entry")
		})
	}
}

// BenchmarkCollectSurvivors times the collections of a leaf whose one live
// structure is a list of 3-word cells that survives every collection: the
// first copies it into to-space, filling every chunk at least half, and
// every later one traces it in place in those Tenured chunks. The metrics
// are ns per live word and the words each collection copies into to-space,
// which fall as 1/b.N: the list is copied once, whatever b.N is.
func BenchmarkCollectSurvivors(b *testing.B) {
	const cells = 10000
	s, tr := mem.NewSpace(), hierarchy.New()
	col := New(s, tr)
	leaf := tr.Fork(tr.Root())
	al := mem.NewAllocator(s, leaf.ID)
	root := &rootSlot{}
	for i := 0; i < cells; i++ {
		root.v = al.AllocTuple(mem.Int(int64(i)), root.v).Value()
		al.AllocTuple(mem.Int(0)) // garbage
	}
	leaf.Chunks = al.Chunks
	leaf.AddRootSet(root)
	scope := []*hierarchy.Heap{leaf}
	var copied int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copied += col.Collect(scope).CopiedWords
	}
	if copied != 3*cells {
		b.Fatalf("%d collections copied %d words, want %d: the list once", b.N, copied, 3*cells)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3*cells), "ns/word")
	b.ReportMetric(float64(copied)/float64(b.N), "to-space-words/op")
}

// BenchmarkCollectPinnedChunk times the collections of a leaf that holds a
// list of 3-word cells, every 100th of them pinned — the shape of
// gc-churn's churn-pinned leaf, whose list lives in chunks its pins keep.
// The heap is collected over and over. The metrics are ns per live word and
// the words each collection copies into to-space.
func BenchmarkCollectPinnedChunk(b *testing.B) {
	const cells = 1 << 13
	s, tr := mem.NewSpace(), hierarchy.New()
	col := New(s, tr)
	leaf := tr.Fork(tr.Root())
	al := mem.NewAllocator(s, leaf.ID)
	root := &rootSlot{}
	for i := 0; i < cells; i++ {
		cell := al.AllocTuple(mem.Int(int64(i)), root.v)
		root.v = cell.Value()
		if i%100 == 0 {
			s.Pin(cell, 0)
			leaf.AddPinned(cell)
		}
	}
	leaf.Chunks = al.Chunks
	leaf.AddRootSet(root)
	scope := []*hierarchy.Heap{leaf}
	var copied int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copied += col.Collect(scope).CopiedWords
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3*cells), "ns/word")
	b.ReportMetric(float64(copied)/float64(b.N), "to-space-words/op")
}
