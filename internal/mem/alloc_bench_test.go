package mem

import (
	"testing"
	"time"
)

// BenchmarkAllocRecycled times the mutator's allocation into fresh chunks,
// which Go's make zeroes, and into recycled ones, which the previous round
// filled and released: 2-field tuples (AllocTuple) and 64-slot arrays of
// Nil (AllocArray with a zero value). Each round allocates 2^16 words with
// a new allocator, so its refills climb the size classes as a new heap's
// do; the timer covers the allocations and their refills (make included),
// not the release between rounds. The metric is ns per allocated word.
func BenchmarkAllocRecycled(b *testing.B) {
	const round = 1 << 16
	for _, obj := range []struct {
		name  string
		words int
		alloc func(a *Allocator)
	}{
		{"tuple", 3, func(a *Allocator) { a.AllocTuple(Int(1), Int(2)) }},
		{"array64", 65, func(a *Allocator) { a.AllocArray(64, Nil) }},
	} {
		for _, recycled := range []bool{false, true} {
			name := obj.name + "/fresh"
			if recycled {
				name = obj.name + "/recycled"
			}
			b.Run(name, func(b *testing.B) {
				s := NewSpace()
				fill := func() time.Duration {
					a := NewAllocator(s, 1)
					start := time.Now()
					for w := 0; w < round; w += obj.words {
						obj.alloc(a)
					}
					elapsed := time.Since(start)
					for _, c := range a.Chunks {
						s.Release(c)
					}
					return elapsed
				}
				fill() // the recycled rounds' chunks
				var spent time.Duration
				for i := 0; i < b.N; i++ {
					if !recycled {
						s = NewSpace()
					}
					spent += fill()
				}
				b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N*round), "ns/word")
			})
		}
	}
}

// BenchmarkNewChunk times the recycled refill: a NewChunk that takes a
// free chunk and the Release that puts it back, ns per pair, both under
// the space's mutex, on one goroutine. "classes" asks each class in turn
// of a space holding 64 free chunks of every class, which each refill
// finds on the first list it looks at; "tails" asks for 4 097 words of a
// space whose free lists hold only 4 112-word tails GiveBack handed back,
// the longest scan that still recycles: from the 8 192-word list down 255
// empty lists.
func BenchmarkNewChunk(b *testing.B) {
	b.Run("classes", func(b *testing.B) {
		s := NewSpace()
		var held []*Chunk
		for words := MinChunkWords; words <= ChunkWords; words *= 2 {
			for range 64 {
				held = append(held, s.NewChunk(1, words))
			}
		}
		for _, c := range held {
			s.Release(c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Release(s.NewChunk(1, MinChunkWords<<(i%6)))
		}
	})
	b.Run("tails", func(b *testing.B) {
		s := NewSpace()
		var heads []*Chunk
		for range 64 {
			c := s.NewChunk(1, ChunkWords)
			c.Alloc = ChunkWords/2 - granuleWords
			s.GiveBack(c)
			heads = append(heads, c)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Release(s.NewChunk(1, ChunkWords/2+1))
		}
		b.StopTimer()
		for _, c := range heads {
			s.Release(c)
		}
	})
}
