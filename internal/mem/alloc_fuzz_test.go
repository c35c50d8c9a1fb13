package mem

import (
	"math/bits"
	"testing"
)

// FuzzAllocator drives one Allocator with a random sequence of allocations
// (every kind, payloads 0 … 3·ChunkWords), Retargets and release-everything
// steps, against a model of what the space should have handed out:
//
//   - every chunk is the class size the growth rule predicts, or exactly
//     the oversize request;
//   - objects are bump-allocated densely — no two overlap, and every chunk
//     parses header by header up to Alloc;
//   - every payload is zero on arrival, also in a recycled chunk the
//     previous round filled with a pattern;
//   - a Ref round-trips chunk id and offset;
//   - LiveWords is the sum of the sizes of the chunks not yet released.
//
// The input is an op stream, three bytes per op: an opcode and a 16-bit
// size. The checked-in corpus is under testdata/fuzz/FuzzAllocator.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00}) // one empty tuple
	kinds := [...]Kind{KTuple, KArray, KRefCell, KRaw}
	f.Fuzz(func(t *testing.T, ops []byte) {
		type object struct {
			off, n int
			kind   Kind
			fill   uint64
		}
		s := NewSpace()
		a := NewAllocator(s, 1)
		objs := map[*Chunk][]object{} // per live chunk, in allocation order
		var grow, budget int
		var fill uint64

		for ; len(ops) >= 3 && budget < 1<<19; ops = ops[3:] {
			op, size := ops[0], int(ops[1])|int(ops[2])<<8
			switch op & 7 {
			case 6:
				a.Retarget(uint32(1 + size%7))
				continue
			case 7:
				for c := range objs {
					s.Release(c)
				}
				clear(objs)
				a.Retarget(a.Heap()) // drops the released bump chunk
				if live := s.LiveWords(); live != 0 {
					t.Fatalf("%d words live after releasing every chunk", live)
				}
				continue
			}
			kind := kinds[op&3]
			n := size
			switch op >> 3 & 3 {
			case 0:
				n %= 64
			case 1:
				n %= 1024
			default:
				n = size * 3 * ChunkWords / 0xffff
			}
			total := max(n, 1) + 1
			budget += total

			had := len(a.Chunks)
			r := a.Alloc(kind, n)
			c := s.ChunkByID(r.Chunk())
			if c == nil || MakeRef(c.ID, r.Off()) != r {
				t.Fatalf("ref %v does not round-trip through chunk %v", r, c)
			}
			if len(a.Chunks) > had {
				if len(a.Chunks) != had+1 || a.Chunks[had] != c {
					t.Fatalf("object %v is not in the chunk the refill obtained", r)
				}
				if _, dup := objs[c]; dup {
					t.Fatalf("chunk %d handed out while still live", c.ID)
				}
				want := max(total, grow)
				if want <= ChunkWords {
					want = max(MinChunkWords, 1<<bits.Len(uint(want-1)))
				}
				if c.Words() != want {
					t.Fatalf("refill for %d words at grow %d got a %d-word chunk, want %d",
						total, grow, c.Words(), want)
				}
				grow = min(2*want, ChunkWords)
				if c.HeapID() != a.Heap() || r.Off() != 0 {
					t.Fatalf("fresh chunk %d: heap %d, first object at %d", c.ID, c.HeapID(), r.Off())
				}
				objs[c] = nil
			} else if had == 0 || a.Chunks[had-1] != c {
				t.Fatalf("object %v landed outside the current bump chunk", r)
			}
			end := 0
			if prev := objs[c]; len(prev) > 0 {
				end = prev[len(prev)-1].off + max(prev[len(prev)-1].n, 1) + 1
			}
			if r.Off() != end || end+total != c.Alloc || c.Alloc > c.Words() {
				t.Fatalf("object %v (%d words): previous end %d, Alloc %d of %d",
					r, total, end, c.Alloc, c.Words())
			}
			if hd := c.Data[r.Off()]; hd != MakeHeader(kind, n) {
				t.Fatalf("object %v header %#x, want %#x", r, hd, MakeHeader(kind, n))
			}
			fill += 0x9E3779B97F4A7C15
			for i := r.Off() + 1; i < c.Alloc; i++ {
				if c.Data[i] != 0 {
					t.Fatalf("object %v payload word %d = %#x on arrival", r, i-r.Off()-1, c.Data[i])
				}
				c.Data[i] = fill | 1
			}
			objs[c] = append(objs[c], object{r.Off(), n, kind, fill | 1})
		}

		var owned int64
		for c, list := range objs {
			owned += int64(c.Words())
			off := 0
			for _, o := range list {
				hd := Header(c.Data[off])
				if off != o.off || hd.Kind() != o.kind || hd.Len() != o.n {
					t.Fatalf("chunk %d offset %d: header %#x, model has %v/%d at %d",
						c.ID, off, uint64(hd), o.kind, o.n, o.off)
				}
				for i := off + 1; i < off+1+max(o.n, 1); i++ {
					if c.Data[i] != o.fill {
						t.Fatalf("chunk %d: object at %d overwritten at word %d", c.ID, off, i)
					}
				}
				off += max(o.n, 1) + 1
			}
			if off != c.Alloc {
				t.Fatalf("chunk %d parses to %d, Alloc is %d", c.ID, off, c.Alloc)
			}
			for i := c.Alloc; i < c.Words(); i++ {
				if c.Data[i] != 0 {
					t.Fatalf("chunk %d word %d beyond Alloc = %#x", c.ID, i, c.Data[i])
				}
			}
		}
		if live := s.LiveWords(); live != owned {
			t.Fatalf("LiveWords %d, live chunks hold %d", live, owned)
		}
	})
}
