package mem

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
	"unsafe"
)

// object is FuzzAllocator's model of one allocation: where it is, its
// length and kind, and the pattern the model wrote over its payload.
type object struct {
	off, n int
	kind   Kind
	fill   uint64
}

// FuzzAllocator drives one Allocator with a random sequence of allocations
// (every kind, payloads 0 … 3·ChunkWords), Retargets, give-backs of the
// bump chunk's tail and release-everything steps, against a model of what
// the space should have handed out:
//
//   - every refill takes the largest free chunk from the growth rule's
//     request up to its class size, else a fresh chunk of the class, or
//     exactly the oversize request;
//   - a give-back leaves the bump chunk at least its Alloc, takes a whole
//     number of granules off it and LiveWords with them; no two chunks,
//     owned or free, overlap; and once every chunk is released each arena
//     is one free chunk again;
//   - objects are bump-allocated densely — no two overlap, and every chunk
//     parses header by header up to Alloc;
//   - every payload is as Alloc wrote it — zero — on arrival, also in a
//     recycled chunk the previous round filled with a pattern, or that a
//     to-space tenant (Allocator.CopyIn) filled;
//   - a to-space tenant's first refill takes the recycled chunk it was
//     handed, and every copy it makes matches its original (toSpaceTenancy);
//   - the sweep turns each run of dead objects into one free span, and an
//     allocation carves a span on an exact fit or a split, never leaving
//     a one-word remainder, with the chunk still parsing (sweptSpans);
//   - a Ref round-trips chunk id and offset;
//   - LiveWords is the sum of the capacities of the chunks not yet released.
//
// The input is an op stream, three bytes per op: an opcode and a 16-bit
// size. Opcode 6 retargets, or, with bit 3 of it set, gives back the bump
// chunk's tail and starts a new allocator, as a branch returning and the
// next beginning. Opcode 7 releases every chunk, or, with bits 3–4 of it
// reading 3, sweeps a chunk and carves from its spans, and with any other
// of its bits 3–7 set runs a to-space tenancy. The checked-in corpus is under
// testdata/fuzz/FuzzAllocator.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00}) // one empty tuple
	// Two tuples, the tail given back and taken by the next refill, which
	// gives back its own; a large array; everything released.
	f.Add([]byte{0x00, 40, 0, 0x00, 7, 0, 0x0e, 0, 0, 0x08, 30, 0, 0x0e, 0, 0, 0x01, 200, 0, 0x07, 0, 0})
	kinds := [...]Kind{KTuple, KArray, KRefCell, KRaw}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSpace()
		a := NewAllocator(s, 1)
		objs := map[*Chunk][]object{} // per live chunk, in allocation order
		var grow, budget int
		var fill uint64

		for ; len(ops) >= 3 && budget < 1<<19; ops = ops[3:] {
			op, size := ops[0], int(ops[1])|int(ops[2])<<8
			switch op & 7 {
			case 6:
				if op>>3&1 == 0 {
					a.Retarget(uint32(1 + size%7))
					continue
				}
				// A branch returns, and the next starts a new allocator on
				// the same heap.
				if c := a.cur; c != nil {
					words, live := c.Words(), s.LiveWords()
					a.GiveBack()
					back := words - c.Words()
					if c.Words() < c.Alloc || back%granuleWords != 0 || s.LiveWords() != live-int64(back) {
						t.Fatalf("give-back of chunk %d (Alloc %d): %d words left of %d, LiveWords %d → %d",
							c.ID, c.Alloc, c.Words(), words, live, s.LiveWords())
					}
					checkExtents(t, s, objs)
				}
				a, grow = NewAllocator(s, a.Heap()), 0
				continue
			case 7:
				if op>>3&3 == 3 {
					budget += sweptSpans(t, s, size)
					continue
				}
				if op>>3 != 0 {
					budget += toSpaceTenancy(t, s, size)
					continue
				}
				for c := range objs {
					s.Release(c)
				}
				clear(objs)
				a.Retarget(a.Heap()) // drops the released bump chunk
				if live := s.LiveWords(); live != 0 {
					t.Fatalf("%d words live after releasing every chunk", live)
				}
				for _, free := range s.free {
					for _, c := range free {
						if s.ext[c.ID].start != 0 || c.Words() != len(c.Data) {
							t.Fatalf("free chunk %d of %d words at %d of its arena once every chunk is released",
								c.ID, c.Words(), s.ext[c.ID].start)
						}
					}
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

			want := max(total, grow)
			var pick *Chunk
			if want <= ChunkWords {
				want = max(MinChunkWords, 1<<bits.Len(uint(want-1)))
				pick = largestFree(s, max(total, grow), want)
			}
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
				if pick != nil && c != pick {
					t.Fatalf("refill for %d words at grow %d got chunk %d of %d words, not the free chunk %d of %d",
						total, grow, c.ID, c.Words(), pick.ID, pick.Words())
				}
				if pick == nil && c.Words() != want {
					t.Fatalf("refill for %d words at grow %d got a %d-word chunk, want %d",
						total, grow, c.Words(), want)
				}
				grow = min(2*c.Words(), ChunkWords)
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

		checkExtents(t, s, objs)
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
		}
		if live := s.LiveWords(); live != owned {
			t.Fatalf("LiveWords %d, live chunks hold %d", live, owned)
		}
	})
}

// largestFree returns the chunk a refill for lo words of a class of hi
// takes from the free lists: the last freed of the largest capacity from
// lo to hi, nil when there is none.
func largestFree(s *Space, lo, hi int) *Chunk {
	for i := hi >> granuleShift; i > 0 && i<<granuleShift >= lo; i-- {
		if free := s.free[i]; len(free) > 0 {
			return free[len(free)-1]
		}
	}
	return nil
}

// checkExtents fails when two chunks, owned ones (the keys of objs) or
// free ones, overlap: each covers its capacity from the address of its
// first word.
func checkExtents(t *testing.T, s *Space, objs map[*Chunk][]object) {
	t.Helper()
	type span struct {
		at, end uintptr
		c       *Chunk
	}
	var spans []span
	add := func(c *Chunk) {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(c.Data)))
		spans = append(spans, span{at, at + uintptr(c.Words())*8, c})
	}
	for c := range objs {
		add(c)
	}
	for _, free := range s.free {
		for _, c := range free {
			add(c)
		}
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.at, y.at) })
	for i := 1; i < len(spans); i++ {
		if p, q := spans[i-1], spans[i]; p.end > q.at {
			t.Fatalf("chunk %d (%d words) overlaps chunk %d (%d words)", p.c.ID, p.c.Words(), q.c.ID, q.c.Words())
		}
	}
}

// toSpaceTenancy runs one to-space tenancy on a recycled chunk. It
// allocates count source objects of n payload words, fills a chunk of the
// class the first copy asks for with a pattern, as a tenant that wrote all
// of it would leave it, and releases it; then it copies every source object
// into a new to-space allocator, whose first refill must take that chunk
// as it is, and checks each copy and forwarding. It releases every chunk
// it used, and a mutator tenant then takes each to-space chunk back with
// one Alloc spanning it, whose payload must read zero. It returns the
// words it copied.
func toSpaceTenancy(t *testing.T, s *Space, size int) int {
	const pattern = 0xA5A5A5A5A5A5A5A5
	n, count := size%200, 1+size>>8%16
	total := max(n, 1) + 1
	src := NewAllocator(s, 8)
	refs := make([]Ref, count)
	for i := range refs {
		refs[i] = src.Alloc(KArray, n)
		c := s.ChunkByID(refs[i].Chunk())
		for j := 0; j < n; j++ {
			c.Data[refs[i].Off()+1+j] = uint64(Int(int64(i<<16 | j)))
		}
	}
	filled := s.NewChunk(8, total)
	for i := range filled.Words() {
		filled.Data[i] = pattern
	}
	filled.Alloc = filled.Words()
	s.Release(filled)

	to := NewAllocator(s, 9)
	for i, r := range refs {
		c := s.ChunkByID(r.Chunk())
		hd, ok := c.BeginCopy(r.Off())
		if !ok {
			t.Fatalf("BeginCopy refused a plain object: %#x", uint64(hd))
		}
		nr := to.CopyIn(c, r.Off(), hd)
		if fwd, moved := s.Forwarded(r); !moved || fwd != nr {
			t.Fatalf("copy %d: original forwards to %v (%v), copy at %v", i, fwd, moved, nr)
		}
		nc := s.ChunkByID(nr.Chunk())
		if got := nc.Data[nr.Off()]; got != MakeHeader(KArray, n) {
			t.Fatalf("copy %d: header %#x, want %#x", i, got, MakeHeader(KArray, n))
		}
		for j := 0; j < max(n, 1); j++ {
			want := uint64(Int(int64(i<<16 | j)))
			if n == 0 {
				want = 0 // the pad word
			}
			if got := nc.Data[nr.Off()+1+j]; got != want {
				t.Fatalf("copy %d word %d = %#x, want %#x", i, j, got, want)
			}
		}
	}
	if to.Chunks[0] != filled {
		t.Fatalf("the first to-space refill took chunk %d, not the recycled chunk %d", to.Chunks[0].ID, filled.ID)
	}
	to.FlushCopied()
	for _, c := range src.Chunks {
		s.Release(c)
	}
	for _, c := range to.Chunks {
		words := c.Words()
		s.Release(c)
		m := NewAllocator(s, 10)
		r := m.Alloc(KArray, words-1)
		// A released chunk that merged with a free neighbour, or a tail
		// with a larger one to take first, may not come back itself.
		mc := s.ChunkOf(r)
		if r.Off() != 0 || mc != c && c.Words() == words && words == MinChunkWords<<classOf(words) {
			t.Fatalf("chunk %d released, %v allocated", c.ID, r)
		}
		for i, w := range mc.Data[1:words] {
			if w != 0 {
				t.Fatalf("chunk %d after a to-space tenancy: payload word %d = %#x for the next mutator", mc.ID, i, w)
			}
		}
		s.Release(mc)
	}
	return count * total
}

// sweptSpans sweeps a chunk filled with a pattern, as a tenant that wrote
// all of it would leave it, on which the size bits lay out four marked
// objects around three dead runs of t1, t2 and t3 words (t3 > t2), each
// run one object or two. It checks that each run became one free span and
// each dead object's header reads free, hands the chunk to a new allocator
// with AddReusable and carves three objects out of the spans: t1 words, an
// exact fit in the first; t2-1 words, which would leave one word of the
// second and so must split the third; and t2-2 words, which split the
// second. It checks every word of the carved objects and that the chunk
// still parses header by header, live objects and the spans left included.
// It releases the chunk and returns the words it carved.
func sweptSpans(t *testing.T, s *Space, size int) int {
	const pattern = 0xC3C3C3C3C3C3C3C3
	t1, t2 := 2+size&7, 4+size>>3&7
	t3 := t2 + 1 + size>>6&7
	live := 1 + size>>9&7 // payload words of each marked object

	c := s.NewChunk(11, MinChunkWords)
	for i := range c.Words() {
		c.Data[i] = pattern
	}
	m := s.BeginMarks(c)
	end := 0
	put := func(k Kind, n int) int {
		off := end
		c.Data[off] = MakeHeader(k, n)
		end += max(n, 1) + 1
		return off
	}
	var freed []int
	run := func(words int, two bool) int {
		start := end
		if two {
			freed = append(freed, put(KArray, 0))
			words -= 2
		}
		freed = append(freed, put(KTuple, words-1))
		return start
	}
	var marked [4]int
	marked[0] = put(KTuple, live)
	r1 := run(t1, t1 >= 4 && size>>12&1 != 0)
	marked[1] = put(KTuple, live)
	r2 := run(t2, size>>13&1 != 0)
	marked[2] = put(KTuple, live)
	r3 := run(t3, size>>14&1 != 0)
	marked[3] = put(KTuple, live)
	c.Alloc = end
	for _, off := range marked {
		m.Mark(off)
	}

	st, dead := s.SweepMarked(c)
	s.EndMarks(c)
	if dead || st.LiveObjects != 4 || st.FreedWords != t1+t2+t3 || st.FreeWords != t1+t2+t3 {
		t.Fatalf("sweep of runs %d/%d/%d: %+v, dead %v", t1, t2, t3, st, dead)
	}
	for _, off := range freed {
		if hd := Header(c.Data[off]); hd.Kind() != KFree {
			t.Fatalf("dead object at %d kept header %#x through the sweep", off, uint64(hd))
		}
	}
	type span struct{ off, words, next int }
	for _, sp := range []span{{r1, t1, r2 + 1}, {r2, t2, r3 + 1}, {r3, t3, 0}} {
		if hd, next := c.Data[sp.off], int(c.Data[sp.off+1]); hd != MakeHeader(KFree, sp.words-1) || next != sp.next {
			t.Fatalf("span at %d: header %#x link %d, want %d words linked to %d", sp.off, hd, next, sp.words, sp.next)
		}
	}
	if c.freeHead != r1+1 {
		t.Fatalf("free list starts at %d, want %d", c.freeHead, r1+1)
	}

	a := NewAllocator(s, 11)
	a.AddReusable(c)
	type object struct {
		r       Ref
		hd      uint64
		payload []uint64
	}
	var x1 object
	if t1 == 2 {
		x1 = object{a.AllocTuple(), MakeHeader(KTuple, 0), []uint64{0}}
	} else {
		v := Int(int64(size))
		want := make([]uint64, t1-1)
		for i := range want {
			want[i] = uint64(v)
		}
		x1 = object{a.AllocArray(t1-1, v), MakeHeader(KArray, t1-1), want}
	}
	vs := make([]Value, t2-2)
	want := make([]uint64, t2-2)
	for i := range vs {
		vs[i] = Int(int64(i))
		want[i] = uint64(vs[i])
	}
	x2 := object{a.AllocTuple(vs...), MakeHeader(KTuple, t2-2), want}
	x3 := object{a.Alloc(KArray, t2-3), MakeHeader(KArray, t2-3), make([]uint64, t2-3)}
	for _, at := range []struct {
		x   object
		off int
	}{{x1, r1}, {x2, r3}, {x3, r2}} {
		if at.x.r != MakeRef(c.ID, at.off) {
			t.Fatalf("runs %d/%d/%d: object %v carved, want it at %d of chunk %d", t1, t2, t3, at.x.r, at.off, c.ID)
		}
	}
	if len(a.Chunks) != 0 || c.freeWords != t3-t2+3 {
		t.Fatalf("carving the spans refilled %d chunks and left %d free words, want none and %d",
			len(a.Chunks), c.freeWords, t3-t2+3)
	}

	tail2, tail3 := r2+t2-2, r3+t2-1
	if c.freeHead != tail2+1 {
		t.Fatalf("free list starts at %d, want the second span's tail %d", c.freeHead, tail2+1)
	}
	objs := map[int]object{r1: x1, r2: x3, r3: x2}
	links := map[int]int{tail2: tail3 + 1, tail3: 0}
	for off := 0; off < c.Alloc; {
		hd := Header(c.Data[off])
		n := max(hd.Len(), 1)
		if x, ok := objs[off]; ok {
			if uint64(hd) != x.hd || !slices.Equal(c.Data[off+1:off+1+n], x.payload) {
				t.Fatalf("carved object at %d: %#x %#x, want %#x %#x", off, uint64(hd), c.Data[off+1:off+1+n], x.hd, x.payload)
			}
		} else if next, ok := links[off]; ok {
			if hd.Kind() != KFree || int(c.Data[off+1]) != next {
				t.Fatalf("span tail at %d: header %#x link %d, want free linked to %d", off, uint64(hd), c.Data[off+1], next)
			}
		} else if !slices.Contains(marked[:], off) || uint64(hd) != MakeHeader(KTuple, live) ||
			slices.ContainsFunc(c.Data[off+1:off+1+n], func(w uint64) bool { return w != pattern }) {
			t.Fatalf("chunk parses to %#x at %d, which is neither a carved object, a span nor a marked object", uint64(hd), off)
		}
		off += 1 + n
	}
	s.Release(c)
	return t1 + 2*t2 - 3
}
