package gc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// script turns a byte string into the choices that build a world, so the
// seeded test and the fuzzer share one generator. An exhausted script
// answers 0 to everything, which ends every loop.
type script struct{ b []byte }

func (s *script) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}

type diffObj struct {
	ref    mem.Ref
	heap   int // index into diffWorld.heaps
	n      int // fields the generator may store to
	pinned bool
}

// diffWorld is a chain of heaps from the root down to the leaf, the heap
// collected — the heaps above it hold its external holders, at every depth —
// with objects, pins, remembered entries and roots laid out by a script.
// Building from the same script twice gives two worlds equal reference for
// reference.
type diffWorld struct {
	*world
	heaps []*hierarchy.Heap
	leaf  *hierarchy.Heap // heaps[len(heaps)-1]
	rs    *roots
	objs  []diffObj
}

func buildDiffWorld(data []byte) *diffWorld {
	s := &script{b: data}
	w := &diffWorld{world: newWorld(), rs: &roots{}}
	k := 1 + s.next(3)
	w.heaps = []*hierarchy.Heap{w.tr.Root()}
	for i := 0; i < k; i++ {
		w.heaps = append(w.heaps, w.tr.Fork(w.heaps[i]))
	}
	w.leaf = w.heaps[k]
	allocs := make([]*heapAlloc, len(w.heaps))
	for i, h := range w.heaps {
		allocs[i] = w.onHeap(h)
	}
	add := func(hi int, ref mem.Ref, n int) {
		w.objs = append(w.objs, diffObj{ref: ref, heap: hi, n: n})
	}
	if s.next(4) == 0 { // one object larger than any chunk class
		n := mem.ChunkWords + s.next(100)
		hi := 1 + s.next(k)
		add(hi, allocs[hi].al.AllocArray(n, mem.Nil), 8)
	}
	for count := 8 + s.next(256); count > 0; count-- {
		hi := s.next(k + 2) // the deepest heap twice as often
		if hi > k {
			hi = k
		}
		al := allocs[hi].al
		switch s.next(8) {
		case 0:
			n := s.next(6)
			add(hi, al.AllocTuple(make([]mem.Value, n)...), n)
		case 1:
			n := s.next(7)
			add(hi, al.AllocArray(n, mem.Nil), n)
		case 2:
			add(hi, al.AllocRef(mem.Nil), 1)
		case 3: // raw words that look like anything, references included
			b := make([]byte, s.next(20))
			for i := range b {
				b[i] = byte(s.next(256))
			}
			add(hi, al.AllocString(string(b)), 0)
		case 4:
			add(hi, al.AllocTuple(), 0)
		case 5:
			add(hi, al.AllocArray(0, mem.Nil), 0)
		default:
			add(hi, al.AllocTuple(mem.Nil, mem.Nil), 2)
		}
	}
	// Fields: immediates, nil, and references to any object, earlier or
	// later (cycles, sharing). A down-pointer gets what the write barrier
	// gives it — the candidate bit and an entry per store, sometimes more.
	for _, o := range w.objs {
		for j := 0; j < o.n; j++ {
			switch s.next(4) {
			case 0:
				w.sp.Store(o.ref, j, mem.Int(int64(s.next(256))))
			case 1:
			default:
				t := w.objs[s.next(len(w.objs))]
				w.sp.Store(o.ref, j, t.ref.Value())
				if t.heap > o.heap {
					w.sp.SetCandidate(o.ref)
					for d := s.next(3); d >= 0; d-- {
						if s.next(2) == 0 {
							w.heaps[t.heap].AddRemembered(o.ref, j)
						} else {
							w.heaps[t.heap].AddRememberedLocal(o.ref, j)
						}
					}
				}
			}
		}
	}
	// Stale entries: before or past the holder's payload, for whatever a
	// field happens to hold, and for a field overwritten since.
	for m := s.next(8); m > 0; m-- {
		o := w.objs[s.next(len(w.objs))]
		if !w.sp.Header(o.ref).Kind().Scanned() {
			continue // the write barrier never names a raw holder
		}
		// The byte that named a heap is still read, which keeps the worlds
		// of the checked-in corpus, but every stale entry goes to the leaf:
		// an entry a heap outside the collection keeps is never revalidated,
		// and CheckHeap rejects a malformed one.
		s.next(k)
		h := w.leaf
		switch c := s.next(4); {
		case c == 0:
			h.AddRemembered(o.ref, -1)
		case c == 1:
			h.AddRemembered(o.ref, o.n+s.next(3))
		case o.n == 0:
		case c == 2:
			h.AddRemembered(o.ref, s.next(o.n))
		default:
			w.sp.Store(o.ref, s.next(o.n), mem.Int(7))
		}
	}
	for m := s.next(8); m > 0; m-- {
		w.sp.SetCandidate(w.objs[s.next(len(w.objs))].ref)
	}
	// Pins, with and without the candidate bit, listed once or twice; one
	// in four unpinned again, which leaves its list entry and depth bits.
	for m := s.next(12); m > 0; m-- {
		o := &w.objs[s.next(len(w.objs))]
		if o.heap == 0 {
			continue
		}
		w.sp.Pin(o.ref, s.next(4))
		o.pinned = true
		if s.next(2) == 0 {
			w.sp.SetCandidate(o.ref)
		}
		if s.next(4) == 0 {
			w.sp.Unpin(o.ref)
			o.pinned = false
		}
		for d := s.next(2); d >= 0; d-- {
			w.heaps[o.heap].AddPinned(o.ref)
		}
	}
	for m := s.next(6); m > 0; m-- {
		w.rs.refs = append(w.rs.refs, w.objs[s.next(len(w.objs))].ref)
	}
	// A branch's published results: a run of tuples in the leaf, each the
	// target of one field of an array above it, remembered once, which may
	// fill half of a chunk with distinct remembered targets. In one run of
	// four a field now and then has a second entry, or shares its target
	// with the field before. An exhausted script skips it, as the worlds of
	// the checked-in corpus did.
	if s.next(2) == 1 {
		hi, n, repeats := s.next(k), 64+s.next(192), s.next(4) == 0
		holder := allocs[hi].al.AllocArray(n, mem.Nil)
		w.sp.SetCandidate(holder)
		add(hi, holder, 0)
		for j := 0; j < n; j++ {
			t := allocs[k].al.AllocTuple(w.objs[s.next(len(w.objs))].ref.Value())
			add(k, t, 0)
			w.sp.Store(holder, j, t.Value())
			w.leaf.AddRemembered(holder, j)
			switch c := s.next(32); {
			case c == 2:
				w.rs.refs = append(w.rs.refs, t)
			case !repeats:
			case c == 0:
				w.leaf.AddRememberedLocal(holder, j)
			case c == 1 && j > 0:
				w.sp.Store(holder, j-1, t.Value())
				w.leaf.AddRemembered(holder, j-1)
			}
		}
	}
	for _, ha := range allocs {
		ha.adopt()
	}
	w.leaf.AddRootSet(w.rs)
	dirtySpace(w.sp, w.heaps[0].ID)
	return w
}

// dirtySpace leaves one recycled chunk of every class on the space's free
// lists, where the first to-space refill of that class finds it, with every
// word written as a tenant that filled it would leave it: alternately a
// header and a reference, so that a word the copy kernel failed to write
// parses or traces as something.
func dirtySpace(sp *mem.Space, heap uint32) {
	for words := mem.MinChunkWords; words <= mem.ChunkWords; words *= 2 {
		c := sp.NewChunk(heap, words)
		for i := range c.Data {
			if i%2 == 0 {
				c.Data[i] = mem.MakeHeader(mem.KTuple, 1)
			} else {
				c.Data[i] = uint64(mem.MakeRef(c.ID, i-1).Value())
			}
		}
		c.Alloc = words
		sp.Release(c)
	}
}

// diffCollect builds the scripted world twice, collects one with Collect
// and one with the word-by-word reference, twice over, and compares.
func diffCollect(t testing.TB, data []byte) {
	a, b := buildDiffWorld(data), buildDiffWorld(data)
	for round := 0; round < 2; round++ {
		old := slices.Clone(a.leaf.Chunks)
		ra, rb := a.c.Collect([]*hierarchy.Heap{a.leaf}), b.c.refCollect([]*hierarchy.Heap{b.leaf})
		// ReclaimedWords counts whole chunks, and which chunk an oversize
		// object's neighbours share depends on the order of the copies:
		// depth-first there, breadth-first here.
		rb.ReclaimedWords = ra.ReclaimedWords
		if ra != rb {
			t.Fatalf("round %d: Collect %+v, reference %+v", round, ra, rb)
		}
		if ta, tb := a.sp.TotalAllocWords(), b.sp.TotalAllocWords(); ta != tb {
			t.Fatalf("round %d: %d words allocated, reference %d", round, ta, tb)
		}
		compareWorlds(t, round, a, b)
		a.checkToSpace(t, round, old, ra)
		for _, w := range []*diffWorld{a, b} {
			for _, h := range w.heaps {
				if err := CheckHeap(w.sp, h, true); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if err := Validate(w.sp, w.heaps); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			// As a join does before the next collection can run: drop the
			// pinned-set entries of objects no longer pinned, whose words
			// the first collection released.
			for i, h := range w.heaps {
				h.Pinned.Filter(func(r mem.Ref) bool {
					for _, o := range w.objs {
						if o.ref == r && o.heap == i {
							return o.pinned
						}
					}
					return false
				})
			}
		}
	}
}

// compareWorlds walks both worlds in step from the roots, the objects above
// the leaf and the pinned objects — everything a survivor can be reached
// from — and requires the same graph: kinds, lengths, candidate and pin
// bits, heaps, immediates and raw words equal, references paired one to
// one, pinned and external objects where they were. It then requires the
// rebuilt remembered sets to be the same multisets under that pairing.
func compareWorlds(t testing.TB, round int, a, b *diffWorld) {
	toB, toA := map[mem.Ref]mem.Ref{}, map[mem.Ref]mem.Ref{}
	type pair struct{ a, b mem.Ref }
	var stack []pair
	visit := func(ra, rb mem.Ref, what string) {
		if pb, ok := toB[ra]; ok {
			if pb != rb {
				t.Fatalf("round %d: %s: %v pairs with %v and with %v", round, what, ra, pb, rb)
			}
			return
		}
		if pa, ok := toA[rb]; ok {
			t.Fatalf("round %d: %s: reference's %v pairs with %v and with %v", round, what, rb, pa, ra)
		}
		toB[ra], toA[rb] = rb, ra
		stack = append(stack, pair{ra, rb})
	}
	for i := range a.rs.refs {
		visit(a.rs.refs[i], b.rs.refs[i], fmt.Sprint("root ", i))
	}
	for i, o := range a.objs {
		if o.heap < len(a.heaps)-1 || o.pinned {
			visit(o.ref, b.objs[i].ref, fmt.Sprint("unmoved object ", i))
			if o.pinned && (!a.sp.Header(o.ref).Pinned() || !b.sp.Header(o.ref).Pinned()) {
				t.Fatalf("round %d: object %d lost its pin", round, i)
			}
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ha, hb := a.sp.Header(p.a), b.sp.Header(p.b)
		if ha != hb || ha.Kind() == mem.KForward || ha.Busy() {
			t.Fatalf("round %d: %v has header %#x, reference's %v %#x", round, p.a, uint64(ha), p.b, uint64(hb))
		}
		if ia, ib := a.sp.ChunkOf(p.a).HeapID(), b.sp.ChunkOf(p.b).HeapID(); ia != ib {
			t.Fatalf("round %d: %v in heap %d, reference's %v in heap %d", round, p.a, ia, p.b, ib)
		}
		for j := 0; j < ha.Len(); j++ {
			if ha.Kind() == mem.KRaw {
				if wa, wb := a.sp.LoadRaw(p.a, j), b.sp.LoadRaw(p.b, j); wa != wb {
					t.Fatalf("round %d: raw word %d of %v is %#x, reference %#x", round, j, p.a, wa, wb)
				}
				continue
			}
			va, vb := a.sp.Load(p.a, j), b.sp.Load(p.b, j)
			switch {
			case va.IsRef() && vb.IsRef():
				visit(va.Ref(), vb.Ref(), fmt.Sprintf("field %d of %v", j, p.a))
			case va != vb:
				t.Fatalf("round %d: field %d of %v is %v, reference %v", round, j, p.a, va, vb)
			}
		}
	}
	for i := range a.heaps {
		want := map[hierarchy.RememberedEntry]int{}
		b.heaps[i].Remset.Each(func(e hierarchy.RememberedEntry) { want[e]++ })
		a.heaps[i].Remset.Each(func(e hierarchy.RememberedEntry) {
			hb, ok := toB[e.Holder]
			if !ok {
				t.Fatalf("round %d: heap %d remembers %+v, whose holder nothing reaches", round, i, e)
			}
			want[hierarchy.RememberedEntry{Holder: hb, Index: e.Index}]--
		})
		for e, n := range want {
			if n != 0 {
				t.Fatalf("round %d: heap %d: entry %+v of the reference is off by %d", round, i, e, n)
			}
		}
	}
}

// checkToSpace parses every chunk the collection filled — the leaf's chunks
// that were not among its old ones — densely from 0 to Alloc, and requires
// exactly the copied objects there, each zero-length one with a zero pad
// word, and every one of them Tenured.
func (w *diffWorld) checkToSpace(t testing.TB, round int, old []*mem.Chunk, res Result) {
	var objects, words int64
	retained := 0
	for _, c := range w.leaf.Chunks {
		if slices.Contains(old, c) {
			if holdsPinned(c) {
				retained++
			}
			continue
		}
		if !c.Tenured {
			t.Fatalf("round %d: to-space chunk %d is not Tenured", round, c.ID)
		}
		for off := 0; off < c.Alloc; {
			hd := mem.Header(c.Data[off])
			if !hd.Valid() || hd.Kind() < mem.KTuple || hd.Kind() > mem.KRaw || hd.Pinned() || hd.Busy() {
				t.Fatalf("round %d: to-space chunk %d does not parse at +%d: header %#x", round, c.ID, off, uint64(hd))
			}
			if hd.Len() == 0 && c.Data[off+1] != 0 {
				t.Fatalf("round %d: to-space chunk %d: pad word at +%d = %#x", round, c.ID, off+1, c.Data[off+1])
			}
			objects++
			words += int64(hd.Len() + 1)
			off += max(hd.Len(), 1) + 1
			if off > c.Alloc {
				t.Fatalf("round %d: to-space chunk %d: object overruns Alloc %d", round, c.ID, c.Alloc)
			}
		}
	}
	if objects != res.CopiedObjects || words != res.CopiedWords || retained != res.RetainedChunks {
		t.Fatalf("round %d: to-space holds %d objects, %d words beside %d retained chunks; result says %+v",
			round, objects, words, retained, res)
	}
}

// randomScript returns the script the seeded test runs for seed.
func randomScript(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 64+rng.Intn(4096))
	rng.Read(data)
	return data
}

// TestCollectMatchesReference is the differential test of the copy kernel
// against the word-by-word collector it replaced (reference_test.go).
func TestCollectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { diffCollect(t, randomScript(seed)) })
	}
}

// FuzzCollect is the same comparison on scripts the fuzzer writes, from
// the corpus in testdata/fuzz/FuzzCollect and a few of the seeded scripts.
func FuzzCollect(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { diffCollect(t, data) })
}
