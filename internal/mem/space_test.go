package mem

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAllocBasic(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)

	tup := a.AllocTuple(Int(1), Int(2), Int(3))
	h := s.Header(tup)
	if h.Kind() != KTuple || h.Len() != 3 {
		t.Fatalf("tuple header %v/%d", h.Kind(), h.Len())
	}
	for i := int64(0); i < 3; i++ {
		if got := s.Load(tup, int(i)); got.AsInt() != i+1 {
			t.Fatalf("tuple[%d] = %v", i, got)
		}
	}

	arr := a.AllocArray(5, Int(7))
	if s.Header(arr).Kind() != KArray || s.Header(arr).Len() != 5 {
		t.Fatal("array header wrong")
	}
	s.Store(arr, 2, tup.Value())
	if s.Load(arr, 2).Ref() != tup {
		t.Fatal("array store/load mismatch")
	}
	if s.Load(arr, 0).AsInt() != 7 {
		t.Fatal("array init value lost")
	}

	cell := a.AllocRef(arr.Value())
	if s.Header(cell).Kind() != KRefCell || s.Load(cell, 0).Ref() != arr {
		t.Fatal("ref cell broken")
	}
}

func TestAllocOwnership(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 42)
	r := a.AllocTuple(Int(1))
	if s.ChunkOf(r).HeapID() != 42 {
		t.Fatalf("heap id = %d, want 42", s.ChunkOf(r).HeapID())
	}
	// Reassigning the chunk's heap changes every resident object's heap.
	s.ChunkOf(r).SetOwner(7, nil)
	if s.ChunkOf(r).HeapID() != 7 {
		t.Fatal("chunk-level heap reassignment not visible through ChunkOf")
	}
}

// TestChunkOwners: once a resolver is installed, every live chunk — those
// handed out before it included — names its owner beside its id, a release
// clears both, and a heap id the resolver does not know is refused rather
// than handed a chunk with no owner.
func TestChunkOwners(t *testing.T) {
	s := NewSpace()
	early := NewAllocator(s, 1).AllocTuple(Int(1))
	if s.ChunkOf(early).Owner() != nil {
		t.Fatal("owner recorded with no resolver installed")
	}
	// Owners at distinct addresses: two zero-size allocations may share one.
	owners := map[uint32]*Owner{
		1: (*Owner)(unsafe.Pointer(new(int64))),
		2: (*Owner)(unsafe.Pointer(new(int64))),
	}
	s.SetOwners(func(id uint32) *Owner { return owners[id] })
	if got := s.ChunkOf(early).Owner(); got != owners[1] {
		t.Fatalf("chunk handed out before the resolver: owner %p, want %p", got, owners[1])
	}
	c := s.NewChunk(2, 0)
	if c.HeapID() != 2 || c.Owner() != owners[2] {
		t.Fatalf("fresh chunk: heap %d owner %p, want 2 %p", c.HeapID(), c.Owner(), owners[2])
	}
	s.Release(c)
	if c.HeapID() != 0 || c.Owner() != nil {
		t.Fatalf("released chunk: heap %d owner %p", c.HeapID(), c.Owner())
	}
	if again := s.NewChunk(1, 0); again != c || again.Owner() != owners[1] {
		t.Fatalf("recycled chunk: %p owner %p, want %p owner %p", again, again.Owner(), c, owners[1])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewChunk for an unknown heap did not panic")
		}
	}()
	s.NewChunk(9, 0)
}

func TestAllocSpansChunks(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	var refs []Ref
	for i := 0; i < 3*ChunkWords/4; i++ {
		refs = append(refs, a.AllocTuple(Int(int64(i)), Int(int64(i))))
	}
	if len(a.Chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(a.Chunks))
	}
	for i, r := range refs {
		if s.Load(r, 0).AsInt() != int64(i) || s.Load(r, 1).AsInt() != int64(i) {
			t.Fatalf("object %d corrupted after chunk overflow", i)
		}
	}
}

func TestAllocOversizeObject(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	big := a.AllocArray(4*ChunkWords, Nil)
	if s.Header(big).Len() != 4*ChunkWords {
		t.Fatal("oversize array header wrong")
	}
	s.Store(big, 4*ChunkWords-1, Int(9))
	if s.Load(big, 4*ChunkWords-1).AsInt() != 9 {
		t.Fatal("oversize array store failed")
	}
}

func TestZeroLengthObjectsHaveSlack(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocTuple()
	if s.Header(r).Len() != 0 {
		t.Fatal("empty tuple length must be 0")
	}
	// Forwarding must have room to store the pointer even for empty objects.
	r2 := a.AllocTuple(Int(5))
	s.Forward(r, r2)
	got, fwd := s.Forwarded(r)
	if !fwd || got != r2 {
		t.Fatal("forwarding of empty object failed")
	}
}

func TestForwarding(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	old := a.AllocTuple(Int(1), Int(2))
	new := a.AllocTuple(Int(1), Int(2))
	if _, fwd := s.Forwarded(old); fwd {
		t.Fatal("fresh object reported forwarded")
	}
	s.Forward(old, new)
	got, fwd := s.Forwarded(old)
	if !fwd || got != new {
		t.Fatalf("Forwarded = %v,%v", got, fwd)
	}
	if s.Header(old).Len() != 2 {
		t.Fatal("forwarding header must preserve length for from-space scans")
	}
}

func TestPinUnpin(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocRef(Int(0))
	c := s.ChunkByID(r.Chunk())

	if !s.Pin(r, 3) {
		t.Fatal("first Pin must report newly pinned")
	}
	if !s.Header(r).Pinned() || s.Header(r).UnpinDepth() != 3 {
		t.Fatalf("pin state wrong: %v depth %d", s.Header(r).Pinned(), s.Header(r).UnpinDepth())
	}

	// Re-pinning at a deeper depth must not raise the unpin depth.
	if s.Pin(r, 5) {
		t.Fatal("re-pin reported newly pinned")
	}
	if s.Header(r).UnpinDepth() != 3 {
		t.Fatal("re-pin raised unpin depth")
	}
	// Re-pinning at a shallower depth must lower it.
	s.Pin(r, 1)
	if s.Header(r).UnpinDepth() != 1 || !s.Header(r).Pinned() {
		t.Fatal("re-pin did not lower unpin depth")
	}

	if !s.Unpin(r) {
		t.Fatal("Unpin must report previously pinned")
	}
	if h := s.Header(r); h.Pinned() || h.Kind() != KRefCell || h.Len() != 1 {
		t.Fatalf("unpin state wrong: %#x", uint64(h))
	}
	if s.Unpin(r) {
		t.Fatal("double Unpin must report false")
	}
	// Both unpins wrote the header word and nothing else of the chunk.
	if c.Alloc != 2 || c.Load(r, 0) != Int(0) {
		t.Fatalf("unpin disturbed the chunk: Alloc %d, payload %v", c.Alloc, c.Load(r, 0))
	}
}

func TestPinDepthClamp(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocRef(Int(0))
	s.Pin(r, MaxUnpinDepth+100)
	if s.Header(r).UnpinDepth() != MaxUnpinDepth {
		t.Fatal("unpin depth not clamped")
	}
	s.Unpin(r)
	s.Pin(r, -5)
	if s.Header(r).UnpinDepth() != 0 {
		t.Fatal("negative unpin depth not clamped to 0")
	}
}

func TestCandidateAndMark(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r := a.AllocArray(2, Nil)
	if s.Header(r).Candidate() {
		t.Fatal("fresh object is candidate")
	}
	if !s.SetCandidate(r) {
		t.Fatal("SetCandidate must report newly set")
	}
	if s.SetCandidate(r) {
		t.Fatal("second SetCandidate must report false")
	}
	// Flag traffic must not corrupt kind or length.
	if h := s.Header(r); h.Kind() != KArray || h.Len() != 2 || !h.Candidate() {
		t.Fatal("flags corrupted header fields")
	}
	// A collector's marks live beside the chunk: one bit at the header,
	// one past it for a remembered entry, none in the header.
	before := s.Header(r)
	c := s.ChunkOf(r)
	m := s.BeginMarks(c)
	if c.Marks() != m || !m.Mark(r.Off()) || m.Mark(r.Off()) || !m.Marked(r.Off()) {
		t.Fatal("mark protocol broken")
	}
	if !m.Remember(r.Off()) || m.Remember(r.Off()) || !m.Mark(r.Off()+3) {
		t.Fatal("the remembered bit is not the word after the header's")
	}
	if s.Header(r) != before {
		t.Fatal("a mark wrote the header")
	}
	m.Live = 5
	if live := s.EndMarks(c); live != 5 || c.Marks() != nil {
		t.Fatalf("EndMarks reported %d live words and left %v installed", live, c.Marks())
	}
	if m = s.BeginMarks(c); m.Marked(r.Off()) || m.Live != 0 {
		t.Fatal("a mark state from the pool kept a mark or a live count")
	}
	s.EndMarks(c)
}

// TestMarksInstallOnce: installing a mark state over an installed one
// panics, whichever collector installed the first — two collectors
// tracing one chunk at once would share its bits — and leaves the first in
// place.
func TestMarksInstallOnce(t *testing.T) {
	s := NewSpace()
	c := s.NewChunk(1, 0)
	m := s.BeginMarks(c)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second BeginMarks did not panic")
			}
		}()
		s.BeginMarks(c)
	}()
	if c.Marks() != m {
		t.Fatal("the refused install replaced the installed mark state")
	}
	if s.EndMarks(c) != 0 || s.EndMarks(c) != 0 {
		t.Fatal("EndMarks of a chunk without marks reported live words")
	}
}

// Release then NewChunk of the same class returns the recycled chunk reset
// — never a chunk of another class — and an oversize request is exact and
// never enters a free list.
func TestChunkClassRoundTrip(t *testing.T) {
	s := NewSpace()
	if got := s.NewChunk(1, 0).Words(); got != MinChunkWords {
		t.Fatalf("NewChunk(_, 0) has %d words, want the minimum class %d", got, MinChunkWords)
	}
	for words := MinChunkWords; words <= ChunkWords; words *= 2 {
		// Both ends of the class round up to the same size.
		lo := s.NewChunk(1, words/2+1)
		c1 := s.NewChunk(1, words)
		if lo.Words() != words || c1.Words() != words {
			t.Fatalf("requests %d and %d got %d and %d words, want class %d",
				words/2+1, words, lo.Words(), c1.Words(), words)
		}
		r := MakeRef(c1.ID, 0)
		c1.Data[0] = MakeHeader(KRefCell, 1)
		c1.Data[1] = 999
		c1.Alloc = 2
		s.Pin(r, 0)
		s.Unpin(r)
		s.BeginMarks(c1)
		c1.freeHead, c1.freeWords = 1, 2
		s.Release(c1)
		if c1.HeapID() != 0 {
			t.Fatalf("released chunk still owned by heap %d", c1.HeapID())
		}
		// Other classes, and oversize requests, must not take it.
		for other := MinChunkWords; other <= 2*ChunkWords; other *= 2 {
			if other == words {
				continue
			}
			if c := s.NewChunk(3, other); c == c1 {
				t.Fatalf("class %d chunk recycled for a %d-word request", words, other)
			}
		}
		c2 := s.NewChunk(2, words)
		if c2 != c1 {
			t.Fatalf("class %d: expected chunk %d recycled, got %d", words, c1.ID, c2.ID)
		}
		if c2.HeapID() != 2 || c2.Alloc != 0 ||
			c2.marks.Load() != nil || c2.freeHead != 0 || c2.freeWords != 0 {
			t.Fatalf("class %d: recycled chunk not reset: %+v", words, c2)
		}
	}

	big := s.NewChunk(1, ChunkWords+1)
	if big.Words() != ChunkWords+1 {
		t.Fatalf("oversize chunk has %d words, want exactly %d", big.Words(), ChunkWords+1)
	}
	live := s.LiveWords()
	s.Release(big)
	if s.LiveWords() != live-int64(big.Words()) {
		t.Fatal("oversize release not accounted")
	}
	for i, free := range s.free {
		for _, c := range free {
			if c == big || c.Words() != i<<granuleShift {
				t.Fatalf("the free list of %d words holds chunk %d of %d words", i<<granuleShift, c.ID, c.Words())
			}
		}
	}
	if c := s.NewChunk(1, ChunkWords+1); c == big {
		t.Fatal("oversize chunk was recycled")
	}
}

// The one clause of DESIGN.md §6 decision 1: nothing clears a recycled
// chunk, so every carve path writes every word it hands out. On a chunk an
// earlier tenant filled with a pattern, each allocation helper — the
// v == 0 array and zero-length objects among them — must leave exactly its
// header and its values, a zero payload for Alloc and a zero pad word for
// an empty object; and a to-space tenant's CopyIn, then a mutator tenant
// over the same chunk, the same. It fails if AllocArray skips its fill for
// a zero v, if carve skips the pad word, or if Alloc skips its zeros.
func TestEveryCarveWritesEveryWord(t *testing.T) {
	const pattern = 0x5A5A5A5A5A5A5A5A
	s := NewSpace()
	recycled := func() *Chunk {
		c := s.NewChunk(1, MinChunkWords)
		for i := range c.Data {
			c.Data[i] = pattern
		}
		c.Alloc = c.Words()
		s.Release(c)
		return c
	}
	type object struct {
		r       Ref
		hd      uint64
		payload []uint64
	}
	check := func(what string, c *Chunk, objs []object) {
		t.Helper()
		off := 0
		for _, o := range objs {
			if o.r != MakeRef(c.ID, off) {
				t.Fatalf("%s: object %v, want it at %d of chunk %d", what, o.r, off, c.ID)
			}
			if got := c.Data[off]; got != o.hd {
				t.Fatalf("%s: object at %d: header %#x, want %#x", what, off, got, o.hd)
			}
			for i, want := range o.payload {
				if got := c.Data[off+1+i]; got != want {
					t.Fatalf("%s: object at %d: word %d = %#x, want %#x", what, off, i, got, want)
				}
			}
			off += 1 + len(o.payload)
		}
		if off != c.Alloc {
			t.Fatalf("%s: chunk %d parses to %d, Alloc is %d", what, c.ID, off, c.Alloc)
		}
	}

	c := recycled()
	a := NewAllocator(s, 2)
	str := "carve writes it"
	packed := []uint64{uint64(len(str)), 0, 0}
	for i := range len(str) {
		packed[1+i/8] |= uint64(str[i]) << (8 * (i % 8))
	}
	objs := []object{
		{a.Alloc(KTuple, 3), MakeHeader(KTuple, 3), []uint64{0, 0, 0}},
		{a.Alloc(KArray, 0), MakeHeader(KArray, 0), []uint64{0}},
		{a.AllocTuple(), MakeHeader(KTuple, 0), []uint64{0}},
		{a.AllocTuple(Int(1), Int(2)), MakeHeader(KTuple, 2), []uint64{uint64(Int(1)), uint64(Int(2))}},
		{a.AllocArray(4, Nil), MakeHeader(KArray, 4), []uint64{0, 0, 0, 0}},
		{a.AllocArray(0, Int(5)), MakeHeader(KArray, 0), []uint64{0}},
		{a.AllocArray(3, Int(9)), MakeHeader(KArray, 3), []uint64{uint64(Int(9)), uint64(Int(9)), uint64(Int(9))}},
		{a.AllocRef(Int(3)), MakeHeader(KRefCell, 1), []uint64{uint64(Int(3))}},
		{a.AllocString(str), MakeHeader(KRaw, 3), packed},
		{a.AllocString(""), MakeHeader(KRaw, 1), []uint64{0}},
	}
	if len(a.Chunks) != 1 || a.Chunks[0] != c {
		t.Fatalf("the mutator refill did not take the recycled chunk %d: %d chunks", c.ID, len(a.Chunks))
	}
	check("mutator", c, objs)
	if got := s.LoadString(objs[8].r); got != str {
		t.Fatalf("LoadString = %q, want %q", got, str)
	}

	// A to-space tenant, then a mutator tenant, on one recycled chunk.
	src := NewAllocator(s, 3)
	r0, r1 := src.AllocTuple(Int(7), Int(8)), src.AllocTuple()
	c = recycled()
	to := NewAllocator(s, 4)
	var copies []object
	for _, r := range []Ref{r0, r1} {
		sc := s.ChunkOf(r)
		hd, _ := sc.BeginCopy(r.Off())
		payload := []uint64{0}
		if hd.Len() > 0 {
			payload = slices.Clone(sc.Data[r.Off()+1 : r.Off()+1+hd.Len()])
		}
		copies = append(copies, object{to.CopyIn(sc, r.Off(), hd), MakeHeader(hd.Kind(), hd.Len()), payload})
	}
	check("to-space", c, copies)
	s.Release(c)
	m := NewAllocator(s, 5)
	objs = []object{
		{m.Alloc(KTuple, 0), MakeHeader(KTuple, 0), []uint64{0}},
		{m.Alloc(KArray, c.Words()-3), MakeHeader(KArray, c.Words()-3), make([]uint64, c.Words()-3)},
	}
	if m.Chunks[0] != c {
		t.Fatalf("the mutator refill took chunk %d, not the to-space tenant's %d", m.Chunks[0].ID, c.ID)
	}
	check("mutator after to-space", c, objs)
}

// An allocator's chunks start at the smallest class that fits the first
// object and double per refill up to ChunkWords, so what it holds stays
// within twice what it allocated plus one minimum chunk; Retarget keeps
// the size reached, a new allocator starts small again.
func TestAllocatorGrowth(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	want := MinChunkWords
	for s.TotalAllocWords() < 4*ChunkWords {
		n := len(a.Chunks)
		a.AllocTuple(Int(1), Int(2))
		if len(a.Chunks) == n {
			continue
		}
		if got := a.Chunks[n].Words(); got != want {
			t.Fatalf("chunk %d has %d words, want %d", n, got, want)
		}
		// Checked at its worst, right after a refill. Each abandoned chunk
		// may end in a tail shorter than one object (3 words here).
		tails := int64(3 * n)
		if held, allocated := s.LiveWords(), s.TotalAllocWords(); held > 2*(allocated+tails)+MinChunkWords {
			t.Fatalf("holding %d words for %d allocated", held, allocated)
		}
		want = min(2*want, ChunkWords)
	}
	if want != ChunkWords {
		t.Fatalf("growth stopped at %d", want)
	}

	a.Retarget(2)
	a.AllocRef(Int(1))
	if got := a.Chunks[0].Words(); got != ChunkWords {
		t.Fatalf("first chunk after Retarget has %d words, want %d", got, ChunkWords)
	}

	// The first request picks the starting class; growth continues from it.
	b := NewAllocator(s, 3)
	b.AllocArray(600, Nil)
	b.AllocArray(600, Nil)
	if w0, w1 := b.Chunks[0].Words(), b.Chunks[1].Words(); w0 != 1024 || w1 != 2048 {
		t.Fatalf("chunks of %d and %d words, want 1024 and 2048", w0, w1)
	}
	// An oversize object gets an exact chunk and refills resume at ChunkWords.
	b.AllocArray(3*ChunkWords, Nil)
	b.AllocRef(Int(1))
	if w2, w3 := b.Chunks[2].Words(), b.Chunks[3].Words(); w2 != 3*ChunkWords+1 || w3 != ChunkWords {
		t.Fatalf("chunks of %d and %d words, want %d and %d", w2, w3, 3*ChunkWords+1, ChunkWords)
	}
}

func TestResidencyAccounting(t *testing.T) {
	s := NewSpace()
	c1 := s.NewChunk(1, 0)
	c2 := s.NewChunk(1, ChunkWords)
	if s.LiveWords() != MinChunkWords+ChunkWords {
		t.Fatalf("LiveWords = %d", s.LiveWords())
	}
	s.Release(c1)
	if s.LiveWords() != ChunkWords {
		t.Fatalf("LiveWords after release = %d", s.LiveWords())
	}
	if s.MaxLiveWords() != MinChunkWords+ChunkWords {
		t.Fatalf("MaxLiveWords = %d", s.MaxLiveWords())
	}
	s.ResetMaxLive()
	if s.MaxLiveWords() != ChunkWords {
		t.Fatal("ResetMaxLive failed")
	}
	s.Release(c2)
	if s.LiveWords() != 0 {
		t.Fatalf("LiveWords after releasing everything = %d", s.LiveWords())
	}
}

func TestStringRoundTrip(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	for _, str := range []string{"", "a", "hello", "exactly8", "more than eight bytes", "\x00\xff binary \n"} {
		r := a.AllocString(str)
		if got := s.LoadString(r); got != str {
			t.Fatalf("string %q round-tripped to %q", str, got)
		}
		if s.Header(r).Kind() != KRaw {
			t.Fatal("strings must be raw objects")
		}
	}
}

func TestStringRoundTripQuick(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	f := func(str string) bool {
		if len(str) > 1<<16 {
			str = str[:1<<16]
		}
		return s.LoadString(a.AllocString(str)) == str
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocWordsAccounting(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	a.AllocTuple(Int(1), Int(2)) // header + 2
	a.AllocRef(Nil)              // header + 1
	if s.TotalAllocWords() != 5 {
		t.Fatalf("TotalAllocWords = %d, want 5", s.TotalAllocWords())
	}
}

func TestRetarget(t *testing.T) {
	s := NewSpace()
	a := NewAllocator(s, 1)
	r1 := a.AllocTuple(Int(1))
	a.Retarget(9)
	r2 := a.AllocTuple(Int(2))
	if s.ChunkOf(r1).HeapID() != 1 || s.ChunkOf(r2).HeapID() != 9 {
		t.Fatalf("heap ids after retarget: %d, %d", s.ChunkOf(r1).HeapID(), s.ChunkOf(r2).HeapID())
	}
	if a.Heap() != 9 {
		t.Fatal("Heap() after retarget")
	}
}

func TestAllocatorRandomObjectsQuick(t *testing.T) {
	// Property: random interleavings of allocations produce objects whose
	// headers and payloads remain intact and disjoint.
	s := NewSpace()
	a := NewAllocator(s, 1)
	type obj struct {
		ref  Ref
		kind Kind
		n    int
		tag  int64
	}
	var objs []obj
	f := func(sizes []uint16) bool {
		for _, raw := range sizes {
			n := int(raw%200) + 1
			kind := []Kind{KTuple, KArray, KRefCell, KRaw}[int(raw)%4]
			if kind == KRefCell {
				n = 1
			}
			r := a.Alloc(kind, n)
			tag := int64(len(objs))*7919 + 13
			if kind != KRaw {
				for i := 0; i < n; i++ {
					s.Store(r, i, Int(tag+int64(i)))
				}
			} else {
				for i := 0; i < n; i++ {
					s.StoreRaw(r, i, uint64(tag+int64(i)))
				}
			}
			objs = append(objs, obj{r, kind, n, tag})
		}
		// Every object written so far must still be intact.
		for _, o := range objs {
			h := s.Header(o.ref)
			if h.Kind() != o.kind || h.Len() != o.n {
				return false
			}
			for i := 0; i < o.n; i++ {
				if o.kind != KRaw {
					if s.Load(o.ref, i).AsInt() != o.tag+int64(i) {
						return false
					}
				} else if s.LoadRaw(o.ref, i) != uint64(o.tag+int64(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPinUnpinSequenceQuick(t *testing.T) {
	// Property: after arbitrary pin/unpin sequences each object's pinned
	// bit reflects the last operation on it, and each operation reports
	// the transition it made.
	s := NewSpace()
	a := NewAllocator(s, 1)
	refs := make([]Ref, 32)
	for i := range refs {
		refs[i] = a.AllocRef(Int(int64(i)))
	}
	pinned := make([]bool, len(refs))
	f := func(ops []uint8) bool {
		for _, op := range ops {
			i := int(op) % len(refs)
			if op%2 == 0 {
				if s.Pin(refs[i], int(op)%7) == pinned[i] {
					return false // a new pin must be reported exactly when unpinned
				}
				pinned[i] = true
			} else {
				if s.Unpin(refs[i]) != pinned[i] {
					return false
				}
				pinned[i] = false
			}
		}
		for i, r := range refs {
			if s.Header(r).Pinned() != pinned[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkLayout pins where a Chunk's hot words sit. Every barrier
// resolves an object's chunk and loads ID and Data from it, so they stay
// first: a field placed ahead of them once cost mlang's programs nine runs
// in nine. The capacity (Words) fills the pad after ID, as Data may run
// past it. A Chunk is allocated per chunk record ever published — each
// arena's and up to three given-back tails' — and never freed, and 80
// bytes is Go's 80-byte size class: a field that grows it costs every
// record the 96-byte one.
func TestChunkLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit targets")
	}
	var c Chunk
	if got := unsafe.Sizeof(c); got != 80 {
		t.Errorf("Chunk is %d bytes, want 80", got)
	}
	if got := unsafe.Offsetof(c.ID); got != 0 {
		t.Errorf("ID at offset %d, want 0", got)
	}
	if got := unsafe.Offsetof(c.Data); got != 8 {
		t.Errorf("Data at offset %d, want 8", got)
	}
}

// A stale reader of a chunk's earlier tenant may load anywhere in the
// extent that tenant knew: a Ref into the end of a chunk still loads in
// range once the chunk is recycled and its next tenant gives back the
// tail below that Ref, and the word it reads is the tail's next tenant's.
// It fails if GiveBack re-slices Data to the capacity it keeps.
func TestStaleReaderLoadsPastGivenBackTail(t *testing.T) {
	s := NewSpace()
	old := NewAllocator(s, 1)
	for len(old.Chunks) < 2 {
		old.AllocTuple(Int(1), Int(2))
	}
	c := old.Chunks[0]
	stale := MakeRef(c.ID, c.Alloc-3) // the last tuple of the first chunk
	for _, ch := range old.Chunks {
		s.Release(ch)
	}

	next := NewAllocator(s, 2)
	r := next.AllocTuple(Int(3))
	if s.ChunkOf(r) != c {
		t.Fatalf("the next tenant's first chunk is %d, not the recycled chunk %d", r.Chunk(), c.ID)
	}
	next.GiveBack()
	if k := stale.Off(); c.Words() > k || len(c.Data) <= k+2 {
		t.Fatalf("chunk %d keeps %d words of %d; the stale Ref is at %d", c.ID, c.Words(), len(c.Data), k)
	}
	if s.Header(stale) != Header(MakeHeader(KTuple, 2)) || s.Load(stale, 1) != Int(2) {
		t.Fatalf("stale Ref %v reads %#x, %v", stale, uint64(s.Header(stale)), s.Load(stale, 1))
	}

	// The tail's next tenant spans it with one array.
	tail := NewAllocator(s, 3)
	tc := s.ChunkOf(tail.Alloc(KArray, MinChunkWords-c.Words()-1))
	if unsafe.SliceData(tc.Data) != &c.Data[c.Words()] {
		t.Fatalf("the tail's next tenant took chunk %d, not the tail of chunk %d", tc.ID, c.ID)
	}
	if s.Header(stale).Kind() == KTuple && s.Load(stale, 1) == Int(2) {
		t.Fatalf("stale Ref %v still reads the earlier tenant's tuple over the tail's new tenant", stale)
	}
}
