package mem

import "sync/atomic"

// Allocator is a per-task bump allocator into chunks owned by one heap of
// the hierarchy. Because each task allocates only into its own leaf heap,
// allocation requires no synchronization beyond acquiring fresh chunks from
// the space — the property that makes hierarchical memory management fast.
type Allocator struct {
	space *Space
	heap  uint32
	cur   *Chunk
	// Chunks lists every chunk this allocator obtained, in order; the
	// owning heap adopts them. The slice is read by the heap's collector
	// while the task is stopped, never concurrently with allocation.
	Chunks []*Chunk
	// reuse lists chunks the concurrent sweep left with threaded free
	// spans (gc/cgc.go). They already belong to the heap — they are not
	// appended to Chunks — and new objects are carved out of their spans
	// before fresh chunks are requested.
	reuse []*Chunk
	// grow is the least size (words) the next refill asks the space for:
	// twice the last chunk obtained, capped at ChunkWords. Starting at zero
	// makes the first chunk the smallest class that fits the first object,
	// so the chunks an allocator holds total at most about twice what it
	// allocated plus one minimum chunk, and once it holds about
	// 2*ChunkWords it refills ChunkWords at a time.
	grow int
	// copied counts words CopyIn placed that FlushCopied has yet to add to
	// the space's total.
	copied int64
}

// NewAllocator creates an allocator feeding the given heap.
func NewAllocator(s *Space, heap uint32) *Allocator {
	return &Allocator{space: s, heap: heap}
}

// Heap returns the id of the heap this allocator feeds.
func (a *Allocator) Heap() uint32 { return a.heap }

// Retarget redirects the allocator to a different heap (after a local
// collection of its own). Previously obtained chunks stay with their
// original heap; the caller is responsible for having adopted them. The
// refill size is kept: the mutator that grew it keeps allocating.
func (a *Allocator) Retarget(heap uint32) {
	a.heap = heap
	a.cur = nil
	a.Chunks = nil
	a.reuse = nil
}

// Alloc allocates an object with the given kind and payload length (words)
// and returns its reference. The payload is zeroed (all fields Nil).
// Objects always occupy at least one payload word so forwarding headers
// have room for the forwarding pointer.
func (a *Allocator) Alloc(k Kind, payloadWords int) Ref {
	c, off := a.alloc(k, payloadWords)
	p := c.Data[off+1 : off+1+payloadWords]
	for i := range p {
		storeRelaxed(&p[i], 0)
	}
	return MakeRef(c.ID, off)
}

// alloc carves a mutator object and counts its words at once; the caller
// writes its payload.
func (a *Allocator) alloc(k Kind, n int) (*Chunk, int) {
	a.space.totalAlloc.Add(int64(max(n, 1) + 1))
	return a.carve(MakeHeader(k, n), n)
}

// carve is the one allocation step of Alloc, the Alloc* helpers and CopyIn.
// It takes the max(n,1)+1 words of an object with n payload words — from
// the bump chunk, else from a swept free span, else from a refill — writes
// header hd and, for a zero-length object, the pad word that gives a
// forwarding pointer room. The caller writes the n payload words and counts
// the object. Nothing clears memory ahead of an allocation, so a carved
// word holds what an earlier tenant left until its caller writes it
// (DESIGN.md §6 decision 1). The stores are relaxed: a stale reader of a
// recycled chunk may still load these words.
func (a *Allocator) carve(hd uint64, n int) (*Chunk, int) {
	total := max(n, 1) + 1
	c := a.cur
	var off int
	if c != nil && c.Alloc+total <= len(c.Data) {
		off = c.Alloc
		c.Alloc += total
	} else if c, off = a.allocFromFree(total); c == nil {
		c = a.space.NewChunk(a.heap, max(total, a.grow))
		a.grow = min(2*len(c.Data), ChunkWords)
		a.cur = c
		a.Chunks = append(a.Chunks, c)
		off, c.Alloc = 0, total
	}
	storeRelaxed(&c.Data[off], hd)
	if n == 0 {
		storeRelaxed(&c.Data[off+1], 0)
	}
	return c, off
}

// CopyIn is the local collector's copy kernel. It moves the object at word
// off of src — claimed by the caller with Chunk.BeginCopy, which returned hd
// — to the end of the allocator's space, installs the forwarding header and
// returns the new location. src is resolved once and the payload moves with
// one copy. After the claim every store is relaxed, the forwarding header
// too: the claim keeps pinners off the old object, no reader acts on a
// from-space header before the collection reopens the heap's gate, and the
// new object lies in to-space, which no task can reach before then (DESIGN.md
// §6 decision 7). The copy keeps the candidate bit and drops every other
// state bit. An allocator used for CopyIn is a to-space allocator: it is
// handed no reusable spans, and its words reach the allocation totals
// through FlushCopied.
func (a *Allocator) CopyIn(src *Chunk, off int, hd Header) Ref {
	n := hd.Len()
	c, to := a.carve(MakeHeader(hd.Kind(), n)|uint64(hd)&hdrCandidate, n)
	a.copied += int64(max(n, 1) + 1)
	copyRelaxed(c.Data[to+1:to+1+n], src.Data[off+1:off+1+n])
	nr := MakeRef(c.ID, to)
	src.forward(off, n, nr)
	return nr
}

// FlushCopied adds the words CopyIn placed since the last call to the
// space's cumulative total: once per collection, not one locked add per
// object.
func (a *Allocator) FlushCopied() {
	a.space.totalAlloc.Add(a.copied)
	a.copied = 0
}

// AddReusable hands the allocator a chunk whose free list was threaded by
// the concurrent sweep. The chunk must already belong to this allocator's
// heap; chunks without free spans are ignored. A chunk re-swept across
// cycles can be handed back repeatedly, so entries are deduplicated — two
// entries would walk the same free list.
//
// The ownership test MUST come first: a buffered chunk a later sweep
// released may already be recycled into another heap, whose refill writes
// the plain freeHead field concurrently. The atomic heap-id test
// short-circuits that case, and a positive result proves no release
// intervened (releases of this heap's chunks happen only while its owner
// is parked), making the freeHead read single-owner again.
func (a *Allocator) AddReusable(c *Chunk) {
	if c.HeapID() != a.heap || c.freeHead == 0 {
		return
	}
	for _, e := range a.reuse {
		if e == c {
			return
		}
	}
	a.reuse = append(a.reuse, c)
}

// Revalidate drops allocation targets a concurrent sweep may have
// invalidated: the current bump chunk, if released back to the space (it
// was fully dead), and reuse entries released or exhausted. Called by the
// owner on resume from a join, before any allocation — while the owner was
// parked the sweep was free to release any of its heap's chunks, and a
// released chunk's id may already be recycled into another heap. At the
// resume point a released chunk can never carry this heap's id again (the
// only path back is a merge this owner has not run yet), so the ownership
// test is exact.
func (a *Allocator) Revalidate() {
	if a.cur != nil && a.cur.HeapID() != a.heap {
		a.cur = nil
	}
	kept := a.reuse[:0]
	for _, c := range a.reuse {
		// Ownership first, for the same reason as AddReusable: a released
		// entry's freeHead may be getting reset by its next owner.
		if c.HeapID() == a.heap && c.freeHead != 0 {
			kept = append(kept, c)
		}
	}
	a.reuse = kept
}

// allocFromFree takes total words from swept free spans, first fit, and
// returns their chunk and offset, or a nil chunk when no span fits. A span
// is used only when it matches exactly or leaves a remainder of at least
// two words (header + link), so header lengths always describe real
// payloads — padding would corrupt the dense chunk walk. It writes only the
// free list: carve writes the object. The tail's header and link are
// atomic stores: stale readers retrying an entanglement validation may
// still load these words.
func (a *Allocator) allocFromFree(total int) (*Chunk, int) {
	for ci := 0; ci < len(a.reuse); ci++ {
		c := a.reuse[ci]
		prev := 0 // 0 = list head, else 1 + offset of predecessor span
		for cur := c.freeHead; cur != 0; {
			off := cur - 1
			spanLen := Header(atomic.LoadUint64(&c.Data[off])).Len()
			spanTotal := 1 + spanLen
			next := int(atomic.LoadUint64(&c.Data[off+1]))
			rest := spanTotal - total
			if rest != 0 && rest < 2 {
				prev, cur = cur, next
				continue
			}
			link := next
			if rest != 0 {
				// Split: the tail keeps the span's place in the list.
				tail := off + total
				atomic.StoreUint64(&c.Data[tail+1], uint64(next))
				atomic.StoreUint64(&c.Data[tail], MakeHeader(KFree, rest-1))
				link = tail + 1
			}
			if prev == 0 {
				c.freeHead = link
			} else {
				atomic.StoreUint64(&c.Data[prev], uint64(link))
			}
			c.freeWords -= total
			if c.freeHead == 0 {
				a.reuse[ci] = a.reuse[len(a.reuse)-1]
				a.reuse = a.reuse[:len(a.reuse)-1]
			}
			return c, off
		}
	}
	return nil, 0
}

// AllocTuple allocates an immutable tuple initialized with vs.
func (a *Allocator) AllocTuple(vs ...Value) Ref {
	c, off := a.alloc(KTuple, len(vs))
	for i, v := range vs {
		storeRelaxed(&c.Data[off+1+i], uint64(v))
	}
	return MakeRef(c.ID, off)
}

// AllocArray allocates a mutable array of n slots, each initialized to v.
func (a *Allocator) AllocArray(n int, v Value) Ref {
	c, off := a.alloc(KArray, n)
	p := c.Data[off+1 : off+1+n]
	for i := range p {
		storeRelaxed(&p[i], uint64(v))
	}
	return MakeRef(c.ID, off)
}

// AllocRef allocates a mutable ref cell holding v.
func (a *Allocator) AllocRef(v Value) Ref {
	c, off := a.alloc(KRefCell, 1)
	storeRelaxed(&c.Data[off+1], uint64(v))
	return MakeRef(c.ID, off)
}

// AllocString allocates an immutable raw object holding the bytes of str,
// packed 8 per word, preceded by one word recording the byte length.
func (a *Allocator) AllocString(str string) Ref {
	words := 1 + (len(str)+7)/8
	c, off := a.alloc(KRaw, words)
	base := off + 1
	storeRelaxed(&c.Data[base], uint64(len(str)))
	for w := 0; w < words-1; w++ {
		var packed uint64
		for i := 8 * w; i < len(str) && i < 8*w+8; i++ {
			packed |= uint64(str[i]) << (8 * (i % 8))
		}
		storeRelaxed(&c.Data[base+1+w], packed)
	}
	return MakeRef(c.ID, off)
}

// LoadString decodes a raw object written by AllocString.
func (s *Space) LoadString(r Ref) string {
	c := s.chunk(r.Chunk())
	base := r.Off() + 1
	n := int(c.Data[base])
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = byte(c.Data[base+1+i/8] >> (8 * (i % 8)))
	}
	return string(b)
}
