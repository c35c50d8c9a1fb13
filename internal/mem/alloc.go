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
	// AllocWords counts words allocated through this allocator.
	AllocWords int64
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
	// AllocWords and the space's total.
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
	n := payloadWords
	if n < 1 {
		n = 1
	}
	total := n + 1
	c := a.cur
	if c == nil || c.Alloc+total > len(c.Data) {
		if r, ok := a.allocFromFree(k, payloadWords, total); ok {
			return r
		}
		c = a.space.NewChunk(a.heap, max(total, a.grow))
		a.grow = min(2*len(c.Data), ChunkWords)
		a.cur = c
		a.Chunks = append(a.Chunks, c)
	}
	off := c.Alloc
	c.Alloc += total
	storeRelaxed(&c.Data[off], MakeHeader(k, payloadWords))
	a.AllocWords += int64(total)
	a.space.totalAlloc.Add(int64(total))
	return MakeRef(c.ID, off)
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
// state bit. It writes every word it carves — header, payload, and a
// zero-length object's pad word — so its refill takes a recycled chunk
// unscrubbed, and the chunk's dirty extent remembers how far the previous
// tenant wrote for the next mutator refill to clear. An allocator used for
// CopyIn is a to-space allocator: it never carves reusable spans, and its
// words reach the allocation totals through FlushCopied.
func (a *Allocator) CopyIn(src *Chunk, off int, hd Header) Ref {
	n := hd.Len()
	total := max(n, 1) + 1 // as Alloc: a zero-length object keeps a pad word
	c := a.cur
	if c == nil || c.Alloc+total > len(c.Data) {
		c = a.space.newChunk(a.heap, max(total, a.grow), false)
		a.grow = min(2*len(c.Data), ChunkWords)
		a.cur = c
		a.Chunks = append(a.Chunks, c)
	}
	to := c.Alloc
	c.Alloc += total
	a.copied += int64(total)
	storeRelaxed(&c.Data[to], MakeHeader(hd.Kind(), n)|uint64(hd)&hdrCandidate)
	if n == 0 {
		storeRelaxed(&c.Data[to+1], 0)
	}
	copyRelaxed(c.Data[to+1:to+1+n], src.Data[off+1:off+1+n])
	nr := MakeRef(c.ID, to)
	src.forward(off, n, nr)
	return nr
}

// FlushCopied adds the words CopyIn placed since the last call to
// AllocWords and to the space's cumulative total: once per collection, not
// one locked add per object.
func (a *Allocator) FlushCopied() {
	a.AllocWords += a.copied
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
// released may already be recycled into another heap, whose scrub writes
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
		// entry's freeHead may be getting scrubbed by its next owner.
		if c.HeapID() == a.heap && c.freeHead != 0 {
			kept = append(kept, c)
		}
	}
	a.reuse = kept
}

// allocFromFree serves an allocation from swept free spans, first fit. A
// span is used only when it matches exactly or leaves a remainder of at
// least two words (header + link), so header lengths always describe real
// payloads — padding would corrupt the dense chunk walk. Object header and
// payload are written atomically: stale readers retrying an entanglement
// validation may still load these words.
func (a *Allocator) allocFromFree(k Kind, payloadWords, total int) (Ref, bool) {
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
			n := total - 1
			for w := off + 1; w < off+1+n; w++ {
				atomic.StoreUint64(&c.Data[w], 0)
			}
			atomic.StoreUint64(&c.Data[off], MakeHeader(k, payloadWords))
			a.AllocWords += int64(total)
			a.space.totalAlloc.Add(int64(total))
			if c.freeHead == 0 {
				a.reuse[ci] = a.reuse[len(a.reuse)-1]
				a.reuse = a.reuse[:len(a.reuse)-1]
			}
			return MakeRef(c.ID, off), true
		}
	}
	return Ref(0), false
}

// AllocTuple allocates an immutable tuple initialized with vs.
func (a *Allocator) AllocTuple(vs ...Value) Ref {
	r := a.Alloc(KTuple, len(vs))
	c := a.space.chunk(r.Chunk())
	base := r.Off() + 1
	for i, v := range vs {
		storeRelaxed(&c.Data[base+i], uint64(v))
	}
	return r
}

// AllocArray allocates a mutable array of n slots, each initialized to v.
func (a *Allocator) AllocArray(n int, v Value) Ref {
	r := a.Alloc(KArray, n)
	if v != 0 {
		c := a.space.chunk(r.Chunk())
		base := r.Off() + 1
		for i := 0; i < n; i++ {
			storeRelaxed(&c.Data[base+i], uint64(v))
		}
	}
	return r
}

// AllocRef allocates a mutable ref cell holding v.
func (a *Allocator) AllocRef(v Value) Ref {
	r := a.Alloc(KRefCell, 1)
	storeRelaxed(&a.space.chunk(r.Chunk()).Data[r.Off()+1], uint64(v))
	return r
}

// AllocString allocates an immutable raw object holding the bytes of str,
// packed 8 per word, preceded by one word recording the byte length.
func (a *Allocator) AllocString(str string) Ref {
	words := 1 + (len(str)+7)/8
	r := a.Alloc(KRaw, words)
	c := a.space.chunk(r.Chunk())
	base := r.Off() + 1
	storeRelaxed(&c.Data[base], uint64(len(str)))
	for w := 0; w < words-1; w++ {
		var packed uint64
		for i := 8 * w; i < len(str) && i < 8*w+8; i++ {
			packed |= uint64(str[i]) << (8 * (i % 8))
		}
		storeRelaxed(&c.Data[base+1+w], packed)
	}
	return r
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
