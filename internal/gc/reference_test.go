package gc

import (
	"runtime"

	"mplgo/internal/chaos"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// The word-by-word collector the package shipped until the Cheney kernel
// replaced it, kept as the oracle of TestCollectMatchesReference and
// FuzzCollect: every object goes through Space.BeginCopy, Allocator.Alloc,
// one Space.Load/Space.Store pair per payload word and Space.Forward, and
// grey objects wait on an explicit stack. It is slow and obviously right,
// and it shares nothing with gc.go but the Collector's fields and Result.

// refRun is the reference's per-collection state. toAlloc and newRemsets
// are parallel to order.
type refRun struct {
	c          *Collector
	order      []*hierarchy.Heap // scope heaps, shallowest first (lock order)
	toAlloc    []*mem.Allocator
	queue      []mem.Ref // gray objects: copied or pinned, payload unscanned
	marked     []mem.Ref // pinned objects marked this cycle (marks cleared at end)
	newRemsets []hierarchy.List[hierarchy.RememberedEntry]
	res        Result
}

// scopeOf returns the index in r.order of the scope heap with the given id,
// or -1: one compare for the runtime's one-heap scope.
func (r *refRun) scopeOf(id uint32) int {
	for i, h := range r.order {
		if h.ID == id {
			return i
		}
	}
	return -1
}

// fromSpaceOf returns the index in r.order of the heap whose from-space
// holds ref, or -1 when ref lies outside the scope or already in to-space.
// The mark is read only once the chunk is known to be the scope's.
func (r *refRun) fromSpaceOf(ref mem.Ref) int {
	ch := r.c.Space.ChunkByID(ref.Chunk())
	i := r.scopeOf(ch.HeapID())
	if i >= 0 && !ch.FromSpace {
		return -1
	}
	return i
}

// holdsPinned reports whether a pinned header lies in c: a dense parse
// from 0 to Alloc, which a from-space chunk supports because a forwarding
// header keeps its object's length. It asks the headers themselves, not the
// pinned sets or the marks the collector retains by.
func holdsPinned(c *mem.Chunk) bool {
	for off := 0; off < c.Alloc; {
		hd := c.Header(mem.MakeRef(c.ID, off))
		if hd.Pinned() {
			return true
		}
		off += max(hd.Len(), 1) + 1
	}
	return false
}

// refCollect is Collect as it was: same contract, same phases.
func (c *Collector) refCollect(scope []*hierarchy.Heap) Result {
	if len(scope) == 0 {
		return Result{}
	}
	r := &refRun{
		c:          c,
		order:      make([]*hierarchy.Heap, 0, len(scope)),
		toAlloc:    make([]*mem.Allocator, len(scope)),
		newRemsets: make([]hierarchy.List[hierarchy.RememberedEntry], len(scope)),
	}
	// Close the gates shallowest-first (entanglement slow paths never hold
	// one gate while entering another, so any order is deadlock-free; this
	// one matches the old lock order for easy comparison), then fold the
	// lock-free publication buffers into the owner-only views: with the
	// gate closed, no reader can be mid-publication, so the drained Pinned
	// and Remset lists are complete.
	// WaitBeginCollect: the concurrent collector's gate flushes briefly
	// close every live heap's gate, and an LGC racing one waits the flush
	// out.
	for i := len(scope) - 1; i >= 0; i-- {
		h := scope[i]
		h.Gate.WaitBeginCollect()
		h.DrainBuffers()
		// Chunks the concurrent sweep queued for allocation reuse are
		// about to be evacuated or released; they must not linger as
		// carving targets.
		h.DrainReusable(nil)
		r.order = append(r.order, h)
	}
	defer func() {
		for i := len(r.order) - 1; i >= 0; i-- {
			r.order[i].Gate.EndCollect()
		}
	}()

	// Everything the scope holds now is from-space; what forward allocates
	// from here on carries the same heap ids but no mark, which is what
	// keeps forward from moving an object twice.
	var oldWords int64
	for i, h := range r.order {
		r.toAlloc[i] = mem.NewAllocator(c.Space, h.ID)
		for _, ch := range h.Chunks {
			ch.FromSpace = true
			oldWords += int64(ch.Words())
		}
	}

	// Phase 1: roots.
	r.scanShadowStacks()
	r.processRemsets()
	r.tracePinned()

	// Phase 2: transitive copy/trace.
	r.drain()

	// Phase 3: install rebuilt remsets, swap chunk lists, release from-space
	// (unmarked first: a released chunk may be another heap's at once).
	var retainedOldWords int64
	for i, h := range r.order {
		h.Remset = r.newRemsets[i]
		var kept []*mem.Chunk
		for _, ch := range h.Chunks {
			ch.FromSpace = false
			if holdsPinned(ch) {
				kept = append(kept, ch)
				retainedOldWords += int64(ch.Words())
				r.res.RetainedChunks++
			} else {
				c.Space.Release(ch)
			}
		}
		kept = append(kept, r.toAlloc[i].Chunks...)
		h.Chunks = kept
	}
	// Clear transient marks on pinned objects.
	for _, p := range r.marked {
		c.Space.ChunkOf(p).ClearMark(p)
	}
	r.res.ReclaimedWords = oldWords - retainedOldWords
	return r.res
}

// scanShadowStacks forwards every root of every task attached to the scope.
func (r *refRun) scanShadowStacks() {
	for _, h := range r.order {
		for _, rs := range h.RootSets {
			rs.Roots(func(p *mem.Value) {
				*p = r.forward(*p)
			})
		}
	}
}

// processRemsets uses down-pointer entries as roots and begins the rebuilt
// remembered sets with the still-valid external entries: one pass, at most
// one entry out per entry in. A field stored to k times has k entries; the
// first forwards the target and redirects the field into to-space, which
// drops the rest. Duplicates whose target is pinned in place all survive:
// harmless (an entry is a hint to look at the field) and never more than
// came in.
func (r *refRun) processRemsets() {
	sp := r.c.Space
	for _, h := range r.order {
		h.Remset.Each(func(e hierarchy.RememberedEntry) {
			if r.scopeOf(sp.ChunkOf(e.Holder).HeapID()) >= 0 {
				// The holder is being collected too; if it survives, the
				// scan re-derives this entry with the holder's new address.
				return
			}
			// The concurrent sweep reclaims internal-heap holders in place
			// (KFree) and may later re-carve the span; an entry whose holder
			// no longer parses, was freed, or no longer covers the recorded
			// index is stale and must not be dereferenced.
			hd := sp.Header(e.Holder)
			if !hd.Valid() || hd.Kind() == mem.KFree {
				return
			}
			if hn := max(hd.Len(), 1); e.Index < 0 || e.Index >= hn {
				return
			}
			v := sp.Load(e.Holder, e.Index)
			if !v.IsRef() {
				return // field was overwritten; entry is dead
			}
			tgt := r.fromSpaceOf(v.Ref())
			if tgt < 0 {
				return // points outside the suffix, or was already redirected
			}
			if nv := r.evacuate(v.Ref(), tgt); nv != v {
				sp.Store(e.Holder, e.Index, nv)
			}
			// The entry survives, indexed by the target's (unchanged) heap.
			r.newRemsets[tgt].Append(e)
		})
	}
}

// tracePinned greys every pinned object of the scope: pinned objects are
// unconditionally live (a concurrent task may hold them) and traced in
// place.
func (r *refRun) tracePinned() {
	for _, h := range r.order {
		h.Pinned.Each(func(p mem.Ref) {
			hd := r.c.Space.Header(p)
			if !hd.Pinned() || hd.Kind() == mem.KForward {
				return
			}
			if r.c.Space.SetMark(p) {
				r.marked = append(r.marked, p)
				r.queue = append(r.queue, p)
				r.res.PinnedTraced++
			}
		})
	}
}

// forward returns the value to use in place of v after collection. It is
// idempotent: it acts only on a reference into this collection's
// from-space, so an already forwarded value comes back unchanged.
func (r *refRun) forward(v mem.Value) mem.Value {
	if !v.IsRef() {
		return v
	}
	i := r.fromSpaceOf(v.Ref())
	if i < 0 {
		return v
	}
	return r.evacuate(v.Ref(), i)
}

// evacuate returns the current location of the from-space object ref of
// scope heap i: it copies an unpinned object to to-space (installing
// forwarding), follows a forwarding, and leaves a pinned object in place.
func (r *refRun) evacuate(ref mem.Ref, i int) mem.Value {
	// Claim the object through the header state machine. With the scope
	// gates closed no pin can race us here, but the discipline is what
	// makes the protocol auditable: a copy only ever starts from a
	// successful PLAIN→BUSY transition, and every refusal tells us why.
	hd, ok := r.c.Space.BeginCopy(ref)
	if !ok {
		switch {
		case hd.Kind() == mem.KForward:
			return r.c.Space.Load(ref, 0)
		case hd.Pinned():
			if r.c.Space.SetMark(ref) {
				r.marked = append(r.marked, ref)
				r.queue = append(r.queue, ref)
				r.res.PinnedTraced++
			}
			return ref.Value()
		default:
			// BUSY is unreachable: this collector is the only copier of
			// its scope and completes each claim before the next.
			panic("gc: BeginCopy refused a plain header")
		}
	}
	if ch := r.c.Space.Chaos; ch != nil && ch.Should(chaos.BusyWindow) {
		// Stretch the transient BUSY window so concurrent pinners dwell in
		// their PinBusy back-off/retry loops.
		for i := ch.Spin(chaos.BusyWindow); i > 0; i-- {
			runtime.Gosched()
		}
	}
	// Copy to the object's own heap's to-space, preserving heap membership
	// and header flags (candidate survives the move).
	n := hd.Len()
	nr := r.toAlloc[i].Alloc(hd.Kind(), n)
	// Copy header flags (kind and length were set by Alloc).
	if hd.Candidate() {
		r.c.Space.SetCandidate(nr)
	}
	if hd.Kind() == mem.KRaw {
		for i := 0; i < n; i++ {
			r.c.Space.StoreRaw(nr, i, r.c.Space.LoadRaw(ref, i))
		}
	} else {
		for i := 0; i < n; i++ {
			r.c.Space.Store(nr, i, r.c.Space.Load(ref, i))
		}
	}
	r.c.Space.Forward(ref, nr)
	r.res.CopiedObjects++
	r.res.CopiedWords += int64(n + 1)
	r.queue = append(r.queue, nr)
	return nr.Value()
}

// drain scans grey objects until none remain, forwarding their fields and
// re-deriving internal down-pointer remembered entries.
func (r *refRun) drain() {
	sp := r.c.Space
	for len(r.queue) > 0 {
		q := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		hd := sp.Header(q)
		if !hd.Kind().Scanned() {
			continue
		}
		qi := r.scopeOf(sp.ChunkOf(q).HeapID())
		for i := 0; i < hd.Len(); i++ {
			v := sp.Load(q, i)
			nv := r.forward(v)
			if nv != v {
				sp.Store(q, i, nv)
			}
			// Re-derive internal down-pointer entries: q points at a
			// strictly deeper scope heap, which r.order lists later.
			if nv.IsRef() && qi >= 0 {
				if ti := r.scopeOf(sp.ChunkOf(nv.Ref()).HeapID()); ti > qi {
					r.newRemsets[ti].Append(hierarchy.RememberedEntry{Holder: q, Index: i})
				}
			}
		}
	}
}
