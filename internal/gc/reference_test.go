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
// It keeps the rules gc.go keeps, by its own means: a from-space chunk in
// which a dense parse finds a pinned header (holdsPinned) is retained; a
// chunk known dense — Tenured without a free list, oversize, or one whose
// distinct remembered targets, each reached by one entry alone, fill at
// least half of it (denseByRemembered, a walk of the remembered sets
// through maps before anything moves) — is retained while anything in it
// lives; and every live object in either is traced where it lies, marked in
// a map. A dense parse of each such chunk sums its live words, and it stays
// Tenured while they are at least half its words. Remembered entries whose
// target stays in place are de-duplicated through a map.

// refRun is the reference's per-collection state. toAlloc and newRemsets
// are parallel to order.
type refRun struct {
	c          *Collector
	order      []*hierarchy.Heap // scope heaps, shallowest first (lock order)
	toAlloc    []*mem.Allocator
	queue      []mem.Ref        // gray objects: copied or pinned, payload unscanned
	marked     map[mem.Ref]bool // objects traced in place this cycle
	stayed     map[hierarchy.RememberedEntry]bool
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
	if i >= 0 && ch.FromSpace == mem.NotFromSpace {
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
		marked:     map[mem.Ref]bool{},
		stayed:     map[hierarchy.RememberedEntry]bool{},
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
	// keeps forward from moving an object twice. A chunk holding a pin stays,
	// and so do its objects; so do those of a dense Tenured chunk.
	var oldWords int64
	for i, h := range r.order {
		r.toAlloc[i] = mem.NewAllocator(c.Space, h.ID)
		for _, ch := range h.Chunks {
			switch {
			case holdsPinned(ch):
				ch.FromSpace = mem.Keep
			case ch.Tenured && ch.FreeWordCount() == 0 || ch.Words() > mem.ChunkWords:
				ch.FromSpace = mem.Survivor
			default:
				ch.FromSpace = mem.Evacuate
			}
			oldWords += int64(ch.Words())
		}
	}
	for ch := range r.denseByRemembered() {
		ch.FromSpace = mem.Survivor
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
			from, live := ch.FromSpace, r.liveWords(ch)
			ch.FromSpace = mem.NotFromSpace
			if from == mem.Keep || from == mem.Survivor && live > 0 {
				ch.Tenured = 2*live >= ch.Words()
				kept = append(kept, ch)
				retainedOldWords += int64(ch.Words())
				if from == mem.Keep {
					r.res.RetainedChunks++
				}
			} else {
				c.Space.Release(ch)
			}
		}
		for _, ch := range r.toAlloc[i].Chunks {
			ch.Tenured = true
		}
		kept = append(kept, r.toAlloc[i].Chunks...)
		h.Chunks = kept
	}
	r.res.ReclaimedWords = oldWords - retainedOldWords
	return r.res
}

// validTarget returns the scope object the field of remembered entry e
// points at, and whether e is a valid down-pointer into the scope's
// from-space: its holder lies outside the scope, parses and covers the
// index, and its field holds a reference.
func (r *refRun) validTarget(e hierarchy.RememberedEntry) (mem.Ref, bool) {
	sp := r.c.Space
	if r.scopeOf(sp.ChunkOf(e.Holder).HeapID()) >= 0 {
		return 0, false
	}
	hd := sp.Header(e.Holder)
	if !hd.Valid() || hd.Kind() == mem.KFree {
		return 0, false
	}
	if hn := max(hd.Len(), 1); e.Index < 0 || e.Index >= hn {
		return 0, false
	}
	v := sp.Load(e.Holder, e.Index)
	if !v.IsRef() || r.fromSpaceOf(v.Ref()) < 0 {
		return 0, false
	}
	return v.Ref(), true
}

// denseByRemembered returns the Evacuate chunks whose distinct remembered
// targets fill at least half of their words, none of those targets reached
// by two entries: counted over every entry of the scope's remembered sets
// before anything moves.
func (r *refRun) denseByRemembered() map[*mem.Chunk]bool {
	sp := r.c.Space
	reached := map[mem.Ref]int{}
	for _, h := range r.order {
		h.Remset.Each(func(e hierarchy.RememberedEntry) {
			if t, ok := r.validTarget(e); ok && sp.ChunkOf(t).FromSpace == mem.Evacuate {
				reached[t]++
			}
		})
	}
	words, refused := map[*mem.Chunk]int{}, map[*mem.Chunk]bool{}
	for t, n := range reached {
		ch := sp.ChunkOf(t)
		words[ch] += max(sp.Header(t).Len(), 1) + 1
		refused[ch] = refused[ch] || n > 1
	}
	dense := map[*mem.Chunk]bool{}
	for ch, w := range words {
		if !refused[ch] && 2*w >= ch.Words() {
			dense[ch] = true
		}
	}
	return dense
}

// liveWords sums the words of the objects marked in c: a dense parse.
func (r *refRun) liveWords(c *mem.Chunk) int {
	live := 0
	for off := 0; off < c.Alloc; {
		n := max(c.Header(mem.MakeRef(c.ID, off)).Len(), 1) + 1
		if r.marked[mem.MakeRef(c.ID, off)] {
			live += n
		}
		off += n
	}
	return live
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
// drops the rest. Of the entries whose target stays in place, the first
// per field survives.
func (r *refRun) processRemsets() {
	sp := r.c.Space
	for _, h := range r.order {
		h.Remset.Each(func(e hierarchy.RememberedEntry) {
			// A holder being collected too is re-derived by the scan if it
			// survives. The concurrent sweep reclaims internal-heap holders
			// in place (KFree) and may later re-carve the span; an entry
			// whose holder no longer parses, was freed, or no longer covers
			// the recorded index is stale and must not be dereferenced. An
			// entry whose field was overwritten, points outside the scope
			// or was already redirected is dead.
			ref, ok := r.validTarget(e)
			if !ok {
				return
			}
			v, tgt := ref.Value(), r.fromSpaceOf(ref)
			if nv := r.evacuate(v.Ref(), tgt); nv != v {
				sp.Store(e.Holder, e.Index, nv)
			} else if r.stayed[e] {
				return
			} else {
				r.stayed[e] = true
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
			if r.fromSpaceOf(p) < 0 || !hd.Pinned() || hd.Kind() == mem.KForward {
				return
			}
			if r.mark(p) {
				r.res.PinnedTraced++
			}
		})
	}
}

// mark greys p in place, the first time only, and reports whether it did.
func (r *refRun) mark(p mem.Ref) bool {
	if r.marked[p] {
		return false
	}
	r.marked[p] = true
	r.queue = append(r.queue, p)
	return true
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
// scope heap i: it leaves an object of a Keep or Survivor chunk in place, copies an
// unpinned object to to-space (installing forwarding), follows a
// forwarding, and leaves a pinned object in place.
func (r *refRun) evacuate(ref mem.Ref, i int) mem.Value {
	if r.c.Space.ChunkOf(ref).FromSpace >= mem.Survivor {
		if r.mark(ref) && r.c.Space.Header(ref).Pinned() {
			r.res.PinnedTraced++
		}
		return ref.Value()
	}
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
			if r.mark(ref) {
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
