// Package gc implements the hierarchical local collector (LGC) of the
// runtime: a Cheney-style copying collection of a task's own leaf heap —
// the only heap a task may move objects of (DESIGN.md deviation D2) —
// extended, per the paper, to tolerate entanglement:
//
//   - Pinned objects (entangled, per package entangle) are traced in place:
//     they are never moved nor reclaimed; a chunk a pinned mark lands in
//     is retained whole (every pinned object is in its heap's pinned set,
//     so the marks find them all). This is the space cost of entanglement,
//     and it is bounded: joins unpin (package hierarchy), after which the
//     memory is reclaimed by ordinary collections.
//   - Down-pointers into the leaf, recorded by the write barrier in its
//     remembered set, act as roots; the fields they describe are updated to
//     the targets' new locations *before* the leaf's gate reopens
//     (hierarchy.Gate.EndCollect), which is what makes the read barrier's
//     pin-then-validate protocol sound.
//   - The remembered set is rebuilt so entries never go stale: each entry
//     is revalidated against the holder's current field, in place, and one
//     whose holder lies in the leaf itself (a join merged the heap it
//     pointed into) is no down-pointer any more and is dropped.
//   - The pass over the entries is linear and hashes nothing. The leaf's
//     old chunks carry a from-space mark (mem.Chunk.FromSpace) for the
//     duration, forward moves only what lies in a marked chunk, and so a
//     duplicate entry — the write barrier records a field again unless the
//     heap's own strand overwrites a reference into the heap — finds its
//     field already redirected and is dropped.
//   - There is no grey set: a copied object is grey by lying in to-space
//     past the scan cursor, a (chunk index, offset) pair that walks the
//     to-space chunks up to the bump pointer (drain). Only pinned objects,
//     grey in place, wait on a list.
//
// Collections happen at allocation points of the owning task, so the
// mutator of the leaf is stopped; concurrent tasks can touch it only
// through entangled (pinned) objects or slow paths parked at the collection
// gate. There is no mutex: the leaf's Gate is closed for the duration
// (WaitBeginCollect waits out in-flight entanglement slow paths), and the
// publication buffers are drained into the owner-only views at the start.
// A move is one atomic write on the old header — the claim
// (mem.Chunk.BeginCopy, a CAS that a racing pin loses to or wins against) —
// and everything after it is plain (mem.Allocator.CopyIn), the forwarding
// header too: the claim keeps pinners off the old object, to-space is out of
// every task's reach until the gate reopens, and reopening it (EndCollect)
// is what publishes the moves; a reader that loads a from-space header
// sooner re-validates what it finds (DESIGN.md §6 decision 7).
// Fields of pinned objects and of holders outside the leaf, which other
// tasks read meanwhile, are still loaded and stored atomically.
package gc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mplgo/internal/chaos"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Result reports what one collection did.
type Result struct {
	CopiedObjects  int64
	CopiedWords    int64
	ReclaimedWords int64
	RetainedChunks int   // chunks kept alive only because they hold pins
	PinnedTraced   int64 // pinned objects traced in place
}

// Collector performs local collections for one runtime instance. Each adds
// its Result to the tree's trace.GC* rows.
type Collector struct {
	Space *mem.Space
	Tree  *hierarchy.Tree

	runs sync.Pool // of *run
}

// New creates a collector, binding the tree to the space (Tree.Bind) so the
// heaps it collects own their chunks by pointer as well as by id.
func New(space *mem.Space, tree *hierarchy.Tree) *Collector {
	tree.Bind(space)
	return &Collector{Space: space, Tree: tree}
}

// run is the per-collection state: the leaf, its to-space and the Cheney
// scan cursor over it (an index into to.Chunks and a word offset: black
// before, grey from there to the bump pointer). The Collector recycles its
// runs, so a collection allocates nothing from Go's heap but to-space.
type run struct {
	c         *Collector
	h         *hierarchy.Heap
	to        mem.Allocator
	ci, off   int
	marked    []mem.Ref // pinned objects marked this cycle (marks cleared at end)
	traced    int       // marked[:traced] have had their fields forwarded
	visitRoot func(*mem.Value)
	res       Result
}

// fromSpace resolves ref's chunk, once for everything done to the object,
// and returns it with whether ref lies in the leaf's from-space: not when it
// lies in another heap or already in to-space. The mark is read only once
// the chunk is known to be the leaf's.
func (r *run) fromSpace(ref mem.Ref) (*mem.Chunk, bool) {
	ch := r.c.Space.ChunkByID(ref.Chunk())
	return ch, ch.HeapID() == r.h.ID && ch.FromSpace
}

// Collect collects scope, the caller's leaf, a one-element slice; the
// caller owns it exclusively (no live child). Any other length panics
// before a gate closes. It returns statistics.
func (c *Collector) Collect(scope []*hierarchy.Heap) Result {
	if len(scope) != 1 {
		panic("gc: Collect takes the caller's leaf, a one-element scope")
	}
	h := scope[0]
	r, _ := c.runs.Get().(*run)
	if r == nil {
		r = &run{c: c}
		r.visitRoot = func(p *mem.Value) { *p = r.forward(*p) }
	}
	// Close the gate, then fold the lock-free publication buffers into the
	// owner-only views: with the gate closed, no reader can be
	// mid-publication, so the drained Pinned and Remset lists are complete.
	// WaitBeginCollect: the concurrent collector's gate flushes briefly
	// close every live heap's gate, and a collection racing one waits the
	// flush out.
	h.Gate.WaitBeginCollect()
	r.h, r.to = h, *mem.NewAllocator(c.Space, h.ID)
	defer r.finish()
	h.DrainBuffers()
	// Chunks the concurrent sweep queued for allocation reuse are about to
	// be evacuated or released; they must not linger as carving targets.
	h.DrainReusable(nil)
	// Everything the leaf holds now is from-space; what forward copies from
	// here on carries the same heap id but no mark, which is what keeps
	// forward from moving an object twice.
	var oldWords int64
	for _, ch := range h.Chunks {
		ch.FromSpace = true
		oldWords += int64(ch.Words())
	}

	// Phase 1: roots — the shadow stacks of every task attached to the
	// leaf, the down-pointers, the pins.
	for _, rs := range h.RootSets {
		rs.Roots(r.visitRoot)
	}
	r.processRemsets()
	r.tracePinned()

	// Phase 2: transitive copy/trace.
	r.drain()

	// Phase 3: clear the pinned marks, keeping each leaf chunk one lands in
	// by unmarking it from-space (a stale pinned entry may name a chunk of
	// another heap, mid-collection elsewhere); release the chunks still
	// marked (unmarked first: a released chunk may be another heap's at
	// once), settle to-space.
	for _, p := range r.marked {
		ch := c.Space.ChunkByID(p.Chunk())
		ch.ClearMark(p)
		if ch.HeapID() == h.ID {
			ch.FromSpace = false
		}
	}
	h.Overwritten = 0
	var retainedOldWords int64
	kept := h.Chunks[:0]
	for _, ch := range h.Chunks {
		if ch.FromSpace {
			ch.FromSpace = false
			c.Space.Release(ch)
		} else {
			kept = append(kept, ch)
			retainedOldWords += int64(ch.Words())
			r.res.RetainedChunks++
		}
	}
	h.Chunks = append(kept, r.to.Chunks...)
	r.to.FlushCopied()
	r.res.ReclaimedWords = oldWords - retainedOldWords
	c.Tree.Stats.Add(trace.GCCollections, 1)
	c.Tree.Stats.Add(trace.GCCopiedWords, r.res.CopiedWords)
	c.Tree.Stats.Add(trace.GCReclaimedWords, r.res.ReclaimedWords)
	c.Tree.Stats.Add(trace.GCRetainedChunks, int64(r.res.RetainedChunks))
	return r.res
}

// finish reopens the gate Collect closed and hands the run back empty.
// Deferred: a panic under Collect (the chunk table exhausted) must not
// leave the gate closed on the readers waiting at it.
func (r *run) finish() {
	r.h.Gate.EndCollect()
	*r = run{c: r.c, visitRoot: r.visitRoot, marked: r.marked[:0]}
	r.c.runs.Put(r)
}

// processRemsets uses down-pointer entries as roots and filters the leaf's
// remembered set in place down to the still-valid entries: one pass, at
// most one entry out per entry in. A field stored to k times may have up to
// k entries; the first forwards the target and redirects the field into
// to-space, which drops the rest. Duplicates whose target is pinned in
// place all survive: harmless (an entry is a hint to look at the field)
// and never more than came in.
func (r *run) processRemsets() {
	sp := r.c.Space
	r.h.Remset.Filter(func(e hierarchy.RememberedEntry) bool {
		hc := sp.ChunkOf(e.Holder)
		if hc.HeapID() == r.h.ID {
			return false // the holder is the leaf's own: no down-pointer
		}
		// The concurrent sweep reclaims internal-heap holders in place
		// (KFree) and may later re-carve the span; an entry whose holder no
		// longer parses, was freed, or no longer covers the recorded index
		// is stale and must not be dereferenced.
		hd := hc.Header(e.Holder)
		if !hd.Valid() || hd.Kind() == mem.KFree {
			return false
		}
		if hn := max(hd.Len(), 1); e.Index < 0 || e.Index >= hn {
			return false
		}
		v := hc.Load(e.Holder, e.Index)
		if !v.IsRef() {
			return false // field was overwritten; entry is dead
		}
		ch, ok := r.fromSpace(v.Ref())
		if !ok {
			return false // points outside the leaf, or was already redirected
		}
		if nv := r.evacuate(ch, v.Ref()); nv != v {
			hc.Store(e.Holder, e.Index, nv)
		}
		return true
	})
}

// tracePinned greys every pinned object of the leaf: pinned objects are
// unconditionally live (a concurrent task may hold them) and traced in
// place.
func (r *run) tracePinned() {
	r.h.Pinned.Each(func(p mem.Ref) {
		if hd := r.c.Space.Header(p); hd.Pinned() && hd.Kind() != mem.KForward {
			r.mark(p)
		}
	})
}

// mark greys the pinned object p: the first call of a collection, which
// sets the header's mark bit, queues it in r.marked for drain to trace.
func (r *run) mark(p mem.Ref) {
	if r.c.Space.SetMark(p) {
		r.marked = append(r.marked, p)
		r.res.PinnedTraced++
	}
}

// forward returns the value to use in place of v after collection. It is
// idempotent: it acts only on a reference into this collection's
// from-space, so an already forwarded value comes back unchanged.
func (r *run) forward(v mem.Value) mem.Value {
	if !v.IsRef() {
		return v
	}
	ch, ok := r.fromSpace(v.Ref())
	if !ok {
		return v
	}
	return r.evacuate(ch, v.Ref())
}

// evacuate returns the current location of the from-space object ref, which
// lies in chunk ch: it copies an unpinned object to the end of to-space —
// that is what greys it, the cursor being behind — follows a forwarding, and
// leaves a pinned object in place. The claim is the only atomic write; the
// header with its candidate bit, the payload (one copy, raw or tagged), the
// forwarding pointer and the forwarding header after it are plain, in
// mem.Allocator.CopyIn.
func (r *run) evacuate(ch *mem.Chunk, ref mem.Ref) mem.Value {
	// Claim the object through the header state machine. With the gate
	// closed no pin can race us here, but the discipline is what makes the
	// protocol auditable: a copy only ever starts from a successful
	// PLAIN→BUSY transition, and every refusal tells us why.
	hd, ok := ch.BeginCopy(ref.Off())
	if !ok {
		switch {
		case hd.Kind() == mem.KForward:
			return mem.Value(ch.Data[ref.Off()+1]) // this collection's own store
		case hd.Pinned():
			r.mark(ref)
			return ref.Value()
		default:
			// BUSY is unreachable: this collector is the only copier of
			// the leaf and completes each claim before the next.
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
	r.res.CopiedObjects++
	r.res.CopiedWords += int64(hd.Len() + 1)
	return r.to.CopyIn(ch, ref.Off(), hd).Value()
}

// drain scans grey objects until none remain. The grey objects are
// to-space from the cursor to the bump pointer, parsed densely (a
// zero-length object occupies two words); scanning one appends more,
// perhaps in a new chunk, and the chunk left behind ends at its own Alloc.
// Pinned objects are grey in place and wait in r.marked.
func (r *run) drain() {
	for again := true; again; {
		again = false
		for r.ci < len(r.to.Chunks) {
			c := r.to.Chunks[r.ci]
			for r.off < c.Alloc {
				hd := mem.Header(c.Data[r.off])
				if !hd.Valid() {
					panic("gc: the scan cursor is not at a header")
				}
				r.scan(c, r.off, hd, false)
				r.off += max(hd.Len(), 1) + 1
				again = true
			}
			if r.ci == len(r.to.Chunks)-1 {
				break // the bump chunk: it may grow yet
			}
			r.ci, r.off = r.ci+1, 0
		}
		for ; r.traced < len(r.marked); r.traced++ {
			p := r.marked[r.traced]
			r.scan(r.c.Space.ChunkByID(p.Chunk()), p.Off(), r.c.Space.Header(p), true)
			again = true
		}
	}
}

// scan forwards the fields of the grey object at word off of c. A pinned
// object is shared with the tasks that pinned it, so its fields are stored
// atomically; a copied one is private until the gate reopens.
func (r *run) scan(c *mem.Chunk, off int, hd mem.Header, shared bool) {
	if !hd.Kind().Scanned() {
		return
	}
	for k, end := off+1, off+1+hd.Len(); k < end; k++ {
		v := mem.Value(atomic.LoadUint64(&c.Data[k]))
		if !v.IsRef() {
			continue
		}
		tc, ok := r.fromSpace(v.Ref())
		if !ok {
			continue
		}
		switch nv := r.evacuate(tc, v.Ref()); {
		case nv == v: // pinned in place
		case shared:
			atomic.StoreUint64(&c.Data[k], uint64(nv))
		default:
			c.StoreRelaxed(k, uint64(nv))
		}
	}
}
