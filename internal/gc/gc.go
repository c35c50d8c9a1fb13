// Package gc implements the hierarchical local collector (LGC) of the
// runtime: a Cheney-style copying collection of a task's own leaf heap —
// the runtime never passes more (DESIGN.md deviation D2); the multi-heap
// exclusive suffix Collect also accepts is exercised by tests only —
// extended, per the paper, to tolerate entanglement:
//
//   - Pinned objects (entangled, per package entangle) are traced in place:
//     they are never moved nor reclaimed; chunks holding pinned objects are
//     retained whole. This is the space cost of entanglement, and it is
//     bounded: joins unpin (package hierarchy), after which the memory is
//     reclaimed by ordinary collections.
//   - Down-pointers into the collected heaps, recorded by the write
//     barrier in per-heap remembered sets, act as roots; the fields they
//     describe are updated to the targets' new locations *before* the heap
//     gates reopen (hierarchy.Gate.EndCollect), which is what makes the
//     read barrier's pin-then-validate protocol sound.
//   - Remembered sets are rebuilt during the scan so entries never go
//     stale: internal entries are re-derived from surviving objects,
//     external ones are revalidated against the holder's current field.
//   - The pass over the entries is linear and hashes nothing. The scope's
//     old chunks carry a from-space mark (mem.Chunk.FromSpace) for the
//     duration, forward moves only what lies in a marked chunk, and so a
//     duplicate entry — the write barrier records a field again unless the
//     heap's own strand overwrites a reference into the heap — finds its
//     field already redirected and is dropped.
//   - There is no grey set: a copied object is grey by lying in to-space
//     past its heap's scan cursor, a (chunk index, offset) pair that walks
//     the to-space chunks up to the bump pointer (drain). Only pinned
//     objects, grey in place, wait on a list.
//
// Collections happen at allocation points of the owning task, so the
// mutator of the collected heaps is stopped; concurrent tasks can touch
// them only through entangled (pinned) objects or slow paths parked at
// the collection gate. There is no mutex: each scope heap's Gate is closed
// for the duration (BeginCollect waits out in-flight entanglement slow
// paths), and the publication buffers are drained into the owner-only views
// at the start. A move is one atomic write on the old header — the claim
// (mem.Chunk.BeginCopy, a CAS that a racing pin loses to or wins against) —
// and everything after it is plain (mem.Allocator.CopyIn), the forwarding
// header too: the claim keeps pinners off the old object, to-space is out of
// every task's reach until the gates reopen, and reopening them (EndCollect)
// is what publishes the moves; a reader that loads a from-space header
// sooner re-validates what it finds (DESIGN.md §6 decision 7).
// Fields of pinned objects and of holders outside the scope, which other
// tasks read meanwhile, are still loaded and stored atomically.
package gc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mplgo/internal/chaos"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// Result reports what one collection did.
type Result struct {
	ScopeHeaps     int
	CopiedObjects  int64
	CopiedWords    int64
	ReclaimedWords int64
	RetainedChunks int   // chunks kept alive only because they hold pins
	PinnedTraced   int64 // pinned objects traced in place
}

// Collector performs local collections for one runtime instance.
type Collector struct {
	Space *mem.Space
	Tree  *hierarchy.Tree

	// Totals across all collections. Atomic: distinct tasks collect their
	// own heaps concurrently (with chaos-forced triggers, often).
	Collections    atomic.Int64
	CopiedWords    atomic.Int64
	ReclaimedWords atomic.Int64
	// RetainedChunks totals chunks kept alive across collections only
	// because they hold pinned (entangled) objects: the paper's transient
	// space cost of entanglement, surfaced through Runtime stats.
	RetainedChunks atomic.Int64

	runs sync.Pool // of *run
}

// New creates a collector, binding the tree to the space (Tree.Bind) so the
// heaps it collects own their chunks by pointer as well as by id.
func New(space *mem.Space, tree *hierarchy.Tree) *Collector {
	tree.Bind(space)
	return &Collector{Space: space, Tree: tree}
}

// scopeHeap is one heap of the scope with its to-space, the Cheney scan
// cursor over it (an index into to.Chunks and a word offset: black before,
// grey from there to the bump pointer) and its rebuilt remembered set.
type scopeHeap struct {
	h       *hierarchy.Heap
	to      mem.Allocator
	ci, off int
	remset  hierarchy.List[hierarchy.RememberedEntry]
}

// run is the per-collection state. The Collector recycles its runs, so a
// one-heap collection allocates nothing from Go's heap but to-space.
type run struct {
	c         *Collector
	heaps     []scopeHeap // the scope, shallowest first (lock order)
	one       [1]scopeHeap
	marked    []mem.Ref // pinned objects marked this cycle (marks cleared at end)
	traced    int       // marked[:traced] have had their fields forwarded
	visitRoot func(*mem.Value)
	res       Result
}

// scopeOf returns the index in r.heaps of the scope heap with the given id,
// or -1: one compare for the runtime's one-heap scope.
func (r *run) scopeOf(id uint32) int {
	for i := range r.heaps {
		if r.heaps[i].h.ID == id {
			return i
		}
	}
	return -1
}

// fromSpace resolves ref's chunk, once for everything done to the object,
// and returns it with the index in r.heaps of the heap whose from-space
// holds ref, or -1 when ref lies outside the scope or already in to-space.
// The mark is read only once the chunk is known to be the scope's.
func (r *run) fromSpace(ref mem.Ref) (*mem.Chunk, int) {
	ch := r.c.Space.ChunkByID(ref.Chunk())
	i := r.scopeOf(ch.HeapID())
	if i >= 0 && !ch.FromSpace {
		i = -1
	}
	return ch, i
}

// Collect collects the given heaps, leaf first: a chain the calling task
// owns exclusively (Tree.ExclusiveSuffix, or a prefix of it). The runtime
// only ever passes its leaf (DESIGN.md deviation D2); longer chains are
// exercised by this package's tests alone. It returns statistics.
func (c *Collector) Collect(scope []*hierarchy.Heap) Result {
	if len(scope) == 0 {
		return Result{}
	}
	r, _ := c.runs.Get().(*run)
	if r == nil {
		r = &run{c: c}
		r.visitRoot = func(p *mem.Value) { *p = r.forward(*p) }
	}
	r.heaps = r.one[:0]
	if len(scope) > 1 {
		r.heaps = make([]scopeHeap, 0, len(scope))
	}
	defer r.finish()
	// Close the gates shallowest-first (entanglement slow paths never hold
	// one gate while entering another, so any order is deadlock-free; this
	// one matches the old lock order for easy comparison), then fold the
	// lock-free publication buffers into the owner-only views: with the
	// gate closed, no reader can be mid-publication, so the drained Pinned
	// and Remset lists are complete.
	// WaitBeginCollect rather than BeginCollect since CGC: the concurrent
	// collector's gate flushes briefly close every live heap's gate, and
	// an LGC racing one must wait the flush out, not panic.
	var oldWords int64
	for i := len(scope) - 1; i >= 0; i-- {
		h := scope[i]
		h.Gate.WaitBeginCollect()
		r.heaps = append(r.heaps, scopeHeap{h: h, to: *mem.NewAllocator(c.Space, h.ID)})
		h.DrainBuffers()
		// Chunks the concurrent sweep queued for allocation reuse are
		// about to be evacuated or released; they must not linger as
		// carving targets.
		h.DrainReusable(nil)
		// Everything the scope holds now is from-space; what forward copies
		// from here on carries the same heap ids but no mark, which is what
		// keeps forward from moving an object twice.
		for _, ch := range h.Chunks {
			ch.FromSpace = true
			oldWords += int64(ch.Words())
		}
	}
	r.res.ScopeHeaps = len(scope)

	// Phase 1: roots — the shadow stacks of every task attached to the
	// scope, the down-pointers, the pins.
	for i := range r.heaps {
		for _, rs := range r.heaps[i].h.RootSets {
			rs.Roots(r.visitRoot)
		}
	}
	r.processRemsets()
	r.tracePinned()

	// Phase 2: transitive copy/trace.
	r.drain()

	// Phase 3: install rebuilt remsets, rebuild the chunk lists in place,
	// release from-space (unmarked first: a released chunk may be another
	// heap's at once), settle to-space into the allocation totals.
	var retainedOldWords int64
	for i := range r.heaps {
		sh := &r.heaps[i]
		h := sh.h
		h.Remset = sh.remset
		h.Overwritten = 0
		kept := h.Chunks[:0]
		for _, ch := range h.Chunks {
			ch.FromSpace = false
			if ch.PinCount > 0 {
				kept = append(kept, ch)
				retainedOldWords += int64(ch.Words())
				r.res.RetainedChunks++
			} else {
				c.Space.Release(ch)
			}
		}
		h.Chunks = append(kept, sh.to.Chunks...)
		sh.to.FlushCopied()
		h.Collections++
	}
	// Clear transient marks on pinned objects.
	for _, p := range r.marked {
		c.Space.ClearMark(p)
	}
	r.res.ReclaimedWords = oldWords - retainedOldWords
	scope[0].CopiedWords += r.res.CopiedWords
	c.Collections.Add(1)
	c.CopiedWords.Add(r.res.CopiedWords)
	c.ReclaimedWords.Add(r.res.ReclaimedWords)
	c.RetainedChunks.Add(int64(r.res.RetainedChunks))
	return r.res
}

// finish reopens the gates Collect closed, deepest first, and hands the run
// back empty. Deferred: a panic under Collect (the chunk table exhausted)
// must not leave a gate closed on the readers waiting at it.
func (r *run) finish() {
	for i := len(r.heaps) - 1; i >= 0; i-- {
		r.heaps[i].h.Gate.EndCollect()
	}
	*r = run{c: r.c, visitRoot: r.visitRoot, marked: r.marked[:0]}
	r.c.runs.Put(r)
}

// processRemsets uses down-pointer entries as roots and begins the rebuilt
// remembered sets with the still-valid external entries: one pass, at most
// one entry out per entry in. A field stored to k times may have up to k
// entries; the first forwards the target and redirects the field into
// to-space, which drops the rest. Duplicates whose target is pinned in
// place all survive: harmless (an entry is a hint to look at the field) and
// never more than came in.
func (r *run) processRemsets() {
	sp := r.c.Space
	for i := range r.heaps {
		r.heaps[i].h.Remset.Each(func(e hierarchy.RememberedEntry) {
			if r.scopeOf(sp.HeapOf(e.Holder)) >= 0 {
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
			ch, tgt := r.fromSpace(v.Ref())
			if tgt < 0 {
				return // points outside the suffix, or was already redirected
			}
			if nv := r.evacuate(ch, v.Ref(), tgt); nv != v {
				sp.Store(e.Holder, e.Index, nv)
			}
			// The entry survives, indexed by the target's (unchanged) heap.
			r.heaps[tgt].remset.Append(e)
		})
	}
}

// tracePinned greys every pinned object of the scope: pinned objects are
// unconditionally live (a concurrent task may hold them) and traced in
// place.
func (r *run) tracePinned() {
	for i := range r.heaps {
		r.heaps[i].h.Pinned.Each(func(p mem.Ref) {
			if hd := r.c.Space.Header(p); hd.Pinned() && hd.Kind() != mem.KForward {
				r.mark(p)
			}
		})
	}
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
	ch, i := r.fromSpace(v.Ref())
	if i < 0 {
		return v
	}
	return r.evacuate(ch, v.Ref(), i)
}

// evacuate returns the current location of the from-space object ref, which
// lies in chunk ch of scope heap i: it copies an unpinned object to the end
// of the heap's to-space — that is what greys it, the cursor being behind —
// follows a forwarding, and leaves a pinned object in place. The claim is
// the only atomic write; the header with its candidate bit, the payload (one
// copy, raw or tagged), the forwarding pointer and the forwarding header
// after it are plain, in mem.Allocator.CopyIn.
func (r *run) evacuate(ch *mem.Chunk, ref mem.Ref, i int) mem.Value {
	// Claim the object through the header state machine. With the scope
	// gates closed no pin can race us here, but the discipline is what
	// makes the protocol auditable: a copy only ever starts from a
	// successful PLAIN→BUSY transition, and every refusal tells us why.
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
	r.res.CopiedObjects++
	r.res.CopiedWords += int64(hd.Len() + 1)
	return r.heaps[i].to.CopyIn(ch, ref.Off(), hd).Value()
}

// drain scans grey objects until none remain. A heap's grey objects are its
// to-space from the cursor to the bump pointer, parsed densely (a
// zero-length object occupies two words); scanning one appends more,
// perhaps in a new chunk, and the chunk left behind ends at its own Alloc.
// Pinned objects are grey in place and wait in r.marked.
func (r *run) drain() {
	for again := true; again; {
		again = false
		for qi := range r.heaps {
			sh := &r.heaps[qi]
			for sh.ci < len(sh.to.Chunks) {
				c := sh.to.Chunks[sh.ci]
				for sh.off < c.Alloc {
					hd := mem.Header(c.Data[sh.off])
					if !hd.Valid() {
						panic("gc: the scan cursor is not at a header")
					}
					r.scan(c, sh.off, hd, qi, false)
					sh.off += max(hd.Len(), 1) + 1
					again = true
				}
				if sh.ci == len(sh.to.Chunks)-1 {
					break // the bump chunk: it may grow yet
				}
				sh.ci, sh.off = sh.ci+1, 0
			}
		}
		for ; r.traced < len(r.marked); r.traced++ {
			p := r.marked[r.traced]
			c := r.c.Space.ChunkByID(p.Chunk())
			r.scan(c, p.Off(), r.c.Space.Header(p), r.scopeOf(c.HeapID()), true)
			again = true
		}
	}
}

// scan forwards the fields of the grey object at word off of c, in scope
// heap qi, and re-derives its internal down-pointer entries: fields that
// point at a strictly deeper scope heap, which r.heaps lists later — none
// in a one-heap scope. A pinned object is shared with the tasks that pinned
// it, so its fields are stored atomically; a copied one is private until
// the gates reopen.
func (r *run) scan(c *mem.Chunk, off int, hd mem.Header, qi int, shared bool) {
	if !hd.Kind().Scanned() {
		return
	}
	for k, end := off+1, off+1+hd.Len(); k < end; k++ {
		v := mem.Value(atomic.LoadUint64(&c.Data[k]))
		if !v.IsRef() {
			continue
		}
		tc, ti := r.fromSpace(v.Ref())
		if ti < 0 {
			continue
		}
		switch nv := r.evacuate(tc, v.Ref(), ti); {
		case nv == v: // pinned in place
		case shared:
			atomic.StoreUint64(&c.Data[k], uint64(nv))
		default:
			c.StoreRelaxed(k, uint64(nv))
		}
		if ti > qi {
			r.heaps[ti].remset.Append(hierarchy.RememberedEntry{Holder: mem.MakeRef(c.ID, off), Index: k - off - 1})
		}
	}
}
