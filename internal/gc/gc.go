// Package gc implements the hierarchical local collector (LGC) of the
// runtime: a mostly-copying collection of a task's own leaf heap — the
// only heap a task may move objects of (DESIGN.md deviation D2) — extended,
// per the paper, to tolerate entanglement:
//
//   - One rule sets each chunk's part: a chunk known to be at least half
//     live is traced in place, a chunk holding a pin stays, and every other
//     chunk is evacuated — copying a chunk at least half live would hold as
//     many words at the collection's peak as keeping it. Three kinds are
//     known dense before anything is traced. A survivor is copied once:
//     every to-space chunk is dense when the collection ends and is marked
//     Tenured (mem.Chunk.Tenured), and the heap's next collection traces it
//     in place. An oversize chunk holds one object, so it is kept whole if
//     that object lives and released whole if not; a large object is never
//     copied. A chunk whose distinct remembered targets — roots all — fill
//     at least half of its words is traced in place too (processRemsets).
//     After marking, a chunk traced in place with nothing live is released
//     at once, one found at least half live stays Tenured, and one found
//     less than half live loses its tenure, so the collection after copies
//     out of it. A chunk a collection keeps thus has at most twice as many
//     words as it holds live, and it may stay kept for as long as that
//     holds: only a chunk found sparse holds its garbage for at most one
//     more collection.
//   - Pinned objects (entangled, per package entangle) are never moved nor
//     reclaimed, and a chunk holding one is retained whole. It is also
//     non-moving for the collection: before anything moves, the chunks
//     holding a listed pin are marked Keep (every pinned object is in its
//     heap's pinned set), and every live object in them, pinned or not, is
//     traced in place rather than copied out of a chunk that stays anyway.
//     This is the space cost of entanglement, and it is bounded: joins
//     unpin (package hierarchy), after which the memory is reclaimed by
//     ordinary collections.
//   - What is traced in place is marked in a bitmap beside its chunk
//     (mem.Marks, the concurrent collector's mark state too), which the
//     collection installs on the chunk and takes off again, never in the
//     object's header: an in-place object costs one bit and one chunk
//     resolution.
//   - Down-pointers into the leaf, recorded by the write barrier in its
//     remembered set, act as roots; the fields they describe are updated to
//     the targets' new locations *before* the leaf's gate reopens
//     (hierarchy.Gate.EndCollect), which is what makes the read barrier's
//     pin-then-validate protocol sound.
//   - The remembered set is rebuilt so entries never go stale and never
//     repeat: each entry is revalidated against the holder's current field,
//     in place, and one whose holder lies in the leaf itself (a join merged
//     the heap it pointed into) is no down-pointer any more and is dropped.
//   - The pass over the entries is linear and hashes nothing. The leaf's
//     old chunks carry a from-space mark (mem.Chunk.FromSpace) for the
//     duration, forward acts only on what lies in a marked chunk, and so a
//     duplicate entry — the write barrier records a field again unless the
//     heap's own strand overwrites a reference into the heap — finds its
//     field already redirected and is dropped. A target that stays in place
//     leaves its field as it was; the first entry to reach it sets a second
//     bit in its chunk's bitmap, and only when some entry finds that bit
//     set are the kept entries sorted by field and the repeats dropped.
//   - There is no grey set: a copied object is grey by lying in to-space
//     past the scan cursor, a (chunk index, offset) pair that walks the
//     to-space chunks up to the bump pointer (drain). Only the objects
//     traced in place, grey where they lie, wait on a stack.
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
// tasks read meanwhile, are still loaded and stored atomically; an unpinned
// object traced in place is as private as a copy until the gate reopens.
package gc

import (
	"cmp"
	"runtime"
	"slices"
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
	RetainedChunks int   // chunks kept for a pin (not those traced in place for what they hold)
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
	c       *Collector
	h       *hierarchy.Heap
	to      mem.Allocator
	ci, off int
	marked  []grey // objects traced in place whose fields are yet to forward: a stack
	// deferred holds the remembered entries whose target lies in an
	// Evacuate chunk until that chunk's remembered words are in; each
	// links the one deferred before it in its chunk (mem.Marks.Deferred).
	// While counting, a scan leaves the fields that point into an Evacuate
	// chunk as they are and lists its object in rescan.
	deferred []deferral
	counting bool
	rescan   []grey
	// repeats is set when two remembered entries reached one target that
	// stays in place; dedup then lists those entries whose target stayed,
	// with their positions, in entries and the positions it drops in drops.
	repeats   bool
	entries   []entry
	drops     []int
	visitRoot func(*mem.Value)
	res       Result
}

// grey is an object traced in place: its chunk, resolved once, and the word
// offset of its header.
type grey struct {
	c   *mem.Chunk
	off int
}

// deferral is a remembered entry held back, in 12 bytes: the chunk and word
// of its field, and the link to the entry deferred before it in its
// target's chunk (1 + its index in run.deferred, 0 for none).
type deferral struct {
	chunk, word, next uint32
}

// entry is a remembered entry and its position in the remembered set.
type entry struct {
	e   hierarchy.RememberedEntry
	pos int
}

// fromSpace resolves ref's chunk, once for everything done to the object,
// and returns it with whether ref lies in the leaf's from-space: not when it
// lies in another heap or already in to-space. The mark is read only once
// the chunk is known to be the leaf's.
func (r *run) fromSpace(ref mem.Ref) (*mem.Chunk, bool) {
	ch := r.c.Space.ChunkByID(ref.Chunk())
	return ch, ch.HeapID() == r.h.ID && ch.FromSpace != mem.NotFromSpace
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
	// forward from moving an object twice. One rule: a chunk known to be at
	// least half live is traced in place (Survivor), a chunk holding a pin
	// stays (Keep, tracePinned), and every other chunk is evacuated. Known
	// dense are a Tenured chunk, an oversize chunk, whose one object fills
	// it, and a chunk whose distinct remembered targets fill half of it
	// (processRemsets). No chunk of the leaf may carry a mark state yet: one
	// would be the concurrent collector's.
	var oldWords int64
	for _, ch := range h.Chunks {
		ch.FromSpace = mem.Evacuate
		if ch.Tenured || ch.Words() > mem.ChunkWords {
			c.Space.BeginMarks(ch)
			ch.FromSpace = mem.Survivor
		} else if ch.Marks() != nil {
			panic("gc: a chunk of the leaf carries the concurrent collector's mark state")
		}
		oldWords += int64(ch.Words())
	}

	// Phase 1: the pins, which mark the chunks that stay Keep, and the
	// down-pointers, which mark those their targets fill Survivor, before
	// anything moves; then the shadow stacks of every task attached to the
	// leaf.
	r.tracePinned()
	r.processRemsets()
	for _, rs := range h.RootSets {
		rs.Roots(r.visitRoot)
	}

	// Phase 2: transitive copy/trace.
	r.drain()

	// Phase 3: keep the chunks traced in place that hold anything live —
	// Tenured while at least half of their words are — and release the
	// rest, the mark state taken off first (a released chunk may be another
	// heap's at once); settle to-space, which is Tenured whole.
	h.Overwritten = 0
	h.Growth = 0
	var retainedOldWords int64
	kept := h.Chunks[:0]
	for _, ch := range h.Chunks {
		from := ch.FromSpace
		ch.FromSpace = mem.NotFromSpace
		live := c.Space.EndMarks(ch)
		if live == 0 {
			c.Space.Release(ch)
			continue
		}
		ch.Tenured = 2*live >= ch.Words()
		kept = append(kept, ch)
		retainedOldWords += int64(ch.Words())
		if from != mem.Survivor {
			r.res.RetainedChunks++
		}
	}
	for _, ch := range r.to.Chunks {
		ch.Tenured = true
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
	*r = run{c: r.c, visitRoot: r.visitRoot, marked: r.marked[:0],
		deferred: r.deferred[:0], rescan: r.rescan[:0], entries: r.entries[:0], drops: r.drops[:0]}
	r.c.runs.Put(r)
}

// install gives ch, an old chunk of the leaf, a cleared mark state unless
// this collection gave it one already, so that its objects can be traced in
// place.
func (r *run) install(ch *mem.Chunk) {
	if ch.Marks() == nil {
		r.c.Space.BeginMarks(ch)
	}
}

// processRemsets uses down-pointer entries as roots and filters the leaf's
// remembered set in place down to the still-valid entries: one pass, at
// most one entry out per entry in. A field stored to k times may have up to
// k entries; the first forwards the target and redirects the field into
// to-space, which drops the rest. A target that stays in place (Tenured,
// oversize, pinned, or beside a pin) is traced at once, so that a set of many such
// targets never stands on the grey stack together, and when a second entry
// reaches one such target, dedup drops the repeats.
//
// An entry whose target lies in an Evacuate chunk is held back (note) until
// the pass has summed the words of the chunk's distinct remembered targets:
// a chunk they fill at least half of is traced in place, as a Survivor,
// and the others are evacuated, their deferred fields redirected. A chunk
// in which a second entry reaches one target is refused at once: it keeps
// the copy, whose redirect drops the repeats for free, where in place they
// would all go through dedup's sort. Nothing is copied out of an Evacuate
// chunk before the pass ends, since it may yet stay: what the pass traces
// in place skips its fields into one, and is scanned again after.
func (r *run) processRemsets() {
	sp := r.c.Space
	if cap(r.deferred) == 0 {
		r.deferred = make([]deferral, 0, r.h.Remset.Len())
	}
	r.counting = true
	r.traceMarked() // the pins
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
		if ch.FromSpace == mem.Evacuate {
			if r.note(ch, e, v) {
				return true
			}
			if hc.Load(e.Holder, e.Index) != v {
				return false // a repeat of a field the refusal just redirected
			}
		}
		if nv := r.evacuate(ch, v.Ref()); nv != v {
			hc.Store(e.Holder, e.Index, nv)
		} else {
			if !ch.Marks().Remember(v.Ref().Off()) {
				r.repeats = true
			}
			r.traceMarked()
		}
		return true
	})
	r.counting = false
	for _, ch := range r.h.Chunks {
		if m := ch.Marks(); ch.FromSpace == mem.Evacuate && m != nil && m.Remembered > 0 && 2*m.Remembered >= ch.Words() {
			ch.FromSpace = mem.Survivor
		}
	}
	for _, d := range r.deferred {
		r.redirect(d) // a refused chunk's find their field redirected already
		r.traceMarked()
	}
	for _, g := range r.rescan {
		hd := mem.Header(atomic.LoadUint64(&g.c.Data[g.off]))
		r.scan(g.c, g.off, hd, hd.Pinned())
		r.traceMarked()
	}
	if r.repeats {
		r.dedup()
	}
}

// note counts the target of entry e, v, toward the remembered words of its
// chunk ch, an Evacuate chunk, and defers e, reporting true; it reports
// false for a chunk refused, and refuses ch when e is the second entry to
// reach its target, redirecting the entries deferred in ch at once.
func (r *run) note(ch *mem.Chunk, e hierarchy.RememberedEntry, v mem.Value) bool {
	r.install(ch)
	m := ch.Marks()
	if m.Remembered < 0 {
		return false
	}
	if !m.Remember(v.Ref().Off()) {
		m.Remembered = -1
		for i := m.Deferred; i > 0; i = int(r.deferred[i-1].next) {
			r.redirect(r.deferred[i-1])
		}
		return false
	}
	m.Remembered += max(ch.Header(v.Ref()).Len(), 1) + 1
	r.deferred = append(r.deferred, deferral{e.Holder.Chunk(), uint32(e.Holder.Off() + 1 + e.Index), uint32(m.Deferred)})
	m.Deferred = len(r.deferred)
	return true
}

// redirect forwards the target the field of deferred entry d holds, if it
// still lies in from-space, and points the field at its new location unless
// another strand stored into it meanwhile.
func (r *run) redirect(d deferral) {
	hc := r.c.Space.ChunkByID(d.chunk)
	field := mem.MakeRef(d.chunk, int(d.word)-1) // as if a header lay before the field
	v := hc.Load(field, 0)
	if !v.IsRef() {
		return
	}
	if ch, ok := r.fromSpace(v.Ref()); ok {
		if nv := r.evacuate(ch, v.Ref()); nv != v {
			hc.CAS(field, 0, v, nv)
		}
	}
}

// dedup drops the repeated entries among those whose target stayed in
// place: such a target leaves its field as it was, so no redirect tells a
// repeat from the first. It lists the kept entries whose field still
// points into from-space (an entry whose target moved points into to-space
// and has no repeat left), and sorts only those by field to bring repeats
// together; one more pass over the set drops all but the first. It runs
// only when two entries reached one target, which two distinct fields
// sharing a target also do. Another strand may have stored into a field
// since processRemsets read it: that lists an entry or leaves one out, and
// what is dropped is still only a copy of an entry that stays.
func (r *run) dedup() {
	sp := r.c.Space
	pos := 0
	r.h.Remset.Each(func(e hierarchy.RememberedEntry) {
		if v := sp.ChunkOf(e.Holder).Load(e.Holder, e.Index); v.IsRef() {
			if _, stayed := r.fromSpace(v.Ref()); stayed {
				r.entries = append(r.entries, entry{e, pos})
			}
		}
		pos++
	})
	slices.SortFunc(r.entries, func(a, b entry) int {
		if c := cmp.Compare(a.e.Holder, b.e.Holder); c != 0 {
			return c
		}
		return cmp.Compare(a.e.Index, b.e.Index)
	})
	for i := 1; i < len(r.entries); i++ {
		if r.entries[i].e == r.entries[i-1].e {
			r.drops = append(r.drops, r.entries[i].pos)
		}
	}
	if len(r.drops) == 0 {
		return
	}
	slices.Sort(r.drops)
	pos, next := 0, 0
	r.h.Remset.Filter(func(hierarchy.RememberedEntry) bool {
		drop := next < len(r.drops) && r.drops[next] == pos
		if drop {
			next++
		}
		pos++
		return !drop
	})
}

// tracePinned greys every pinned object of the leaf: pinned objects are
// unconditionally live (a concurrent task may hold them) and traced in
// place. It runs before anything moves and marks each pin's chunk Keep, so
// that evacuate leaves the pin's neighbours in place too; a stale entry
// naming a chunk of another heap is passed over.
func (r *run) tracePinned() {
	r.h.Pinned.Each(func(p mem.Ref) {
		ch, ok := r.fromSpace(p)
		if hd := ch.Header(p); !ok || !hd.Pinned() || hd.Kind() == mem.KForward {
			return
		}
		r.install(ch)
		ch.FromSpace = mem.Keep
		if r.mark(ch, p.Off()) {
			r.res.PinnedTraced++
		}
	})
}

// mark greys the object at word off of ch, a chunk traced in place: the
// first call of a collection, which sets the object's bit in the chunk's
// mark state, pushes it on r.marked for traceMarked and reports true.
func (r *run) mark(ch *mem.Chunk, off int) bool {
	if ch.Marks().Mark(off) {
		r.marked = append(r.marked, grey{ch, off})
		return true
	}
	return false
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
// lies in chunk ch: it greys an object of a Survivor or Keep chunk in
// place, copies an unpinned object to the end of to-space — that is what
// greys it, the cursor being behind — follows a forwarding, and leaves a
// pinned object in place. The claim is the only atomic write of a copy; the
// header with its candidate bit, the payload (one copy, raw or tagged), the
// forwarding pointer and the forwarding header after it are plain, in
// mem.Allocator.CopyIn.
func (r *run) evacuate(ch *mem.Chunk, ref mem.Ref) mem.Value {
	if ch.FromSpace >= mem.Survivor {
		r.mark(ch, ref.Off()) // never claimed: nothing leaves a chunk traced in place
		return ref.Value()
	}
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
			// A pin its heap does not list: it stays, and so does its
			// chunk, which stays Evacuate — what was copied out of it
			// already is forwarded.
			r.install(ch)
			if r.mark(ch, ref.Off()) {
				r.res.PinnedTraced++
			}
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
// The objects traced in place are grey where they lie and wait on r.marked.
func (r *run) drain() {
	for {
		for r.ci < len(r.to.Chunks) {
			c := r.to.Chunks[r.ci]
			for r.off < c.Alloc {
				hd := mem.Header(c.Data[r.off])
				if !hd.Valid() {
					panic("gc: the scan cursor is not at a header")
				}
				r.scan(c, r.off, hd, false)
				r.off += max(hd.Len(), 1) + 1
			}
			if r.ci == len(r.to.Chunks)-1 {
				break // the bump chunk: it may grow yet
			}
			r.ci, r.off = r.ci+1, 0
		}
		if len(r.marked) == 0 {
			return
		}
		r.traceMarked()
	}
}

// traceMarked scans the objects on r.marked, last pushed first, until the
// stack is empty, and adds each one's words to its chunk's live count. A
// list traced in place never stands on the stack more than a cell at a time.
func (r *run) traceMarked() {
	for n := len(r.marked); n > 0; n = len(r.marked) {
		g := r.marked[n-1]
		r.marked = r.marked[:n-1]
		hd := mem.Header(atomic.LoadUint64(&g.c.Data[g.off]))
		g.c.Marks().Live += max(hd.Len(), 1) + 1
		if r.scan(g.c, g.off, hd, hd.Pinned()) {
			r.rescan = append(r.rescan, g)
		}
	}
}

// scan forwards the fields of the grey object at word off of c. A pinned
// object is shared with the tasks that pinned it, so its fields are stored
// atomically; a copied one, or an unpinned one traced in place, is private
// until the gate reopens. While processRemsets counts, a field pointing
// into an Evacuate chunk is left as it is, and scan reports true.
func (r *run) scan(c *mem.Chunk, off int, hd mem.Header, shared bool) (skipped bool) {
	if !hd.Kind().Scanned() {
		return false
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
		if r.counting && tc.FromSpace == mem.Evacuate {
			skipped = true
			continue
		}
		switch nv := r.evacuate(tc, v.Ref()); {
		case nv == v: // traced in place
		case shared:
			atomic.StoreUint64(&c.Data[k], uint64(nv))
		default:
			c.StoreRelaxed(k, uint64(nv))
		}
	}
	return skipped
}
