// Package hierarchy maintains the tree of heaps that mirrors the fork–join
// task tree, the central structure of hierarchical heap memory management.
//
// Each task owns a leaf heap; forks create child heaps and joins merge a
// child back into its parent (Tree.Merge). A branch heap nothing outside it
// can reach is not merged: its own strand hands its chunks back whole the
// moment the branch returns (Heap.Release), and its join only retires it. Heap
// identity is carried by chunks (package mem): each chunk records its
// owner's id and the owning *Heap itself (OwnerOf), so a merge reassigns
// ownership by re-pointing its child's chunks without visiting objects,
// and a barrier goes from a reference to its heap with one load once the
// chunk is resolved — the id → heap table is consulted only when a chunk
// is acquired (Tree.Bind).
// Ancestor queries — the core primitive of the entanglement barriers — are
// answered in O(1) from DePa-style fork-path words (package forkpath):
// immutable per-heap values assigned at Fork, making IsAncestor a prefix
// test and LCA a longest-common-prefix computation over pure loads, with
// no shared mutable label space, no seqlock retries, and no rebalancing.
package hierarchy

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"mplgo/internal/attr"
	"mplgo/internal/chaos"
	"mplgo/internal/forkpath"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Totals is the runtime's event totals, one shared word per trace.Count.
// New allocates it, so every tree counts. A tallied row is counted on a leaf
// and drained by its owner (Drain), so mid-run it lags by the running
// leaves' counts; a direct row takes one add per event (Add). AncestryQueries
// points at one total, for the benchmark, which reads it by that name.
type Totals struct {
	n               [trace.NumCounts]atomic.Int64
	AncestryQueries *atomic.Int64
}

// Load returns the total of c.
func (s *Totals) Load(c trace.Count) int64 { return s.n[c].Load() }

// Add adds n to the direct row c, where its event happens.
func (s *Totals) Add(c trace.Count, n int64) { s.n[c].Add(n) }

// Drain adds a tally to the tallied rows, the one place they are written (a
// direct row gets one Add per event), and clears it. The caller owns the
// tally: it runs the tally's heap, or joins it.
func (s *Totals) Drain(t *Tally) {
	for c, n := range t {
		if n != 0 {
			s.n[c].Add(n)
		}
	}
	*t = Tally{}
}

// Emit samples every traced total onto r as a counter event.
func (s *Totals) Emit(r *trace.Ring, depth int32) {
	for c, row := range trace.Counts {
		if row.Traced {
			r.Emit(trace.EvCounter, depth, uint64(trace.Count(c).Counter()), uint64(s.n[c].Load()))
		}
	}
}

// RootSet enumerates mutable values that must be treated as GC roots.
// The callback receives the address of each root slot so collectors can
// update it when objects move; non-reference values are left untouched.
// Implemented by the runtime's shadow-stack frames.
type RootSet interface {
	Roots(visit func(*mem.Value))
}

// RememberedEntry records a down-pointer: Holder's payload word Index may
// point into the heap holding the entry. Collections of that heap read the
// field through Holder to find (and forward) the target.
type RememberedEntry struct {
	Holder mem.Ref
	Index  int
}

// Tally is the tallied event counts of the strand running a leaf heap:
// pure counts that nothing reads while the strand runs. A heap has exactly
// one running strand, so the barriers and accessors bump its slots with
// plain adds at constant indices (the single-writer discipline of lca
// and TraceRing), and the shared totals see them once, when the strand's
// owner drains the block — at the end of the task, at its collections and
// at the join that retires the heap (Totals.Drain), whatever instruments
// are installed.
type Tally [trace.NumTallied]int64

// ancestryEntry is one entry of a leaf's ancestry cache (Heap.lca).
type ancestryEntry struct {
	key   *Heap
	depth int32 // shares a word with anc: a Heap is allocated per fork
	anc   bool
}

// Heap is one node of the heap hierarchy.
type Heap struct {
	ID     uint32
	parent *Heap
	depth  int

	// path is the heap's immutable fork path, assigned under Tree.mu at
	// Fork and read lock-free by every ancestry query thereafter.
	path forkpath.Path

	// forkSeq numbers this heap's children in fork order (never reused);
	// guarded by Tree.mu.
	forkSeq uint64

	// lca is a two-entry ancestry cache for the entanglement barriers,
	// newest first: each entry holds the depth of LCA(this leaf, key) and
	// whether key is an ancestor of this leaf (see Tree.Relate). Two entries,
	// because a loop that reads through one heap and stores into another
	// asks about both in turn. Owner-only plain fields (the barriers run on
	// the strand owning the leaf, the same single-writer discipline as
	// TraceRing). The key is the heap itself, never its id — a merge
	// re-points ids, while the ancestry of two heap objects is immutable —
	// so no invalidation is needed: an entry stays correct even after the
	// key heap merges away.
	lca [2]ancestryEntry

	// Tally is the running strand's event counts; owner-only.
	Tally Tally

	// Gate orders this heap's bulk phases — local collection and the merge
	// that retires it — against in-flight entanglement slow paths. Readers
	// enter with one atomic add; there is no mutex anywhere on that path
	// (formerly deviation D3).
	Gate Gate

	// Chunks are the chunks currently owned by this heap. Mutated only by
	// the owning task (allocation, collection, merging of its children).
	Chunks []*mem.Chunk

	// Remset holds down-pointer entries whose targets may live in this
	// heap, duplicates included: the write barrier records every store of a
	// down-pointer but one by this heap's own strand that overwrites a
	// reference into this heap, whose field is already here (see
	// gc.CheckDownPointers for the invariant). Owner-only view; foreign
	// writers publish into remBuf and the owner adopts the buffer's segments
	// with DrainBuffers at collection start. A join splices the list onto
	// the parent's, a collection replaces it.
	Remset List[RememberedEntry]

	// Overwritten estimates the words of this heap's published objects that
	// its strand has since overwritten: the objects displaced by the stores
	// whose entry the write barrier skipped. Owner-only. A merging join adds
	// the child's, and every collection of the heap resets it. It is not a
	// tally slot because Drain clears the tally.
	Overwritten int64

	// Growth counts the words this heap grew by since its last collection
	// through its branches: each branch adds what its strand allocated as it
	// returns (core.Task.settle), and a merging join adds the child's. A
	// released child adds nothing. Owner-only; every collection of the heap
	// resets it.
	Growth int64

	// Pinned lists pinned objects residing in this heap; entries go stale
	// when the object is unpinned or copied and are dropped at the next
	// join. Owner-only view; entangled readers publish into pinBuf under
	// the reader gate.
	Pinned List[mem.Ref]

	// pinBuf and remBuf are the lock-free publication buffers. Both are
	// pushed only while holding the reader gate (the entanglement barriers
	// enter the gate, re-validate ownership, push, exit), so after
	// WaitBeginCollect + DrainBuffers the owner sees every published entry —
	// nothing can be lost to a racing merge or collection.
	pinBuf stack[mem.Ref]
	remBuf stack[RememberedEntry]

	// RootSets are the shadow stacks of tasks attached to this heap: the
	// owning task and any suspended ancestors of the current leaf.
	RootSets []RootSet

	// liveChildren counts forked child heaps that have not merged back.
	// A leaf with none is exclusively owned by its task and thus locally
	// collectible.
	liveChildren atomic.Int32

	// dead marks heaps that merged into their parent or were released. A
	// merge sets it only after it has re-pointed every chunk to the parent,
	// so a strand that sees it set finds the live owner on the chunk with
	// one more load (Release hands the chunks back first, and a released
	// chunk has no owner). The barriers test it only before entering a
	// gate: the already-pinned re-read is safe whichever owner it resolved
	// (package entangle says why), and a pin is taken only under the gate
	// of a heap the chunk still names.
	dead atomic.Bool

	// cgcStatus is the concurrent-collection status word (see cgc.go):
	// idle / scoped / sweeping. It coordinates CGC cycles, local
	// collections, and merges through the collection Gate above rather
	// than any new lock.
	cgcStatus atomic.Uint32

	// reuseBuf hands chunks whose free lists the concurrent sweep just
	// threaded back to the owning task (PushReusable/DrainReusable). Same
	// publication discipline as pinBuf: pushed under the gate, drained by
	// the owner.
	reuseBuf stack[*mem.Chunk]

	// TraceRing is the event ring of the worker currently running this
	// heap's strand, set by the runtime when the task is created (and nil
	// in untraced runtimes). Heap-side instrumentation (merge, unpin)
	// emits here; the single-writer contract holds because a heap is
	// executed by exactly one strand at a time, and the strand performing
	// a merge owns the parent heap it merges into.
	TraceRing *trace.Ring

	// AttrSink is the cost-attribution sink of the worker currently
	// running this heap's strand (nil when attribution is off), set by
	// the runtime next to TraceRing under the same single-writer
	// contract: the strand executing a heap owns its sink, and a merge
	// runs on the strand owning the parent.
	AttrSink *attr.Sink
}

// Depth returns the heap's depth (root = 0).
func (h *Heap) Depth() int { return h.depth }

// Parent returns the heap's parent, or nil for the root.
func (h *Heap) Parent() *Heap { return h.parent }

// Path returns the heap's immutable fork path.
func (h *Heap) Path() *forkpath.Path { return &h.path }

// LiveChildren returns the number of unjoined child heaps.
func (h *Heap) LiveChildren() int { return int(h.liveChildren.Load()) }

// AddRootSet attaches a shadow stack to the heap.
func (h *Heap) AddRootSet(rs RootSet) { h.RootSets = append(h.RootSets, rs) }

// RemoveRootSet detaches a shadow stack from the heap.
func (h *Heap) RemoveRootSet(rs RootSet) {
	for i, x := range h.RootSets {
		if x == rs {
			h.RootSets = append(h.RootSets[:i], h.RootSets[i+1:]...)
			return
		}
	}
}

// AddRemembered records a down-pointer entry. Lock-free; the write barrier
// calls it while holding h.Gate as a reader (see AddPinned).
func (h *Heap) AddRemembered(holder mem.Ref, index int) {
	h.remBuf.push(RememberedEntry{holder, index})
}

// AddRememberedLocal records a down-pointer entry directly in the
// owner-only view, with no gate and no atomics: one slot of the list's
// tail segment, which is the last time the entry is written. Only the task
// currently executing in h may call it: a heap is run by one strand at a
// time, and that same strand (or a join that happens-after it) performs
// every drain, collection and merge of h, so owner appends cannot race them.
func (h *Heap) AddRememberedLocal(holder mem.Ref, index int) {
	h.Remset.Append(RememberedEntry{holder, index})
}

// AddPinned records a pinned object residing in this heap. Lock-free; the
// entanglement slow path calls it while holding h.Gate as a reader, which
// guarantees the entry is visible to the next collection's DrainBuffers.
func (h *Heap) AddPinned(r mem.Ref) { h.pinBuf.push(r) }

// Dead reports whether the heap has merged into its parent or been
// released. Concurrent readers see a snapshot: a heap observed live can die
// immediately after, and callers revalidate (ownership checks, pin CAS)
// accordingly.
func (h *Heap) Dead() bool { return h.dead.Load() }

// owner is h as its chunks record it (mem.Chunk.SetOwner).
func (h *Heap) owner() *mem.Owner { return (*mem.Owner)(unsafe.Pointer(h)) }

// OwnerOf returns the heap owning chunk c: one atomic load. It is nil for a
// released chunk, and stale the moment it returns if a merge re-points c;
// see Heap.dead.
func OwnerOf(c *mem.Chunk) *Heap { return (*Heap)(unsafe.Pointer(c.Owner())) }

// DrainBuffers folds the lock-free publication buffers into the owner-only
// Pinned and Remset views by adopting their segments. Called by the owning
// task right after Gate.WaitBeginCollect (collection or merge start), when no
// reader can be mid-publication.
func (h *Heap) DrainBuffers() {
	h.Pinned.adopt(&h.pinBuf)
	h.Remset.adopt(&h.remBuf)
}

// heapBlock is one leaf of the two-level id→heap table. Slots are atomic
// pointers so lock-free readers can race the (mutex-serialized) writer.
const heapBlockBits = 10
const heapBlockSize = 1 << heapBlockBits

type heapBlock [heapBlockSize]atomic.Pointer[Heap]

// Tree is the heap hierarchy.
type Tree struct {
	mu   sync.Mutex // serializes Fork (id allocation and publication)
	root *Heap

	// Stats is the runtime's event totals, drained from the leaves'
	// tallies; never nil.
	Stats *Totals

	// spine is the growable two-level id→heap table. Readers resolve ids
	// with three atomic loads: the space's owner resolver once per chunk
	// acquired (Bind), and introspection — never a barrier, which finds a
	// heap on its chunk. Writers (Fork) hold mu; growth installs a copied
	// spine, so a stale spine keeps answering for the ids it covers.
	spine  atomic.Pointer[[]atomic.Pointer[heapBlock]]
	nextID uint32 // next heap id; guarded by mu

	// chaos, when set via SetChaos, is propagated into every heap's gate
	// so the GateAcquire injection point fires on the entanglement slow
	// paths of all heaps, including ones forked later.
	chaos *chaos.Injector
}

// New creates a hierarchy containing only the root heap.
func New() *Tree {
	t := &Tree{Stats: &Totals{}}
	t.Stats.AncestryQueries = &t.Stats.n[trace.AncestryQueries]
	spine := make([]atomic.Pointer[heapBlock], 1)
	spine[0].Store(new(heapBlock))
	t.spine.Store(&spine)
	root := &Heap{ID: 1, depth: 0, path: forkpath.Root()}
	t.put(root)
	t.nextID = 2
	t.root = root
	return t
}

// put publishes h in the id table. Caller holds t.mu (or is New).
func (t *Tree) put(h *Heap) {
	sp := *t.spine.Load()
	bi := int(h.ID >> heapBlockBits)
	if bi >= len(sp) {
		nsp := make([]atomic.Pointer[heapBlock], 2*len(sp))
		for i := range sp {
			nsp[i].Store(sp[i].Load())
		}
		t.spine.Store(&nsp)
		sp = nsp
	}
	blk := sp[bi].Load()
	if blk == nil {
		blk = new(heapBlock)
		sp[bi].Store(blk)
	}
	blk[h.ID&(heapBlockSize-1)].Store(h)
}

// SetChaos installs a fault injector on the tree and on the gates of every
// existing heap. Call before the computation starts; heaps forked later
// inherit the injector.
func (t *Tree) SetChaos(in *chaos.Injector) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chaos = in
	for id := uint32(1); id < t.nextID; id++ {
		if h := t.Get(id); h != nil {
			h.Gate.Chaos = in
		}
	}
}

// Bind makes t the owner resolver of space s (mem.Space.SetOwners): every
// chunk s hands out for one of t's heaps — and every live chunk it already
// has — records that heap, which Merge then re-points. entangle.New and
// gc.New bind the space and tree they are given.
func (t *Tree) Bind(s *mem.Space) {
	s.SetOwners(func(id uint32) *mem.Owner {
		if h := t.Get(id); h != nil {
			return h.owner()
		}
		return nil
	})
}

// Root returns the root heap.
func (t *Tree) Root() *Heap { return t.root }

// Get returns the heap with the given id, or nil if no such heap has been
// published yet. Lock-free: three atomic loads.
func (t *Tree) Get(id uint32) *Heap {
	sp := *t.spine.Load()
	bi := int(id >> heapBlockBits)
	if bi >= len(sp) {
		return nil
	}
	blk := sp[bi].Load()
	if blk == nil {
		return nil
	}
	return blk[id&(heapBlockSize-1)].Load()
}

// Count returns the number of heaps ever created.
func (t *Tree) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.nextID) - 1
}

// Live returns all heaps that have not merged away.
func (t *Tree) Live() []*Heap {
	t.mu.Lock()
	n := t.nextID
	t.mu.Unlock()
	var out []*Heap
	for id := uint32(1); id < n; id++ {
		if h := t.Get(id); h != nil && !h.Dead() {
			out = append(out, h)
		}
	}
	return out
}

// Fork creates a new child heap of parent.
func (t *Tree) Fork(parent *Heap) *Heap {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := &Heap{ID: t.nextID, parent: parent, depth: parent.depth + 1}
	h.Gate.Chaos = t.chaos
	t.nextID++
	// The child's fork path extends the parent's by one edge code, keyed
	// on the parent's (never reused) fork sequence number. The value is
	// immutable from here on: ancestry queries read it with no
	// synchronization. The chaos point forces the inline→vector spill
	// promotion on shallow trees, where it would otherwise be unreachable.
	parent.forkSeq++
	if t.chaos != nil && t.chaos.Should(chaos.PathSpill) {
		h.path = parent.path.ChildSpilled(parent.forkSeq)
	} else {
		h.path = parent.path.Child(parent.forkSeq)
	}
	t.put(h)
	parent.liveChildren.Add(1)
	return h
}

// IsAncestor reports whether a is an ancestor of (or equal to) d: a prefix
// test over a's and d's immutable fork-path words — pure loads, no retry
// path, safe from any strand at any time.
func (t *Tree) IsAncestor(a, d *Heap) bool {
	if a == d {
		return true
	}
	return forkpath.IsPrefix(&a.path, &d.path)
}

// LCADepth returns the depth of the least common ancestor of a and b —
// the quantity the entanglement barriers actually need (the unpin depth):
// a longest-common-prefix computation over immutable words, with no heap
// walk at all.
func (t *Tree) LCADepth(a, b *Heap) int {
	if a == b {
		return a.depth
	}
	return forkpath.LCADepth(&a.path, &b.path)
}

// Relate answers both questions a barrier asks about a heap x it reached
// from leaf — the depth of their least common ancestor (the unpin depth of
// a pin taken through leaf) and whether x is an ancestor of leaf (then the
// access is disentangled) — with one oracle query: x is an ancestor exactly
// when the LCA is x itself, i.e. its depth equals x's. The answer goes
// through leaf's two-entry cache, so repeated accesses against the same
// heap — the common case in producer/consumer workloads — skip the oracle
// entirely, and so do accesses alternating between two heaps (a read
// through one, a store into another); a miss is tallied on the leaf. A
// miss moves the newer entry to the older slot and a hit reorders nothing.
// Only the strand owning leaf may call it (the barriers' single-writer
// discipline).
func (t *Tree) Relate(leaf, x *Heap) (lcaDepth int, isAncestor bool) {
	if e := &leaf.lca[0]; e.key == x {
		return int(e.depth), e.anc
	}
	if e := &leaf.lca[1]; e.key == x {
		return int(e.depth), e.anc
	}
	d := x.depth
	if leaf != x {
		leaf.Tally[trace.AncestryQueries]++
		d = forkpath.LCADepth(&leaf.path, &x.path)
	}
	anc := d == x.depth
	leaf.lca[1] = leaf.lca[0]
	leaf.lca[0] = ancestryEntry{key: x, depth: int32(d), anc: anc}
	return d, anc
}

// UnpinDepth returns LCADepth(leaf, x) through leaf's cache (see Relate).
func (t *Tree) UnpinDepth(leaf, x *Heap) int {
	d, _ := t.Relate(leaf, x)
	return d
}

// LCA returns the least common ancestor of a and b: the LCA's depth from
// the path words, then a walk up a's (immutable) parent chain to it.
func (t *Tree) LCA(a, b *Heap) *Heap {
	if a == b {
		return a
	}
	d := forkpath.LCADepth(&a.path, &b.path)
	x := a
	for x.depth > d {
		x = x.parent
	}
	return x
}

// Release hands back the chunks of h, a branch heap whose strand has just
// returned, if nothing outside it can reach it, and reports whether it did.
// The caller is h's own strand, as its last act (core.Task.settle), having
// tested that the branch's result does not point into h, that the records
// are complete (barriers on, collections on, no runtime-wide cancel) and that
// no concurrent cycle is marking. Once its branch returns, h's objects are
// reachable from outside its subtree in three ways only, each with a record:
//
//   - a down-pointer from an ancestor object, which the write barrier
//     records in h's remembered set (a grandchild's entries were spliced
//     in at its own join);
//   - a reference some concurrent strand acquired or was handed, which the
//     barriers pin and record in h's pinned list — tested here after
//     DrainBuffers under the closed gate, so a pin h's join would release
//     still keeps h;
//   - the branch's result, which the caller tested.
//
// No way in opens between the return and the join: each needs a reference
// into h, and every way to obtain one is recorded first. A heap with both
// records empty goes back whole — no trace, no re-point, no splice, no
// unpin pass — and is marked dead; the swept chunks queued for its
// allocator are among its chunks, so the handoff buffer is discarded. A
// stale reader re-admitted by the deferred EndCollect finds a released
// chunk (no owner) and re-reads its field, as after a collection. The drop
// is counted on h's own tally, which the strand's finish drains.
func (h *Heap) Release(space *mem.Space) bool {
	at := h.AttrSink.Begin()
	h.Gate.WaitBeginCollect()
	defer h.Gate.EndCollect()
	h.DrainBuffers()
	h.AttrSink.End(attr.MergeWait, at)
	if h.Remset.Len() != 0 || h.Pinned.Len() != 0 {
		return false
	}
	var words int64
	for _, c := range h.Chunks {
		words += int64(c.Words())
		space.Release(c)
	}
	h.Chunks = nil
	h.reuseBuf.take()
	h.Tally[trace.HeapsDropped]++
	h.Tally[trace.DroppedWords] += words
	h.dead.Store(true)
	return true
}

// Merge retires child at its join with parent. The caller is the task
// owning parent (joins are serialized per parent by fork–join structure).
// A child its branch released (Release) is only retired. Every other child
// merges: chunk ownership, remembered sets, pinned objects and root sets
// all move up, and pinned objects whose unpin depth has been reached are
// unpinned. Every parent-side structure touched is either owner-only
// (Chunks, Remset, Pinned, RootSets) or lock-free (the publication buffers
// foreign readers push into). Entangled readers that raced past the gate
// and re-pinned a child object are honoured by the TryUnpin snapshot-CAS:
// a pin whose depth was lowered after we examined the header can never be
// revoked unseen.
//
// space is needed to flip chunk owners and unpin headers. Besides the
// count, Merge returns the total size (header + payload words) of the
// unpinned objects, for the pinned-bytes gauge.
func (t *Tree) Merge(child, parent *Heap, space *mem.Space) (unpinned int, unpinnedWords int64) {
	if child.parent != parent {
		panic("hierarchy: merge of non-child")
	}
	if child.Dead() {
		parent.liveChildren.Add(-1)
		return 0, 0
	}
	// No concurrent cycle can hold either heap here: CGC claims only
	// parked heaps (cgc.go), the child's owner has finished (active), and
	// the parent's owner is the caller, resumed past CGCResume. Joining
	// therefore never races a sweep's chunk-list rebuild.
	// Quiesce slow paths targeting the child: after the gate closes no
	// reader can be between validating the child's ownership and
	// publishing a pin. The concurrent collector may briefly hold either
	// gate (root harvest) and is waited out. The parent's gate is taken
	// too: the chunk-ownership flips and owner-side appends below must not
	// interleave with a concurrent harvest or sweep of the parent. Gates
	// are always acquired child-then-parent while CGC takes one gate at a
	// time, so no cycle is possible.
	// The reopens are deferred: if anything in the join body panics
	// (e.g. a corrupted header surfacing in the unpin loop), readers
	// parked at the gates must still be released or the unwind would hang
	// them forever.
	// Attribution: the gate-quiesce waits are one MergeWait window (the
	// joining strand owns parent, hence parent's sink).
	at := parent.AttrSink.Begin()
	child.Gate.WaitBeginCollect()
	defer child.Gate.EndCollect()
	child.DrainBuffers()
	parent.Gate.WaitBeginCollect()
	defer parent.Gate.EndCollect()
	parent.AttrSink.End(attr.MergeWait, at)

	// The joining strand owns parent, so its ring is safe to write here.
	ring := parent.TraceRing
	ring.Emit(trace.EvHeapMerge, int32(parent.depth), uint64(child.ID), uint64(parent.ID))

	// Re-point every chunk before child is marked dead below: a reader that
	// sees dead set must find the parent on the chunk.
	for _, c := range child.Chunks {
		c.SetOwner(parent.ID, parent.owner())
	}
	parent.Chunks = append(parent.Chunks, child.Chunks...)
	child.Chunks = nil

	parent.Remset.Splice(&child.Remset)
	parent.Overwritten += child.Overwritten
	parent.Growth += child.Growth

	// Unpin objects whose unpin depth has been reached: the entangled
	// tasks have joined, so these are ordinary objects of the merged heap.
	// Readers may already be pinning through the parent (the chunks above
	// carry its ID now), so each unpin is a snapshot-CAS retry loop.
	// Attribution: the whole sweep is one UnpinAtJoin window — per-object
	// windows would undercount the loop's pointer chasing, which is most
	// of its cost.
	at = parent.AttrSink.Begin()
	child.Pinned.Filter(func(r mem.Ref) bool {
		c := space.ChunkOf(r)
		for {
			h := c.Header(r)
			if h.Kind() == mem.KForward || !h.Pinned() {
				return false // stale entry; copied or already unpinned
			}
			if h.UnpinDepth() < parent.depth {
				// Still entangled above the join point (possibly re-pinned
				// shallower by a racing reader): the entry moves up.
				return true
			}
			if c.TryUnpin(r, h) {
				unpinned++
				unpinnedWords += int64(h.Len()) + 1
				ring.Emit(trace.EvUnpin, int32(parent.depth), uint64(r), 0)
				return false
			}
			// Lost a race against a concurrent re-pin; re-examine.
		}
	})
	parent.AttrSink.End(attr.UnpinAtJoin, at)
	parent.Pinned.Splice(&child.Pinned)

	parent.RootSets = append(parent.RootSets, child.RootSets...)
	child.RootSets = nil

	// Swept chunks with free spans follow their chunks to the parent: the
	// parent's allocator may carve from them once it drains its buffer.
	child.reuseBuf.drain(func(c *mem.Chunk) { parent.reuseBuf.push(c) })

	// Readers re-admitted by the deferred EndCollect will fail ownership
	// validation against the dead child and retry against the parent. The
	// join never takes the tree mutex: the child's fork path is immutable
	// and still answers (historically exact) for any strand racing it.
	child.dead.Store(true)
	parent.liveChildren.Add(-1)
	return unpinned, unpinnedWords
}
