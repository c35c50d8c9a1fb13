package gc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

type roots struct{ refs []mem.Ref }

func (f *roots) Roots(visit func(*mem.Value)) {
	for i := range f.refs {
		v := f.refs[i].Value()
		visit(&v)
		if v.IsRef() {
			f.refs[i] = v.Ref()
		}
	}
}

type world struct {
	sp *mem.Space
	tr *hierarchy.Tree
	c  *Collector
}

func newWorld() *world {
	w := &world{sp: mem.NewSpace(), tr: hierarchy.New()}
	w.c = New(w.sp, w.tr)
	return w
}

// heapAlloc pairs an allocator with its heap and keeps chunk adoption tidy.
type heapAlloc struct {
	h  *hierarchy.Heap
	al *mem.Allocator
	w  *world
}

func (w *world) onHeap(h *hierarchy.Heap) *heapAlloc {
	return &heapAlloc{h: h, al: mem.NewAllocator(w.sp, h.ID), w: w}
}

func (ha *heapAlloc) adopt() {
	ha.h.Chunks = append(ha.h.Chunks, ha.al.Chunks...)
	ha.al.Chunks = nil
}

// untenure takes the tenure off every chunk of h, as if the mutator had
// filled them: the next collection copies what lives in them out again.
func untenure(h *hierarchy.Heap) {
	for _, c := range h.Chunks {
		c.Tenured = false
	}
}

func TestCollectReclaimsGarbage(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)

	live := ha.al.AllocTuple(mem.Int(1), mem.Int(2))
	for i := 0; i < 3*mem.ChunkWords/4; i++ {
		ha.al.AllocTuple(mem.Int(int64(i)), mem.Int(0)) // garbage
	}
	ha.adopt()
	rs := &roots{refs: []mem.Ref{live}}
	leaf.AddRootSet(rs)

	before := w.sp.LiveWords()
	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 1 {
		t.Fatalf("CopiedObjects = %d, want 1", res.CopiedObjects)
	}
	if w.sp.LiveWords() >= before {
		t.Fatal("collection did not reclaim space")
	}
	// To-space is sized to the survivors: one object costs one minimum
	// chunk, and every from-space chunk went back to the space.
	if len(leaf.Chunks) != 1 || leaf.Chunks[0].Words() != mem.MinChunkWords ||
		w.sp.LiveWords() != mem.MinChunkWords {
		t.Fatalf("after collecting down to one tuple: %d chunks, %d live words, want 1 chunk of %d",
			len(leaf.Chunks), w.sp.LiveWords(), mem.MinChunkWords)
	}
	moved := rs.refs[0]
	if moved == live {
		t.Fatal("live object was not moved (root not updated?)")
	}
	if w.sp.Load(moved, 0).AsInt() != 1 || w.sp.Load(moved, 1).AsInt() != 2 {
		t.Fatal("live object corrupted by copy")
	}
	if w.sp.ChunkOf(moved).HeapID() != leaf.ID {
		t.Fatal("copy left its heap")
	}
	if res.ReclaimedWords <= 0 {
		t.Fatal("ReclaimedWords not positive")
	}
}

func TestCollectPreservesLinkedStructure(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)

	// Build list 9 → 8 → ... → 0 → nil, with garbage interleaved.
	head := mem.Nil
	for i := 0; i < 10; i++ {
		ha.al.AllocArray(50, mem.Int(0)) // garbage
		head = ha.al.AllocTuple(mem.Int(int64(i)), head).Value()
	}
	ha.adopt()
	rs := &roots{refs: []mem.Ref{head.Ref()}}
	leaf.AddRootSet(rs)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 10 {
		t.Fatalf("CopiedObjects = %d, want 10", res.CopiedObjects)
	}
	// Walk the copied list.
	cur := rs.refs[0].Value()
	for i := 9; i >= 0; i-- {
		if !cur.IsRef() {
			t.Fatalf("list truncated at %d", i)
		}
		if got := w.sp.Load(cur.Ref(), 0).AsInt(); got != int64(i) {
			t.Fatalf("list[%d] = %d", i, got)
		}
		cur = w.sp.Load(cur.Ref(), 1)
	}
	if !cur.IsNil() {
		t.Fatal("list tail not nil")
	}
}

func TestCollectHandlesCycles(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)
	a := ha.al.AllocArray(2, mem.Nil)
	b := ha.al.AllocArray(2, mem.Nil)
	w.sp.Store(a, 0, b.Value())
	w.sp.Store(b, 0, a.Value())
	w.sp.Store(a, 1, mem.Int(11))
	w.sp.Store(b, 1, mem.Int(22))
	ha.adopt()
	rs := &roots{refs: []mem.Ref{a}}
	leaf.AddRootSet(rs)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 2 {
		t.Fatalf("CopiedObjects = %d, want 2", res.CopiedObjects)
	}
	na := rs.refs[0]
	nb := w.sp.Load(na, 0).Ref()
	if w.sp.Load(nb, 0).Ref() != na {
		t.Fatal("cycle broken by collection")
	}
	if w.sp.Load(na, 1).AsInt() != 11 || w.sp.Load(nb, 1).AsInt() != 22 {
		t.Fatal("cycle payload corrupted")
	}
}

func TestSharedObjectCopiedOnce(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)
	shared := ha.al.AllocTuple(mem.Int(5))
	p := ha.al.AllocTuple(shared.Value(), shared.Value())
	ha.adopt()
	rs := &roots{refs: []mem.Ref{p}}
	leaf.AddRootSet(rs)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 2 {
		t.Fatalf("CopiedObjects = %d, want 2 (sharing must be preserved)", res.CopiedObjects)
	}
	np := rs.refs[0]
	if w.sp.Load(np, 0) != w.sp.Load(np, 1) {
		t.Fatal("sharing destroyed: the two fields diverged")
	}
}

// TestCheckHeapCatchesStaleOwner: a merge that re-points a chunk's heap id
// but not its owner leaves the barriers resolving the merged-away child
// through that chunk. Both strengths of CheckHeap reject the parent then,
// and a chunk with no owner at all, and accept it after a whole merge.
func TestCheckHeapCatchesStaleOwner(t *testing.T) {
	w := newWorld()
	root := w.tr.Root()
	child := w.tr.Fork(root)
	ha := w.onHeap(child)
	ha.al.AllocTuple(mem.Int(1))
	ha.adopt()
	c := child.Chunks[0]
	if hierarchy.OwnerOf(c) != child {
		t.Fatalf("chunk acquired for heap %d owned by %p", child.ID, hierarchy.OwnerOf(c))
	}
	stale := c.Owner()
	w.tr.Merge(child, root, w.sp)
	check := func(want string) {
		t.Helper()
		for _, strict := range []bool{false, true} {
			err := CheckHeap(w.sp, root, strict)
			if want == "" && err != nil {
				t.Fatalf("strict=%v: %v", strict, err)
			}
			if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
				t.Fatalf("strict=%v: got %v, want an error naming %q", strict, err, want)
			}
		}
	}
	check("")
	c.SetOwner(root.ID, stale) // the id re-pointed, the owner left behind
	check(fmt.Sprintf("owner heap %d", child.ID))
	c.SetOwner(root.ID, nil)
	check("owner none")
}

// items copies a list out for assertions.
func items[T any](l *hierarchy.List[T]) []T {
	var out []T
	l.Each(func(v T) { out = append(out, v) })
	return out
}

func TestRemsetRoot(t *testing.T) {
	w := newWorld()
	root := w.tr.Root()
	leaf := w.tr.Fork(root)
	rootHA := w.onHeap(root)
	leafHA := w.onHeap(leaf)

	holder := rootHA.al.AllocArray(1, mem.Nil) // outside scope
	target := leafHA.al.AllocTuple(mem.Int(77))
	w.sp.SetCandidate(holder)
	w.sp.Store(holder, 0, target.Value())
	leaf.AddRemembered(holder, 0)
	rootHA.adopt()
	leafHA.adopt()

	// No shadow-stack roots at all: only the remset keeps target alive.
	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 1 {
		t.Fatalf("CopiedObjects = %d, want 1", res.CopiedObjects)
	}
	nv := w.sp.Load(holder, 0)
	if !nv.IsRef() || nv.Ref() == target {
		t.Fatal("holder field not updated to the new location")
	}
	if w.sp.Load(nv.Ref(), 0).AsInt() != 77 {
		t.Fatal("target corrupted")
	}
	// The external entry must survive the rebuild for future collections.
	if got := items(&leaf.Remset); len(got) != 1 || got[0] != (hierarchy.RememberedEntry{Holder: holder, Index: 0}) {
		t.Fatalf("rebuilt remset = %v", got)
	}
	// And a second collection must work off the rebuilt entry, copying out
	// of what the first one filled once that is no longer Tenured.
	untenure(leaf)
	res = w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 1 {
		t.Fatalf("second collection CopiedObjects = %d", res.CopiedObjects)
	}
	if w.sp.Load(w.sp.Load(holder, 0).Ref(), 0).AsInt() != 77 {
		t.Fatal("target lost in second collection")
	}
}

func TestDeadRemsetEntryDropped(t *testing.T) {
	w := newWorld()
	root := w.tr.Root()
	leaf := w.tr.Fork(root)
	rootHA := w.onHeap(root)
	leafHA := w.onHeap(leaf)

	holder := rootHA.al.AllocArray(1, mem.Nil)
	target := leafHA.al.AllocTuple(mem.Int(1))
	w.sp.Store(holder, 0, target.Value())
	leaf.AddRemembered(holder, 0)
	// Overwrite the field: the down-pointer is gone.
	w.sp.Store(holder, 0, mem.Int(42))
	rootHA.adopt()
	leafHA.adopt()

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 0 {
		t.Fatal("dead target kept alive by stale remset entry")
	}
	if leaf.Remset.Len() != 0 {
		t.Fatal("stale entry not dropped")
	}
}

// TestDedupListsOnlyInPlaceEntries collects a remembered set of many
// entries whose targets move, among which one field whose pinned target
// stays in place is remembered three times and a second field shares that
// target. Exactly the two repeats go; every other entry stays, in order.
// dedup sorts only the four entries whose target stayed, not the set: the
// run the collector pools afterwards listed no more than those. A garbage
// tuple after each target keeps the targets' chunks sparse, so they move.
// Without the garbage the targets fill their chunks and stay where they lie,
// traced in place, their entries in order and no repeat among them.
func TestDedupListsOnlyInPlaceEntries(t *testing.T) {
	for _, dense := range []bool{false, true} {
		// 896 two-word tuples fill the 256-, 512- and 1 024-word chunks the
		// allocator takes in turn.
		moved := 1000
		if dense {
			moved = 896
		}
		w := newWorld()
		root := w.tr.Root()
		leaf := w.tr.Fork(root)
		rootHA := w.onHeap(root)
		holder := rootHA.al.AllocArray(moved+2, mem.Nil)
		w.sp.SetCandidate(holder)
		rootHA.adopt()
		pinHA := w.onHeap(leaf) // a chunk of its own, kept for the pin
		pinned := pinHA.al.AllocTuple(mem.Int(-1))
		w.sp.Pin(pinned, 0)
		leaf.AddPinned(pinned)
		pinHA.adopt()
		w.sp.Store(holder, moved, pinned.Value())
		w.sp.Store(holder, moved+1, pinned.Value())

		leafHA := w.onHeap(leaf)
		var want []hierarchy.RememberedEntry // the moved entries, in order
		targets := make([]mem.Ref, moved)
		for i := 0; i < moved; i++ {
			if i%(moved/2) == 0 {
				leaf.AddRememberedLocal(holder, moved) // the repeated field
			}
			targets[i] = leafHA.al.AllocTuple(mem.Int(int64(i)))
			if !dense {
				leafHA.al.AllocTuple(mem.Int(0), mem.Int(0)) // garbage
			}
			w.sp.Store(holder, i, targets[i].Value())
			leaf.AddRememberedLocal(holder, i)
			want = append(want, hierarchy.RememberedEntry{Holder: holder, Index: i})
		}
		leaf.AddRememberedLocal(holder, moved)
		leaf.AddRememberedLocal(holder, moved+1)
		leafHA.adopt()

		res := w.c.Collect([]*hierarchy.Heap{leaf})
		wantCopied := int64(moved)
		if dense {
			wantCopied = 0
		}
		if res.CopiedObjects != wantCopied {
			t.Fatalf("dense %v: CopiedObjects = %d, want %d", dense, res.CopiedObjects, wantCopied)
		}
		var got []hierarchy.RememberedEntry
		inPlace := map[int]int{}
		for _, e := range items(&leaf.Remset) {
			if e.Index >= moved {
				inPlace[e.Index]++
				continue
			}
			got = append(got, e)
			v := w.sp.Load(holder, e.Index)
			if w.sp.Load(v.Ref(), 0).AsInt() != int64(e.Index) {
				t.Fatalf("dense %v: field %d lost its target", dense, e.Index)
			}
			if dense && v.Ref() != targets[e.Index] {
				t.Fatalf("field %d: a target of a chunk it fills moved", e.Index)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("dense %v: moved entries: got %d, want all %d in order", dense, len(got), len(want))
		}
		if inPlace[moved] != 1 || inPlace[moved+1] != 1 {
			t.Fatalf("dense %v: in-place fields keep %v entries, want one each", dense, inPlace)
		}
		if w.sp.Load(holder, moved).Ref() != pinned || w.sp.Load(holder, moved+1).Ref() != pinned {
			t.Fatal("the pinned target moved")
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
		if r, _ := w.c.runs.Get().(*run); r != nil && !dense { // the race detector's pool may drop it
			if cap(r.entries) >= moved {
				t.Errorf("dedup listed %d entries, want the 4 whose target stayed", cap(r.entries))
			}
			w.c.runs.Put(r)
		}
	}
}

// A remembered entry whose holder the concurrent sweep freed inside a run —
// not at the run's head, where the free span's header lies — is dropped as
// well: nothing clears a swept span, but the sweep stamps each freed
// object's header KFree, so the collection does not read the dead holder's
// field and keep its target alive (DESIGN.md §6 decision 1).
func TestSweptHolderEntryDropped(t *testing.T) {
	w := newWorld()
	root := w.tr.Root()
	leaf := w.tr.Fork(root)
	rootHA := w.onHeap(root)
	leafHA := w.onHeap(leaf)

	live := rootHA.al.AllocTuple(mem.Int(1))
	rootHA.al.AllocTuple(mem.Int(2)) // dead: the head of the run
	holder := rootHA.al.AllocArray(1, mem.Nil)
	kept := rootHA.al.AllocTuple(mem.Int(3))
	target := leafHA.al.AllocTuple(mem.Int(4))
	w.sp.Store(holder, 0, target.Value())
	leaf.AddRemembered(holder, 0)
	rootHA.adopt()
	leafHA.adopt()

	c := w.sp.ChunkOf(holder)
	m := w.sp.BeginMarks(c)
	m.Mark(live.Off())
	m.Mark(kept.Off())
	if st, dead := w.sp.SweepMarked(c); dead || st.FreedWords != 4 {
		t.Fatalf("sweep freed %d words (dead %v), want the 4 of the run", st.FreedWords, dead)
	}
	w.sp.EndMarks(c)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.CopiedObjects != 0 {
		t.Fatalf("the entry of a swept holder kept its target alive: %d objects copied", res.CopiedObjects)
	}
	if leaf.Remset.Len() != 0 {
		t.Fatal("the entry of a swept holder survived the collection")
	}
}

func TestPinnedNotMoved(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)

	pinned := ha.al.AllocArray(2, mem.Nil)
	ha.adopt()
	// Reachable only from pinned, in a chunk of its own: the pin keeps its
	// own chunk in place, not this one.
	other := w.onHeap(leaf)
	child := other.al.AllocTuple(mem.Int(33))
	other.adopt()
	w.sp.Store(pinned, 0, child.Value())
	w.sp.Pin(pinned, 0)
	leaf.AddPinned(pinned)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.PinnedTraced != 1 {
		t.Fatalf("PinnedTraced = %d", res.PinnedTraced)
	}
	// The pinned object stayed put (no forwarding header).
	if _, fwd := w.sp.Forwarded(pinned); fwd {
		t.Fatal("pinned object was moved")
	}
	if !w.sp.Header(pinned).Pinned() {
		t.Fatal("pin bit lost")
	}
	if w.sp.ChunkOf(pinned).Marks() != nil {
		t.Fatal("in-place mark state left on the pin's chunk")
	}
	// Its child was copied and the field updated.
	nv := w.sp.Load(pinned, 0)
	if !nv.IsRef() || nv.Ref() == child {
		t.Fatal("pinned object's field not forwarded")
	}
	if w.sp.Load(nv.Ref(), 0).AsInt() != 33 {
		t.Fatal("pinned-reachable object corrupted")
	}
	if res.RetainedChunks == 0 {
		t.Fatal("chunk holding the pin must be retained")
	}
}

func TestPinnedChunkRetainedThenReclaimedAfterUnpin(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)
	pinned := ha.al.AllocRef(mem.Int(1))
	ha.adopt()
	w.sp.Pin(pinned, 0)
	leaf.AddPinned(pinned)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if res.RetainedChunks != 1 {
		t.Fatalf("RetainedChunks = %d, want 1", res.RetainedChunks)
	}

	// Unpin (as a join would) and collect again: now the chunk frees and
	// the unreferenced object dies.
	w.sp.Unpin(pinned)
	leaf.Pinned.Reset()
	before := w.sp.LiveWords()
	res = w.c.Collect([]*hierarchy.Heap{leaf})
	if res.RetainedChunks != 0 {
		t.Fatal("chunk still retained after unpin")
	}
	if w.sp.LiveWords() > before {
		t.Fatal("space grew after unpin collection")
	}
}

// TestCollectRetainsExactlyPinnedChunks: a collection keeps exactly the
// from-space chunks in which a listed pinned object lies and releases every
// other one — a chunk of garbage, a chunk whose live object it copied out,
// and a chunk whose object a join unpinned. A stale pinned entry naming an
// object of a heap outside the scope leaves that heap's chunk alone, though
// the chunk carries another collection's from-space mark.
func TestCollectRetainsExactlyPinnedChunks(t *testing.T) {
	w := newWorld()
	parent := w.tr.Fork(w.tr.Root())
	child := w.tr.Fork(parent)
	other := w.tr.Fork(w.tr.Root())
	// chunk allocates the given number of pairs in a chunk of its own.
	chunk := func(h *hierarchy.Heap, objects int) (*mem.Chunk, []mem.Ref) {
		ha := w.onHeap(h)
		var refs []mem.Ref
		for i := 0; i < objects; i++ {
			refs = append(refs, ha.al.AllocTuple(mem.Int(int64(i)), mem.Nil))
		}
		ha.adopt()
		return w.sp.ChunkOf(refs[0]), refs
	}
	pin := func(h *hierarchy.Heap, r mem.Ref, depth int) {
		w.sp.Pin(r, depth)
		h.AddPinned(r)
	}
	pinned, pr := chunk(parent, 3) // a listed pin among garbage: kept
	pin(parent, pr[1], 0)
	reached, rr := chunk(parent, 2) // a listed pin the roots reach too: kept
	pin(parent, rr[0], 0)
	garbage, _ := chunk(parent, 4)  // released
	copied, cr := chunk(parent, 2)  // its live object moves out: released
	unpinned, ur := chunk(child, 2) // unpinned at the join: released
	pin(child, ur[0], parent.Depth())
	above, ar := chunk(child, 2) // pinned above the join: kept
	pin(child, ar[1], 0)
	foreign, fr := chunk(other, 1) // another collection's from-space
	w.sp.Pin(fr[0], 0)
	parent.AddPinned(fr[0]) // a stale entry in the scope's pinned set
	foreign.FromSpace = mem.Evacuate

	if n, _ := w.tr.Merge(child, parent, w.sp); n != 1 {
		t.Fatalf("the join unpinned %d objects, want 1", n)
	}
	holder := w.onHeap(parent)
	rs := &rootSlot{v: holder.al.AllocTuple(rr[0].Value(), cr[1].Value()).Value()}
	holder.adopt()
	parent.AddRootSet(rs)

	res := w.c.Collect([]*hierarchy.Heap{parent})
	for _, c := range []*mem.Chunk{pinned, reached, above} {
		if c.HeapID() != parent.ID || c.FromSpace != mem.NotFromSpace || !slices.Contains(parent.Chunks, c) {
			t.Fatalf("chunk %d holds a listed pin but was not kept (heap %d, from-space %d)", c.ID, c.HeapID(), c.FromSpace)
		}
	}
	for _, c := range []*mem.Chunk{garbage, copied, unpinned} {
		if c.HeapID() != 0 || slices.Contains(parent.Chunks, c) {
			t.Fatalf("chunk %d holds no pin but was kept (heap %d)", c.ID, c.HeapID())
		}
	}
	if res.RetainedChunks != 3 {
		t.Fatalf("RetainedChunks = %d, want 3", res.RetainedChunks)
	}
	if foreign.FromSpace != mem.Evacuate || foreign.HeapID() != other.ID || foreign.Marks() != nil {
		t.Fatalf("the chunk outside the scope was touched: from-space %d, heap %d, mark state %v",
			foreign.FromSpace, foreign.HeapID(), foreign.Marks() != nil)
	}
	foreign.FromSpace = mem.NotFromSpace
	if err := CheckHeap(w.sp, parent, true); err != nil {
		t.Fatal(err)
	}
}

// TestCollectKeepsPinnedChunkInPlace: a chunk that holds a pin is
// non-moving for the collection that keeps it. The pin's unpinned live
// neighbour keeps its reference and its fields, and only the chunk without
// a pin is copied from.
func TestCollectKeepsPinnedChunkInPlace(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	first := w.onHeap(leaf)
	pinned := first.al.AllocTuple(mem.Int(1))
	neighbour := first.al.AllocTuple(mem.Int(2), pinned.Value())
	first.adopt()
	second := w.onHeap(leaf)
	moved := second.al.AllocTuple(mem.Int(3), neighbour.Value())
	second.adopt()
	kept, released := w.sp.ChunkOf(neighbour), w.sp.ChunkOf(moved)
	w.sp.Pin(pinned, 0)
	leaf.AddPinned(pinned)
	rs := &roots{refs: []mem.Ref{neighbour, moved}}
	leaf.AddRootSet(rs)

	res := w.c.Collect([]*hierarchy.Heap{leaf})
	if rs.refs[0] != neighbour {
		t.Fatalf("the pin's neighbour moved: %v -> %v", neighbour, rs.refs[0])
	}
	if hd := w.sp.Header(neighbour); hd.Kind() != mem.KTuple || hd.Len() != 2 || hd.Busy() {
		t.Fatalf("the pin's neighbour has header %#x", uint64(hd))
	}
	if w.sp.Load(neighbour, 0) != mem.Int(2) || w.sp.Load(neighbour, 1) != pinned.Value() {
		t.Fatalf("the pin's neighbour holds %v, %v", w.sp.Load(neighbour, 0), w.sp.Load(neighbour, 1))
	}
	if res.CopiedObjects != 1 || res.CopiedWords != 3 {
		t.Fatalf("copied %d objects, %d words; want the one 3-word object of the chunk without a pin",
			res.CopiedObjects, res.CopiedWords)
	}
	if nm := rs.refs[1]; nm == moved || w.sp.Load(nm, 0) != mem.Int(3) || w.sp.Load(nm, 1) != neighbour.Value() {
		t.Fatalf("the object of the chunk without a pin: %v -> %v", moved, nm)
	}
	if res.RetainedChunks != 1 || !slices.Contains(leaf.Chunks, kept) || released.HeapID() != 0 {
		t.Fatalf("retained %d chunks (pinned chunk kept %v, other chunk's heap %d)",
			res.RetainedChunks, slices.Contains(leaf.Chunks, kept), released.HeapID())
	}
	if err := CheckHeap(w.sp, leaf, true); err != nil {
		t.Fatal(err)
	}
}

func TestRawObjectSurvives(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)
	s := ha.al.AllocString("the quick brown fox")
	ha.adopt()
	rs := &roots{refs: []mem.Ref{s}}
	leaf.AddRootSet(rs)
	w.c.Collect([]*hierarchy.Heap{leaf})
	if got := w.sp.LoadString(rs.refs[0]); got != "the quick brown fox" {
		t.Fatalf("string corrupted: %q", got)
	}
}

func TestCandidateBitSurvivesCopy(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)
	o := ha.al.AllocArray(1, mem.Int(1))
	w.sp.SetCandidate(o)
	ha.adopt()
	rs := &roots{refs: []mem.Ref{o}}
	leaf.AddRootSet(rs)
	w.c.Collect([]*hierarchy.Heap{leaf})
	if !w.sp.Header(rs.refs[0]).Candidate() {
		t.Fatal("candidate bit lost in copy")
	}
}

// TestScopeIsOneLeaf: Collect takes the caller's leaf, a one-element
// scope. A scope of zero or two heaps panics before it closes a gate, so
// both heaps' gates stay open and a later collection of the leaf runs.
func TestScopeIsOneLeaf(t *testing.T) {
	w := newWorld()
	root := w.tr.Root()
	leaf := w.tr.Fork(root)
	ha := w.onHeap(leaf)
	rs := &roots{refs: []mem.Ref{ha.al.AllocTuple(mem.Int(1))}}
	ha.adopt()
	leaf.AddRootSet(rs)
	for _, scope := range [][]*hierarchy.Heap{nil, {leaf, root}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a scope of %d heaps did not panic", len(scope))
				}
			}()
			w.c.Collect(scope)
		}()
		for _, h := range []*hierarchy.Heap{root, leaf} {
			if h.Gate.Collecting() || h.Gate.Epoch() != 0 {
				t.Fatalf("a scope of %d heaps touched heap %d's gate: collecting %v, epoch %d",
					len(scope), h.ID, h.Gate.Collecting(), h.Gate.Epoch())
			}
		}
	}
	if res := w.c.Collect([]*hierarchy.Heap{leaf}); res.CopiedObjects != 1 {
		t.Fatalf("the leaf's collection copied %d objects, want 1", res.CopiedObjects)
	}
	if err := CheckHeap(w.sp, leaf, true); err != nil {
		t.Fatal(err)
	}
}

// TestRandomGraphsPreserved builds random object graphs, snapshots the
// reachable structure, collects, and verifies the structure is isomorphic.
func TestRandomGraphsPreserved(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWorld()
		leaf := w.tr.Fork(w.tr.Root())
		ha := w.onHeap(leaf)

		// Random objects with random int fields and random back-pointers.
		var objs []mem.Ref
		for i := 0; i < 200; i++ {
			n := 1 + rng.Intn(4)
			o := ha.al.AllocArray(n, mem.Nil)
			for j := 0; j < n; j++ {
				if len(objs) > 0 && rng.Intn(2) == 0 {
					w.sp.Store(o, j, objs[rng.Intn(len(objs))].Value())
				} else {
					w.sp.Store(o, j, mem.Int(int64(rng.Intn(1000))))
				}
			}
			objs = append(objs, o)
		}
		ha.adopt()
		// A few random roots.
		rs := &roots{}
		for i := 0; i < 5; i++ {
			rs.refs = append(rs.refs, objs[rng.Intn(len(objs))])
		}
		leaf.AddRootSet(rs)

		var snapshot func(r mem.Ref, seen map[mem.Ref]int, out *[]int64)
		snapshot = func(r mem.Ref, seen map[mem.Ref]int, out *[]int64) {
			if id, ok := seen[r]; ok {
				*out = append(*out, int64(-1000000-id))
				return
			}
			seen[r] = len(seen)
			h := w.sp.Header(r)
			*out = append(*out, int64(h.Len()))
			for i := 0; i < h.Len(); i++ {
				v := w.sp.Load(r, i)
				if v.IsRef() {
					snapshot(v.Ref(), seen, out)
				} else if v.IsNil() {
					*out = append(*out, -999)
				} else {
					*out = append(*out, v.AsInt())
				}
			}
		}
		var before []int64
		seen := map[mem.Ref]int{}
		for _, r := range rs.refs {
			snapshot(r, seen, &before)
		}

		w.c.Collect([]*hierarchy.Heap{leaf})

		var after []int64
		seen = map[mem.Ref]int{}
		for _, r := range rs.refs {
			snapshot(r, seen, &after)
		}
		if len(before) != len(after) {
			t.Fatalf("seed %d: snapshot lengths differ: %d vs %d", seed, len(before), len(after))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("seed %d: snapshots differ at %d: %d vs %d", seed, i, before[i], after[i])
			}
		}
	}
}

// cellsOf walks a list of (value, next) cells and returns the cells.
func cellsOf(sp *mem.Space, head mem.Ref) []mem.Ref {
	var out []mem.Ref
	for v := head.Value(); v.IsRef(); v = sp.Load(v.Ref(), 1) {
		out = append(out, v.Ref())
	}
	return out
}

// listIn allocates a list of n cells holding n-1 .. 0 in the leaf, with a
// garbage tuple after every cell, and roots it.
func listIn(w *world, leaf *hierarchy.Heap, n int) *roots {
	ha := w.onHeap(leaf)
	head := mem.Nil
	for i := 0; i < n; i++ {
		head = ha.al.AllocTuple(mem.Int(int64(i)), head).Value()
		ha.al.AllocTuple(mem.Int(0)) // garbage
	}
	ha.adopt()
	rs := &roots{refs: []mem.Ref{head.Ref()}}
	leaf.AddRootSet(rs)
	return rs
}

// TestSurvivorCopiedOnce: a list that survives collection after collection
// is copied by the first and stays where it is through the rest. The first
// collection fills three to-space chunks, each at least half, and leaves
// them Tenured; every later one copies nothing, reclaims nothing, and every
// reference and field is what it was.
func TestSurvivorCopiedOnce(t *testing.T) {
	const n = 500
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	rs := listIn(w, leaf, n)
	if res := w.c.Collect([]*hierarchy.Heap{leaf}); res.CopiedWords != 3*n {
		t.Fatalf("the first collection copied %d words, want %d", res.CopiedWords, 3*n)
	}
	cells := cellsOf(w.sp, rs.refs[0])
	for round := 1; round <= 4; round++ {
		live := w.sp.LiveWords()
		res := w.c.Collect([]*hierarchy.Heap{leaf})
		if res.CopiedWords != 0 || res.ReclaimedWords != 0 || w.sp.LiveWords() != live {
			t.Fatalf("collection %d copied %d words and reclaimed %d (live %d -> %d), want none",
				round+1, res.CopiedWords, res.ReclaimedWords, live, w.sp.LiveWords())
		}
		if got := cellsOf(w.sp, rs.refs[0]); !slices.Equal(got, cells) {
			t.Fatalf("collection %d moved the list", round+1)
		}
		for i, c := range cells {
			if w.sp.Load(c, 0) != mem.Int(int64(n-1-i)) {
				t.Fatalf("collection %d: cell %d holds %v", round+1, i, w.sp.Load(c, 0))
			}
		}
		for _, c := range leaf.Chunks {
			if !c.Tenured {
				t.Fatalf("collection %d left chunk %d without tenure", round+1, c.ID)
			}
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeadSurvivorChunkGoesBack: a Tenured chunk in which nothing lives any
// more is released by the collection that finds it so; one found less than
// half live is kept by that collection, without tenure, and copied out of
// by the next, and the words held fall. Only such a sparse chunk holds its
// garbage for at most one more collection; TestTenuredChunksAtLeastHalfLive
// has the bound on one that stays Tenured.
func TestDeadSurvivorChunkGoesBack(t *testing.T) {
	t.Run("dead", func(t *testing.T) {
		w := newWorld()
		leaf := w.tr.Fork(w.tr.Root())
		dying := listIn(w, leaf, 500)
		w.c.Collect([]*hierarchy.Heap{leaf})
		old := slices.Clone(leaf.Chunks)
		var oldWords int64
		for _, c := range old {
			oldWords += int64(c.Words())
		}
		staying := listIn(w, leaf, 100)
		w.c.Collect([]*hierarchy.Heap{leaf}) // copies the new list, keeps the old
		dying.refs = nil
		live := w.sp.LiveWords()
		res := w.c.Collect([]*hierarchy.Heap{leaf})
		for _, c := range old {
			if slices.Contains(leaf.Chunks, c) || c.HeapID() != 0 {
				t.Fatalf("chunk %d, in which nothing lives, was kept", c.ID)
			}
		}
		if res.CopiedWords != 0 || res.ReclaimedWords != oldWords || w.sp.LiveWords() != live-oldWords {
			t.Fatalf("copied %d words, reclaimed %d, live %d -> %d; want 0, %d and a fall of %d",
				res.CopiedWords, res.ReclaimedWords, live, w.sp.LiveWords(), oldWords, oldWords)
		}
		if got := len(cellsOf(w.sp, staying.refs[0])); got != 100 {
			t.Fatalf("the staying list has %d cells", got)
		}
	})
	t.Run("sparse", func(t *testing.T) {
		const n = 1000
		w := newWorld()
		leaf := w.tr.Fork(w.tr.Root())
		rs := listIn(w, leaf, n)
		w.c.Collect([]*hierarchy.Heap{leaf})
		cells := cellsOf(w.sp, rs.refs[0])
		for i := 0; i+4 < n; i += 4 { // three cells in four die
			w.sp.Store(cells[i], 1, cells[i+4].Value())
		}
		w.sp.Store(cells[n-4], 1, mem.Nil)
		live := w.sp.LiveWords()
		if res := w.c.Collect([]*hierarchy.Heap{leaf}); res.CopiedWords != 0 || w.sp.LiveWords() != live {
			t.Fatalf("the collection that finds the chunks sparse copied %d words (live %d -> %d), want none",
				res.CopiedWords, live, w.sp.LiveWords())
		}
		for _, c := range leaf.Chunks {
			if c.Tenured {
				t.Fatalf("chunk %d, a quarter live, kept its tenure", c.ID)
			}
		}
		res := w.c.Collect([]*hierarchy.Heap{leaf})
		if res.CopiedWords != 3*n/4 || w.sp.LiveWords() >= live {
			t.Fatalf("the next collection copied %d words (live %d -> %d), want %d and a fall",
				res.CopiedWords, live, w.sp.LiveWords(), 3*n/4)
		}
		got := cellsOf(w.sp, rs.refs[0])
		for i, c := range got {
			if w.sp.Load(c, 0) != mem.Int(int64(n-1-4*i)) {
				t.Fatalf("cell %d holds %v", i, w.sp.Load(c, 0))
			}
		}
		if len(got) != n/4 {
			t.Fatalf("the list has %d cells, want %d", len(got), n/4)
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTenuredChunksAtLeastHalfLive: the space bound on survivors. A list is
// thinned between collections, 1 000 cells to 600 and then fewer, each
// kept cell spread evenly through its chunks. After each collection, every
// Tenured chunk the collection kept has at most twice as many words as the
// reachable words lying in it, counted by a walk from the roots, and every
// to-space chunk is dense: its words up to the bump offset are reachable.
func TestTenuredChunksAtLeastHalfLive(t *testing.T) {
	const n = 1000
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	rs := listIn(w, leaf, n)
	want := make([]mem.Value, n)
	for i := range want {
		want[i] = mem.Int(int64(n - 1 - i))
	}
	for _, k := range []int{n, 600, 300, 100, 30} {
		cells := cellsOf(w.sp, rs.refs[0])
		kept := make([]mem.Ref, k)
		for j := range kept {
			kept[j] = cells[j*len(cells)/k]
			want[j] = want[j*len(cells)/k]
		}
		want = want[:k]
		for j := 0; j+1 < k; j++ {
			w.sp.Store(kept[j], 1, kept[j+1].Value())
		}
		w.sp.Store(kept[k-1], 1, mem.Nil)
		rs.refs[0] = kept[0]
		old := slices.Clone(leaf.Chunks)
		w.c.Collect([]*hierarchy.Heap{leaf})

		reach := map[*mem.Chunk]int{}
		cells = cellsOf(w.sp, rs.refs[0])
		for i, c := range cells {
			if w.sp.Load(c, 0) != want[i] {
				t.Fatalf("%d cells: cell %d holds %v, want %v", k, i, w.sp.Load(c, 0), want[i])
			}
			reach[w.sp.ChunkOf(c)] += max(w.sp.Header(c).Len(), 1) + 1
		}
		if len(cells) != k {
			t.Fatalf("the list has %d cells, want %d", len(cells), k)
		}
		for _, c := range leaf.Chunks {
			switch {
			case !slices.Contains(old, c):
				if !c.Tenured || c.Alloc != reach[c] {
					t.Fatalf("%d cells: to-space chunk %d (Tenured %v) holds %d words to its bump offset, %d reachable",
						k, c.ID, c.Tenured, c.Alloc, reach[c])
				}
			case c.Tenured && c.Words() > 2*reach[c]:
				t.Fatalf("%d cells: kept Tenured chunk %d has %d words, %d reachable", k, c.ID, c.Words(), reach[c])
			}
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectRefusesForeignMarks: the local and the concurrent collector
// share one mark state per chunk, so a local collection that finds a chunk
// of its leaf carrying one — Tenured or not — panics rather than mark
// through the other collector's bits.
func TestCollectRefusesForeignMarks(t *testing.T) {
	for _, tenured := range []bool{false, true} {
		w := newWorld()
		leaf := w.tr.Fork(w.tr.Root())
		listIn(w, leaf, 10)
		c := leaf.Chunks[0]
		c.Tenured = tenured
		w.sp.BeginMarks(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Tenured %v: a collection marked through a foreign mark state", tenured)
				}
			}()
			w.c.Collect([]*hierarchy.Heap{leaf})
		}()
	}
}

// TestOversizeChunkTracedInPlace collects a leaf holding a live array
// larger than any chunk class beside a dead one. The live array stays
// where it lies, in the chunk it fills: nothing is copied and no chunk is
// minted — a copy minted an oversize chunk of its size, and the chunk
// table keeps the released one's array for good. The dead array's chunk
// goes back whole.
func TestOversizeChunkTracedInPlace(t *testing.T) {
	w := newWorld()
	leaf := w.tr.Fork(w.tr.Root())
	ha := w.onHeap(leaf)
	n := mem.ChunkWords + 100
	live := ha.al.AllocArray(n, mem.Int(7))
	ha.al.AllocArray(n, mem.Nil) // garbage
	ha.adopt()
	rs := &roots{refs: []mem.Ref{live}}
	leaf.AddRootSet(rs)
	chunks := func() (all int) {
		w.sp.ForEachChunk(func(*mem.Chunk) { all++ })
		return all
	}
	minted, before := chunks(), w.sp.LiveWords()
	for round := 0; round < 2; round++ {
		res := w.c.Collect([]*hierarchy.Heap{leaf})
		if res.CopiedWords != 0 || rs.refs[0] != live {
			t.Fatalf("round %d: copied %d words, the array now at %v (was %v)", round, res.CopiedWords, rs.refs[0], live)
		}
		if got := chunks(); got != minted {
			t.Fatalf("round %d: the chunk table holds %d chunks, %d before the collection", round, got, minted)
		}
		if got, want := w.sp.LiveWords(), before-int64(n+1); got != want {
			t.Fatalf("round %d: %d live words, want %d (the dead array's chunk released)", round, got, want)
		}
		if len(leaf.Chunks) != 1 || !leaf.Chunks[0].Tenured {
			t.Fatalf("round %d: the leaf keeps %d chunks, want the live array's, Tenured", round, len(leaf.Chunks))
		}
		if w.sp.Load(live, n-1) != mem.Int(7) {
			t.Fatal("the array's contents changed")
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
	}
}
