package entangle

import (
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// The join's drop decision, one test per record that keeps a child heap
// reachable (hierarchy.Tree.Join). Each builds the record on the rig by
// hand, as the barriers would, and checks the child merged — its object now
// in a chunk root owns — instead of dropping. The branch's result, the third
// way in, is core's to test (core.Task.join).

// join runs the runtime's join of child into parent and reports whether it
// dropped child.
func (r *rig) join(child, parent *hierarchy.Heap) bool {
	before := parent.Tally[trace.HeapsDropped]
	r.m.Join(child, parent, false)
	return parent.Tally[trace.HeapsDropped] != before
}

// mergedInto fails the test unless x now lives in a chunk h owns and still
// reads want.
func (r *rig) mergedInto(t *testing.T, x mem.Ref, h *hierarchy.Heap, want int64) {
	t.Helper()
	if c := r.sp.ChunkOf(x); c.HeapID() != h.ID || hierarchy.OwnerOf(c) != h {
		t.Fatalf("x's chunk is owned by heap %d, want %d", c.HeapID(), h.ID)
	}
	if got := r.sp.Load(x, 0).AsInt(); got != want {
		t.Fatalf("x reads %d, want %d", got, want)
	}
}

func TestJoinDropsDeadChild(t *testing.T) {
	r := newRig(Manage)
	for i := 0; i < 600; i++ {
		r.leftAl.AllocTuple(mem.Int(int64(i)))
	}
	r.adopt(r.left, r.leftAl)
	chunks := append([]*mem.Chunk(nil), r.left.Chunks...)
	var words int64
	for _, c := range chunks {
		words += int64(c.Words())
	}
	live := r.sp.LiveWords()
	if !r.join(r.left, r.root) {
		t.Fatal("a child nothing reaches was merged")
	}
	if got := live - r.sp.LiveWords(); got != words || len(chunks) < 2 {
		t.Fatalf("the drop lowered live words by %d, want the %d words of its %d chunks", got, words, len(chunks))
	}
	for _, c := range chunks {
		if c.HeapID() != 0 || c.Owner() != nil {
			t.Fatalf("chunk %d still owned by heap %d after the drop", c.ID, c.HeapID())
		}
	}
	if !r.left.Dead() || r.root.LiveChildren() != 1 || len(r.left.Chunks) != 0 {
		t.Fatal("the dropped child is not retired")
	}
	if got := r.root.Tally; got[trace.HeapsDropped] != 1 || got[trace.DroppedWords] != words {
		t.Fatalf("parent's tally = %+v, want 1 heap and %d words", got, words)
	}
	r.m.Drain(r.root)
	if h, w := r.tr.Stats.Load(trace.HeapsDropped), r.tr.Stats.Load(trace.DroppedWords); h != 1 || w != words {
		t.Fatalf("tree totals %d heaps, %d words after the drain", h, w)
	}
}

func TestJoinKeepsChildWithDownPointer(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	r.adopt(r.left, r.leftAl)
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	if r.join(r.left, r.root) {
		t.Fatal("dropped a child an ancestor points into")
	}
	r.mergedInto(t, x, r.root, 7)
}

// TestJoinKeepsChildWithSplicedDownPointer: a grandchild's down-pointer
// reaches the child's remembered set through the splice at the grandchild's
// join, and keeps the child at its own.
func TestJoinKeepsChildWithSplicedDownPointer(t *testing.T) {
	r := newRig(Manage)
	ll := r.tr.Fork(r.left)
	llAl := r.alloc(ll)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	y := llAl.AllocTuple(mem.Int(3))
	r.adopt(ll, llAl)
	if err := r.m.OnWrite(ll, holder, 0, y); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, y.Value())
	if r.join(ll, r.left) {
		t.Fatal("dropped a grandchild an ancestor points into")
	}
	if r.left.Remset.Len() == 0 {
		t.Fatal("the grandchild's remembered set was not spliced into the child's")
	}
	if r.join(r.left, r.root) {
		t.Fatal("dropped a child whose spliced remembered set names a way in")
	}
	r.mergedInto(t, y, r.root, 3)
}

// TestJoinKeepsChildPublishedFromBelow: a grandchild stores a pointer to the
// child's object into an ancestor. The entry is published into the child's
// buffer, which only DrainBuffers folds into its remembered set.
func TestJoinKeepsChildPublishedFromBelow(t *testing.T) {
	r := newRig(Manage)
	ll := r.tr.Fork(r.left)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(4))
	r.adopt(r.left, r.leftAl)
	if err := r.m.OnWrite(ll, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	if r.left.Remset.Len() != 0 {
		t.Fatal("setup: the entry should wait in the child's publication buffer")
	}
	r.join(ll, r.left)
	if r.join(r.left, r.root) {
		t.Fatal("dropped a child whose buffered remembered entry names a way in")
	}
	r.mergedInto(t, x, r.root, 4)
}

// TestJoinKeepsChildPinnedBySibling: the sibling's read is the only record
// (the holder's store bypasses the barrier), and its pin is released at this
// very join — so the pinned list must be tested before the unpin pass.
func TestJoinKeepsChildPinnedBySibling(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(5))
	r.adopt(r.left, r.leftAl)
	r.sp.Store(holder, 0, x.Value())
	if _, err := r.m.OnRead(r.right, holder, 0, x.Value()); err != nil {
		t.Fatal(err)
	}
	if r.join(r.left, r.root) {
		t.Fatal("dropped a child whose object a sibling pinned")
	}
	if r.sp.Header(x).Pinned() || r.stats().Unpins != 1 {
		t.Fatal("the join to the pin's depth did not unpin")
	}
	r.mergedInto(t, x, r.root, 5)
}

// TestJoinKeepsChildThatWroteCrossPointer: storing its own object into a
// sibling's pins the object in the writer's heap.
func TestJoinKeepsChildThatWroteCrossPointer(t *testing.T) {
	r := newRig(Manage)
	o := r.rightAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(6))
	r.adopt(r.left, r.leftAl)
	if err := r.m.OnWrite(r.left, o, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(o, 0, x.Value())
	if r.join(r.left, r.root) {
		t.Fatal("dropped a child that published its object into a sibling")
	}
	r.mergedInto(t, x, r.root, 6)
}
