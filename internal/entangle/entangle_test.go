package entangle

import (
	"errors"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// rig builds a hierarchy with root → {left, right} and an allocator per heap.
type rig struct {
	sp                *mem.Space
	tr                *hierarchy.Tree
	m                 *Manager
	root, left, right *hierarchy.Heap
	rootAl, leftAl    *mem.Allocator
	rightAl           *mem.Allocator
}

func newRig(mode Mode) *rig {
	r := &rig{sp: mem.NewSpace(), tr: hierarchy.New()}
	r.m = New(r.sp, r.tr, mode)
	r.root = r.tr.Root()
	r.left = r.tr.Fork(r.root)
	r.right = r.tr.Fork(r.root)
	r.rootAl = r.alloc(r.root)
	r.leftAl = r.alloc(r.left)
	r.rightAl = r.alloc(r.right)
	return r
}

func (r *rig) alloc(h *hierarchy.Heap) *mem.Allocator {
	a := mem.NewAllocator(r.sp, h.ID)
	return a
}

func (r *rig) adopt(h *hierarchy.Heap, a *mem.Allocator) {
	h.Chunks = append(h.Chunks, a.Chunks...)
	a.Chunks = nil
}

// stats drains the rig's heaps, as their tasks' ends would, and snapshots.
func (r *rig) stats() StatsSnapshot {
	for _, h := range r.tr.Live() {
		r.m.Drain(h)
	}
	return r.m.Stats.Snapshot()
}

func TestUpPointerIsFree(t *testing.T) {
	r := newRig(Manage)
	anc := r.rootAl.AllocRef(mem.Nil)      // ancestor object
	arr := r.leftAl.AllocArray(2, mem.Nil) // deeper holder
	if err := r.m.OnWrite(r.left, arr, 0, anc); err != nil {
		t.Fatal(err)
	}
	if r.sp.Header(arr).Candidate() || r.sp.Header(anc).Candidate() {
		t.Fatal("up-pointer must not create candidates")
	}
	s := r.stats()
	if s.DownPointers != 0 || s.Pins != 0 {
		t.Fatalf("up-pointer produced bookkeeping: %+v", s)
	}
}

// items copies a list out for assertions.
func items[T any](l *hierarchy.List[T]) []T {
	var out []T
	l.Each(func(v T) { out = append(out, v) })
	return out
}

func TestDownPointerWrite(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(2, mem.Nil) // shallow mutable holder
	x := r.leftAl.AllocTuple(mem.Int(5))      // deeper target
	if err := r.m.OnWrite(r.left, holder, 1, x); err != nil {
		t.Fatal(err)
	}
	if !r.sp.Header(holder).Candidate() {
		t.Fatal("down-pointer must mark the holder candidate")
	}
	if r.sp.Header(x).Pinned() {
		t.Fatal("down-pointer alone must not pin (pinning is lazy, at reads)")
	}
	r.left.DrainBuffers() // published lock-free; fold into the owner view
	if got := items(&r.left.Remset); len(got) != 1 || got[0].Holder != holder || got[0].Index != 1 {
		t.Fatalf("remset = %+v", got)
	}
	s := r.stats()
	if s.DownPointers != 1 || s.Candidates != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Down-pointer write is idempotent on the candidate bit.
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	if got := r.stats().Candidates; got != 1 {
		t.Fatalf("Candidates after second write = %d", got)
	}
}

func TestDisentangledReadNoPin(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(1))
	// left writes a down-pointer, then left itself reads it back:
	// the target is on left's own path → disentangled.
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	v, err := r.m.OnRead(r.left, holder, 0, x.Value())
	if err != nil || v.Ref() != x {
		t.Fatalf("OnRead = %v, %v", v, err)
	}
	if r.sp.Header(x).Pinned() {
		t.Fatal("read of own-path object must not pin")
	}
	if r.stats().EntangledReads != 0 {
		t.Fatal("disentangled read counted as entangled")
	}
}

func TestEntangledReadPins(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())

	// right reads the down-pointer: x is in a concurrent heap → entangled.
	v, err := r.m.OnRead(r.right, holder, 0, x.Value())
	if err != nil || v.Ref() != x {
		t.Fatalf("OnRead = %v, %v", v, err)
	}
	h := r.sp.Header(x)
	if !h.Pinned() {
		t.Fatal("entangled read must pin the target")
	}
	// LCA(right, left) = root, depth 0.
	if h.UnpinDepth() != 0 {
		t.Fatalf("unpin depth = %d, want 0", h.UnpinDepth())
	}
	if !h.Candidate() {
		t.Fatal("acquired object must become candidate")
	}
	r.left.DrainBuffers() // published lock-free; fold into the owner view
	if got := items(&r.left.Pinned); len(got) != 1 || got[0] != x {
		t.Fatalf("pinned list = %v", got)
	}
	s := r.stats()
	if s.EntangledReads != 1 || s.Pins != 1 || s.PinnedPeak != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// A second entangled read of the same object re-counts the read but
	// does not re-pin.
	if _, err := r.m.OnRead(r.right, holder, 0, x.Value()); err != nil {
		t.Fatal(err)
	}
	s = r.stats()
	if s.EntangledReads != 2 || s.Pins != 1 {
		t.Fatalf("stats after re-read = %+v", s)
	}
}

func TestEntangledReadDeeperLCA(t *testing.T) {
	// Entanglement between two grandchildren under the same child must
	// unpin at that child's depth, not at the root.
	r := newRig(Manage)
	ll := r.tr.Fork(r.left) // depth 2
	lr := r.tr.Fork(r.left) // depth 2
	llAl := r.alloc(ll)

	holder := r.leftAl.AllocArray(1, mem.Nil) // depth-1 holder
	x := llAl.AllocTuple(mem.Int(3))          // depth-2 target
	if err := r.m.OnWrite(ll, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())

	if _, err := r.m.OnRead(lr, holder, 0, x.Value()); err != nil {
		t.Fatal(err)
	}
	if got := r.sp.Header(x).UnpinDepth(); got != 1 {
		t.Fatalf("unpin depth = %d, want 1 (LCA is left, depth 1)", got)
	}
}

func TestDetectModeAborts(t *testing.T) {
	r := newRig(Detect)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	// Down-pointer writes are legal under disentanglement.
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatalf("down-pointer write must not abort: %v", err)
	}
	r.sp.Store(holder, 0, x.Value())
	// The concurrent read is the entanglement: detect mode reports it.
	_, err := r.m.OnRead(r.right, holder, 0, x.Value())
	if !errors.Is(err, ErrEntangled) {
		t.Fatalf("err = %v, want ErrEntangled", err)
	}
	// Detect mode still pins for memory safety while the abort propagates
	// cooperatively.
	if !r.sp.Header(x).Pinned() {
		t.Fatal("detect mode must pin while unwinding")
	}
}

func TestEntangledWritePins(t *testing.T) {
	r := newRig(Manage)
	// right somehow holds an object of left's (entangled object o) and
	// writes its own y into it: y must be pinned immediately.
	o := r.leftAl.AllocArray(1, mem.Nil)
	y := r.rightAl.AllocTuple(mem.Int(9))
	if err := r.m.OnWrite(r.right, o, 0, y); err != nil {
		t.Fatal(err)
	}
	h := r.sp.Header(y)
	if !h.Pinned() || !h.Candidate() {
		t.Fatal("entangled write must pin and mark the stored object")
	}
	if h.UnpinDepth() != 0 {
		t.Fatalf("unpin depth = %d, want 0", h.UnpinDepth())
	}
	s := r.stats()
	if s.EntangledWrites != 1 || s.Pins != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEntangledWriteDetectAborts(t *testing.T) {
	r := newRig(Detect)
	o := r.leftAl.AllocArray(1, mem.Nil)
	y := r.rightAl.AllocTuple(mem.Int(9))
	if err := r.m.OnWrite(r.right, o, 0, y); !errors.Is(err, ErrEntangled) {
		t.Fatalf("err = %v, want ErrEntangled", err)
	}
}

func TestOnJoinUnpins(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	r.adopt(r.left, r.leftAl)
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	if _, err := r.m.OnRead(r.right, holder, 0, x.Value()); err != nil {
		t.Fatal(err)
	}
	if !r.sp.Header(x).Pinned() {
		t.Fatal("setup: not pinned")
	}

	// left joins root: unpin depth 0 is reached.
	r.m.OnJoin(r.left, r.root)
	if r.sp.Header(x).Pinned() {
		t.Fatal("join to the LCA must unpin")
	}
	s := r.stats()
	if s.Unpins != 1 {
		t.Fatalf("Unpins = %d", s.Unpins)
	}
	if r.stats().PinnedNow != 0 {
		t.Fatal("pinned gauge not decremented")
	}
	if r.sp.ChunkOf(x).HeapID() != r.root.ID {
		t.Fatal("merge did not move x's chunk to root")
	}
}

func TestModeString(t *testing.T) {
	if Manage.String() != "manage" || Detect.String() != "detect" || Unsafe.String() != "unsafe" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "invalid" {
		t.Fatal("invalid mode name")
	}
}

func TestOnReadRetryAfterFieldUpdate(t *testing.T) {
	// If the field changed between the caller's load and the barrier's
	// validation (as a local collection would do), OnRead must use the
	// current value.
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x1 := r.leftAl.AllocTuple(mem.Int(1))
	x2 := r.leftAl.AllocTuple(mem.Int(2))
	if err := r.m.OnWrite(r.left, holder, 0, x1); err != nil {
		t.Fatal(err)
	}
	// The field currently holds x2, but the reader loaded the stale x1.
	r.sp.Store(holder, 0, x2.Value())
	v, err := r.m.OnRead(r.right, holder, 0, x1.Value())
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref() != x2 {
		t.Fatalf("OnRead returned stale value %v, want %v", v, x2)
	}
	if !r.sp.Header(x2).Pinned() || r.sp.Header(x1).Pinned() {
		t.Fatal("pinning applied to the wrong object")
	}
}
