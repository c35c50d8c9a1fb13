package entangle

import (
	"testing"
	"time"

	"mplgo/internal/mem"
)

// The relaxed forwarding header (DESIGN.md §6 decision 7) is safe because
// every reader that can load a from-space header before its collection is
// published re-validates what it acts on. These tests stage, one clause
// each, what such a reader can see, and fail if the re-validation goes.

// copyOut moves x as a local collection of its heap would: the claim, the
// copy into a new to-space allocator for heap, the forwarding header. It
// returns the copy and the allocator.
func copyOut(t *testing.T, sp *mem.Space, heap uint32, x mem.Ref) (mem.Ref, *mem.Allocator) {
	t.Helper()
	c := sp.ChunkOf(x)
	hd, ok := c.BeginCopy(x.Off())
	if !ok {
		t.Fatalf("BeginCopy(%v) refused: %#x", x, uint64(hd))
	}
	to := mem.NewAllocator(sp, heap)
	return to.CopyIn(c, x.Off(), hd), to
}

// The already-pinned fast path, on a stale reader of a recycled chunk: the
// reader loaded x before a collection of x's heap moved it, redirected the
// field and released x's chunk, and a later to-space tenant took that chunk
// and put a pinned object at x's address. The header passes the
// fast path's test; only its re-read of the field sends the reader to the
// copy. Without the re-read OnRead returns the stale x.
func TestFastPathRereadsFieldOfRecycledChunk(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	y := r.alloc(r.left).AllocTuple(mem.Int(8))

	moved, _ := copyOut(t, r.sp, r.left.ID, x)
	r.sp.Store(holder, 0, moved.Value())
	r.sp.Release(r.sp.ChunkOf(x))

	again, to := copyOut(t, r.sp, r.left.ID, y)
	if again != x {
		t.Fatalf("the to-space tenant put its copy at %v, not in the recycled slot %v", again, x)
	}
	r.adopt(r.left, to)
	r.sp.Pin(again, 0)
	r.sp.SetCandidate(again)

	v, err := r.m.OnRead(r.right, holder, 0, x.Value())
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref() != moved {
		t.Fatalf("OnRead returned %v, want the field's %v", v, moved)
	}
}

// The already-pinned fast path across a whole mutator tenancy: nothing
// clears a recycled chunk, so a word an earlier tenant wrote survives a
// later tenant for as long as that tenant's Alloc stays below it. The
// reader loaded x before a collection of x's heap moved it, redirected the
// field and released x's chunk; a tenant took the chunk and left at x's
// address a raw word that reads as a header pinned within the reader's LCA,
// and gave the chunk back; then a mutator tenant of x's heap took it and
// allocated one object, below x. The stale word passes the fast path's
// header test; only its re-read of the field sends the reader to the copy.
// Without the re-read OnRead returns the stale x.
func TestFastPathRereadsFieldAcrossMutatorTenancy(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	r.leftAl.AllocArray(8, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	moved, _ := copyOut(t, r.sp, r.left.ID, x)
	r.sp.Store(holder, 0, moved.Value())
	r.sp.Release(r.sp.ChunkOf(x))

	p := r.rootAl.AllocTuple(mem.Int(1))
	r.sp.Pin(p, 0)
	raw := r.alloc(r.root).Alloc(mem.KRaw, x.Off()+1)
	if raw.Chunk() != x.Chunk() {
		t.Fatalf("the raw tenant took chunk %d, not the recycled chunk %d", raw.Chunk(), x.Chunk())
	}
	r.sp.StoreRaw(raw, x.Off()-1, uint64(r.sp.Header(p)))
	r.sp.Release(r.sp.ChunkOf(raw))

	al := r.alloc(r.left)
	y := al.AllocTuple(mem.Int(8))
	r.adopt(r.left, al)
	if c := r.sp.ChunkOf(y); c.ID != x.Chunk() || c.Alloc > x.Off() {
		t.Fatalf("the mutator tenant has chunk %d up to %d, want chunk %d below %d", c.ID, c.Alloc, x.Chunk(), x.Off())
	}

	v, err := r.m.OnRead(r.right, holder, 0, x.Value())
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref() != moved {
		t.Fatalf("OnRead returned %v, want the field's %v", v, moved)
	}
}

// The chase after ExitReader: a reader that found the target forwarded
// follows the forwarding pointer, which — the header being a relaxed store,
// or the chunk recycled — may not be the copy. Here it names an object on
// the reader's own path, the one exit that does not compare the value with
// the field, until a collection redirects the field to the real copy.
// Without the chased-pointer re-validation OnRead returns the stray object.
func TestOnReadRevalidatesChasedPointer(t *testing.T) {
	r := newRig(Manage)
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7))
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	stray := r.rightAl.AllocTuple(mem.Int(9))
	r.sp.Forward(x, stray)
	moved := r.leftAl.AllocTuple(mem.Int(7))

	done := make(chan mem.Value, 1)
	go func() {
		v, err := r.m.OnRead(r.right, holder, 0, x.Value())
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	time.Sleep(20 * time.Millisecond)
	r.sp.Store(holder, 0, moved.Value())
	select {
	case v := <-done:
		if v.Ref() != moved {
			t.Fatalf("OnRead returned %v, want the field's %v (the stray object is %v)", v, moved, stray)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnRead did not return once the field named the copy")
	}
}

// An entangled write of a value its owner's collection has just moved: the
// writer holds the old address, so the pin finds the forwarding header in
// the old chunk, chases it, and must pin the copy through the copy's own
// chunk. Without the re-resolution the pin CAS lands on the old chunk's
// word at the copy's offset and the copy stays unpinned.
func TestEntangledWritePinsChasedCopy(t *testing.T) {
	r := newRig(Manage)
	o := r.leftAl.AllocArray(1, mem.Nil)
	y := r.rightAl.AllocTuple(mem.Int(9))
	moved, _ := copyOut(t, r.sp, r.right.ID, y)

	done := make(chan error, 1)
	go func() { done <- r.m.OnWrite(r.right, o, 0, y) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the pin did not take: the chase keeps finding a word that is not the copy's header")
	}
	if h := r.sp.Header(moved); !h.Pinned() || h.UnpinDepth() != 0 {
		t.Fatalf("the copy's header %#x: want it pinned at depth 0", uint64(h))
	}
	pinned := 0
	r.right.ForEachPinned(func(p mem.Ref) {
		if p != moved {
			t.Errorf("right's pinned set holds %v, want only the copy %v", p, moved)
		}
		pinned++
	})
	if pinned != 1 {
		t.Fatalf("right's pinned set holds %d entries, want 1", pinned)
	}
	r.stats()
	if p := r.m.Stats.PinCAS(); p.Forwarded != 1 || p.New != 1 {
		t.Fatalf("pin outcomes %+v, want one forwarded and one new", p)
	}
}
