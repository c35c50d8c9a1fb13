package hierarchy

import (
	"math/rand"
	"testing"
	"unsafe"

	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

func TestForkStructure(t *testing.T) {
	tr := New()
	root := tr.Root()
	if root.Depth() != 0 || root.Parent() != nil {
		t.Fatal("root malformed")
	}
	c1 := tr.Fork(root)
	c2 := tr.Fork(root)
	if c1.Depth() != 1 || c2.Depth() != 1 {
		t.Fatal("child depth wrong")
	}
	if c1.Parent() != root || c2.Parent() != root {
		t.Fatal("child parent wrong")
	}
	if root.LiveChildren() != 2 {
		t.Fatalf("LiveChildren = %d", root.LiveChildren())
	}
	if tr.Get(c1.ID) != c1 || tr.Get(root.ID) != root {
		t.Fatal("Get by id broken")
	}
	if tr.Count() != 3 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

func TestIsAncestor(t *testing.T) {
	tr := New()
	root := tr.Root()
	a := tr.Fork(root)
	b := tr.Fork(root)
	aa := tr.Fork(a)
	ab := tr.Fork(a)
	aaa := tr.Fork(aa)

	cases := []struct {
		anc, desc *Heap
		want      bool
	}{
		{root, root, true}, {root, a, true}, {root, aaa, true},
		{a, aa, true}, {a, ab, true}, {a, aaa, true}, {aa, aaa, true},
		{a, b, false}, {b, a, false}, {aa, ab, false}, {ab, aaa, false},
		{aaa, a, false}, {a, root, false}, {b, aaa, false},
	}
	for _, c := range cases {
		if got := tr.IsAncestor(c.anc, c.desc); got != c.want {
			t.Fatalf("IsAncestor(%d,%d) = %v, want %v", c.anc.ID, c.desc.ID, got, c.want)
		}
		if got := walkIsAncestor(c.anc, c.desc); got != c.want {
			t.Fatalf("walk oracle IsAncestor(%d,%d) = %v, want %v", c.anc.ID, c.desc.ID, got, c.want)
		}
	}
}

// TestAncestorModesAgreeRandom checks the fork-path prefix test against the
// naive parent walk on a random tree.
func TestAncestorModesAgreeRandom(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(3))
	heaps := []*Heap{tr.Root()}
	for i := 0; i < 300; i++ {
		heaps = append(heaps, tr.Fork(heaps[rng.Intn(len(heaps))]))
	}
	for trial := 0; trial < 10000; trial++ {
		a := heaps[rng.Intn(len(heaps))]
		d := heaps[rng.Intn(len(heaps))]
		if fp, walk := tr.IsAncestor(a, d), walkIsAncestor(a, d); fp != walk {
			t.Fatalf("ancestor modes disagree for (%d,%d): forkpath=%v walk=%v", a.ID, d.ID, fp, walk)
		}
	}
}

func TestLCA(t *testing.T) {
	tr := New()
	root := tr.Root()
	a := tr.Fork(root)
	b := tr.Fork(root)
	aa := tr.Fork(a)
	ab := tr.Fork(a)
	if tr.LCA(aa, ab) != a {
		t.Fatal("LCA(aa,ab) != a")
	}
	if tr.LCA(aa, b) != root {
		t.Fatal("LCA(aa,b) != root")
	}
	if tr.LCA(aa, aa) != aa {
		t.Fatal("LCA(x,x) != x")
	}
	if tr.LCA(a, aa) != a || tr.LCA(aa, a) != a {
		t.Fatal("LCA with ancestor broken")
	}
}

func TestMergeMovesChunksAndRemset(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	tr.Bind(sp)
	root := tr.Root()
	child := tr.Fork(root)

	al := mem.NewAllocator(sp, child.ID)
	r := al.AllocTuple(mem.Int(1))
	child.Chunks = append(child.Chunks, al.Chunks...)
	child.AddRemembered(r, 0)

	if sp.ChunkOf(r).HeapID() != child.ID || OwnerOf(sp.ChunkOf(r)) != child {
		t.Fatal("setup: wrong owner")
	}
	tr.Merge(child, root, sp)
	if sp.ChunkOf(r).HeapID() != root.ID || OwnerOf(sp.ChunkOf(r)) != root {
		t.Fatal("merge did not reassign chunk ownership")
	}
	if got := items(&root.Remset); len(root.Chunks) != 1 || len(got) != 1 || got[0] != (RememberedEntry{r, 0}) {
		t.Fatalf("merge did not move lists: chunks=%d remset=%v", len(root.Chunks), got)
	}
	if child.Remset.Len() != 0 {
		t.Fatalf("merged child keeps %d remembered entries", child.Remset.Len())
	}
	if !child.Dead() {
		t.Fatal("merged child not marked dead")
	}
	if root.LiveChildren() != 0 {
		t.Fatal("LiveChildren not decremented")
	}
}

func TestMergeUnpinsAtDepth(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	root := tr.Root()
	mid := tr.Fork(root) // depth 1
	leaf := tr.Fork(mid) // depth 2

	al := mem.NewAllocator(sp, leaf.ID)
	deepPin := al.AllocRef(mem.Int(1))    // unpins at depth 1
	shallowPin := al.AllocRef(mem.Int(2)) // unpins at depth 0
	leaf.Chunks = append(leaf.Chunks, al.Chunks...)

	sp.Pin(deepPin, 1)
	sp.Pin(shallowPin, 0)
	leaf.AddPinned(deepPin)
	leaf.AddPinned(shallowPin)

	// Merging leaf (2) into mid (1): deepPin's unpin depth (1) >= 1 → unpin;
	// shallowPin (0) stays pinned and moves to mid's list.
	n, words := tr.Merge(leaf, mid, sp)
	if n != 1 {
		t.Fatalf("unpinned = %d, want 1", n)
	}
	if words != 2 { // ref cell: header + one payload word
		t.Fatalf("unpinned words = %d, want 2", words)
	}
	if sp.Header(deepPin).Pinned() {
		t.Fatal("deepPin still pinned after reaching its unpin depth")
	}
	if !sp.Header(shallowPin).Pinned() {
		t.Fatal("shallowPin unpinned too early")
	}
	if got := items(&mid.Pinned); len(got) != 1 || got[0] != shallowPin {
		t.Fatalf("pinned list not transferred: %v", got)
	}

	// Final merge to root unpins the rest.
	n, _ = tr.Merge(mid, root, sp)
	if n != 1 || sp.Header(shallowPin).Pinned() {
		t.Fatal("second merge failed to unpin")
	}
}

// TestMergeRepinAboveJoin covers the merge's re-pin path deterministically:
// an entangled reader lowered an object's unpin depth below the join point
// before the join ran, so the merge must keep the pin and move the entry to
// the parent's list rather than unpin at the depth the pin was born with.
func TestMergeRepinAboveJoin(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	root := tr.Root()
	mid := tr.Fork(root) // depth 1
	leaf := tr.Fork(mid) // depth 2

	al := mem.NewAllocator(sp, leaf.ID)
	r := al.AllocRef(mem.Int(7))
	leaf.Chunks = append(leaf.Chunks, al.Chunks...)

	sp.Pin(r, 1) // would unpin at the leaf→mid join...
	leaf.AddPinned(r)
	// ...but a reader re-pinned it for an entanglement that only resolves at
	// the root join, lowering the unpin depth to 0.
	if st, _, _ := sp.PinHeader(r, 0); st != mem.PinDepthLowered {
		t.Fatalf("PinHeader = %v, want PinDepthLowered", st)
	}

	n, _ := tr.Merge(leaf, mid, sp)
	if n != 0 {
		t.Fatalf("unpinned %d objects, want 0 (re-pinned above join)", n)
	}
	if !sp.Header(r).Pinned() {
		t.Fatal("merge revoked a pin re-pinned above the join point")
	}
	if got := items(&mid.Pinned); len(got) != 1 || got[0] != r {
		t.Fatalf("re-pinned entry not moved to parent: %v", got)
	}

	// The root join reaches the lowered depth and finally unpins.
	if n, _ = tr.Merge(mid, root, sp); n != 1 || sp.Header(r).Pinned() {
		t.Fatal("root join failed to unpin the re-pinned object")
	}
}

// TestMergeRepinRace stresses the snapshot-CAS in the merge's unpin loop: a
// reader's re-pin landing between the merge's header examination and its
// TryUnpin must make the CAS fail, so the loop re-examines and keeps the
// pin — a join can never revoke a pin it has not seen. Whichever side of
// the race the re-pin lands on, the object must end the merge pinned and
// accounted for: in the parent's list if the merge saw it, or as a fresh
// pin (PinNew) the reader itself is responsible for publishing.
func TestMergeRepinRace(t *testing.T) {
	const iters = 300
	for iter := 0; iter < iters; iter++ {
		tr := New()
		sp := mem.NewSpace()
		root := tr.Root()
		mid := tr.Fork(root) // depth 1
		leaf := tr.Fork(mid) // depth 2

		// Filler pins around the contended object give the unpin loop a
		// window for the racing re-pin to land in.
		al := mem.NewAllocator(sp, leaf.ID)
		var r mem.Ref
		for i := 0; i < 33; i++ {
			p := al.AllocRef(mem.Int(int64(i)))
			sp.Pin(p, 1)
			leaf.AddPinned(p)
			if i == 16 {
				r = p
			}
		}
		leaf.Chunks = append(leaf.Chunks, al.Chunks...)

		var st mem.PinStatus
		done := make(chan struct{})
		go func() {
			defer close(done)
			st, _, _ = sp.PinHeader(r, 0) // entangled reader re-pins mid-join
		}()
		tr.Merge(leaf, mid, sp)
		<-done

		if !sp.Header(r).Pinned() {
			t.Fatalf("iter %d: pin revoked unseen (status %v)", iter, st)
		}
		inParent := false
		for _, p := range items(&mid.Pinned) {
			if p == r {
				inParent = true
			}
		}
		switch st {
		case mem.PinDepthLowered:
			// The merge observed the lowered depth (directly or after a
			// failed TryUnpin) and must have moved the entry up.
			if !inParent {
				t.Fatalf("iter %d: re-pinned object missing from parent's pinned list", iter)
			}
		case mem.PinNew:
			// The re-pin landed after a completed unpin; the reader knows it
			// created the pin and publishes it itself, so the merge owes
			// nothing.
		default:
			t.Fatalf("iter %d: unexpected pin status %v", iter, st)
		}
	}
}

func TestMergeNonChildPanics(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	a := tr.Fork(tr.Root())
	b := tr.Fork(tr.Root())
	defer func() {
		if recover() == nil {
			t.Fatal("merging non-child must panic")
		}
	}()
	tr.Merge(a, b, sp)
}

type fakeRoots struct{ refs []mem.Value }

func (f *fakeRoots) Roots(visit func(*mem.Value)) {
	for i := range f.refs {
		visit(&f.refs[i])
	}
}

func TestRootSetAttachment(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	root := tr.Root()
	child := tr.Fork(root)
	rs := &fakeRoots{}
	child.AddRootSet(rs)
	if len(child.RootSets) != 1 {
		t.Fatal("AddRootSet failed")
	}
	// Merge carries root sets upward.
	tr.Merge(child, root, sp)
	if len(root.RootSets) != 1 {
		t.Fatal("merge dropped root sets")
	}
	root.RemoveRootSet(rs)
	if len(root.RootSets) != 0 {
		t.Fatal("RemoveRootSet failed")
	}
}

func TestConcurrentForks(t *testing.T) {
	tr := New()
	root := tr.Root()
	done := make(chan []*Heap, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var mine []*Heap
			h := tr.Fork(root)
			for i := 0; i < 100; i++ {
				h = tr.Fork(h)
				mine = append(mine, h)
			}
			done <- mine
		}()
	}
	var chains [][]*Heap
	for g := 0; g < 4; g++ {
		chains = append(chains, <-done)
	}
	// Each chain is internally ancestral; chains are mutually concurrent.
	for _, ch := range chains {
		for i := 1; i < len(ch); i++ {
			if !tr.IsAncestor(ch[i-1], ch[i]) {
				t.Fatal("chain ancestry broken under concurrent forks")
			}
		}
	}
	if tr.IsAncestor(chains[0][0], chains[1][0]) {
		t.Fatal("separate chains must not be ancestral")
	}
}

// TestHeapLayout pins where a Heap's hot words sit: a Heap is allocated per
// fork, and 424 bytes is in Go's 448-byte size class, so a field that grows
// it past 448 — a tally slot per direct row of trace.Counts, say — costs
// every fork a bigger object. The tally holds the tallied rows only.
func TestHeapLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit targets")
	}
	var h Heap
	if got := unsafe.Sizeof(h); got != 424 {
		t.Errorf("Heap is %d bytes, want 424", got)
	}
	if got := unsafe.Offsetof(h.Tally); got != 112 {
		t.Errorf("Tally at offset %d, want 112", got)
	}
	if got := unsafe.Sizeof(h.Tally); got != 8*uintptr(trace.NumTallied) {
		t.Errorf("Tally is %d bytes for %d tallied rows", got, trace.NumTallied)
	}
	if got := unsafe.Offsetof(h.Gate); got != 248 {
		t.Errorf("Gate at offset %d, want 248", got)
	}
}
