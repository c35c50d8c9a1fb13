package hierarchy

// Differential and property tests for the fork-path ancestry oracle. The
// naive parent walk below is the reference: parent pointers and depths are
// immutable after Fork, so it answers from any goroutine at any time. The
// schedules are the ones that stress the fork paths — deep spines that
// spill past the 128-bit inline word, PathSpill chaos forcing spilled paths
// at shallow depths, wide fans, concurrent forks, and merges interleaved
// with the queries (a merged heap's path must keep answering).

import (
	"math/rand"
	"sync"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// walkIsAncestor is the naive oracle: walk d's immutable parent chain.
func walkIsAncestor(a, d *Heap) bool {
	for x := d; x != nil; x = x.parent {
		if x == a {
			return true
		}
	}
	return false
}

// walkLCA is the naive oracle: lift both nodes to equal depth, then lift in
// lockstep.
func walkLCA(a, b *Heap) *Heap {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a != b {
		a, b = a.parent, b.parent
	}
	return a
}

// growTree extends heaps in-place by n forks of the given shape and returns
// the grown slice. Shapes: "spine" chains from the last heap (deep trees,
// natural inline→vector spill past 128 path bits), "wide" fans out from the
// root region (shallow trees, long sibling runs), "uniform" picks parents
// uniformly. Merged heaps are never picked as parents.
func growTree(tr *Tree, rng *rand.Rand, heaps []*Heap, n int, shape string) []*Heap {
	for i := 0; i < n; i++ {
		var p *Heap
		for p == nil || p.Dead() {
			switch shape {
			case "spine":
				p = heaps[len(heaps)-1]
				for p.Dead() {
					p = p.parent
				}
			case "wide":
				p = heaps[rng.Intn(min(8, len(heaps)))]
			default:
				p = heaps[rng.Intn(len(heaps))]
			}
		}
		heaps = append(heaps, tr.Fork(p))
	}
	return heaps
}

// mergeLeaves merges up to n randomly chosen childless, unmerged heaps of
// heaps (the root excepted) into their parents. The caller must own every
// parent it may merge into: the join is an owner-side operation.
func mergeLeaves(tr *Tree, rng *rand.Rand, sp *mem.Space, heaps []*Heap, n int) {
	for i := 0; i < n; i++ {
		h := heaps[rng.Intn(len(heaps))]
		if h.parent == nil || h.Dead() || h.LiveChildren() != 0 {
			continue
		}
		tr.Merge(h, h.parent, sp)
	}
}

// checkAgainstWalk asserts IsAncestor, LCA and LCADepth of (a, b) against
// the walk oracle, returning a description of the first divergence.
func checkAgainstWalk(tr *Tree, a, b *Heap) (ok bool, what string) {
	if got, want := tr.IsAncestor(a, b), walkIsAncestor(a, b); got != want {
		return false, "IsAncestor"
	}
	wl := walkLCA(a, b)
	if tr.LCA(a, b) != wl {
		return false, "LCA"
	}
	if tr.LCADepth(a, b) != wl.depth {
		return false, "LCADepth"
	}
	return true, ""
}

// TestAncestryDifferentialRandomTrees checks the fork-path oracle against
// the walk oracle over randomized trees of every shape, grown in rounds
// with merges between them. The spine shape grows past 128 path bits so
// the naturally spilled representation is compared too, and a PathSpill
// injector additionally forces spilled paths at shallow depths.
func TestAncestryDifferentialRandomTrees(t *testing.T) {
	for _, shape := range []string{"uniform", "spine", "wide"} {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			tr := New()
			tr.SetChaos(chaos.New(int64(trial+1), chaos.Options{PathSpill: 256}))
			sp := mem.NewSpace()
			n := 200
			if shape == "spine" {
				n = 400 // well past the 128-bit inline width
			}
			heaps := []*Heap{tr.Root()}
			for round := 0; round < 4; round++ {
				heaps = growTree(tr, rng, heaps, n/4, shape)
				mergeLeaves(tr, rng, sp, heaps, n/20)
				for q := 0; q < 1000; q++ {
					a := heaps[rng.Intn(len(heaps))]
					b := heaps[rng.Intn(len(heaps))]
					if ok, what := checkAgainstWalk(tr, a, b); !ok {
						t.Fatalf("%s/%d round %d: %s(%d,%d) diverges from the walk oracle (paths %s, %s)",
							shape, trial, round, what, a.ID, b.ID, a.path.String(), b.path.String())
					}
				}
			}
		}
	}
}

// TestAncestryDifferentialConcurrent runs forkers and queriers together
// (meaningful under -race): forkers grow deep spines and wide fans below
// their own child of the root, merging their own childless heaps back as
// they go, while queriers check all three queries against the walk oracle
// at heaps already published, merged ones included.
func TestAncestryDifferentialConcurrent(t *testing.T) {
	const forkers, queriers = 3, 4
	const forksEach = 300

	tr := New()
	tr.SetChaos(chaos.New(7, chaos.Options{PathSpill: 256}))

	// Each forker owns one child of the root and everything below it, so
	// its merges never touch a heap another goroutine joins into.
	tops := make([]*Heap, forkers)
	for g := range tops {
		tops[g] = tr.Fork(tr.Root())
	}
	var mu sync.Mutex
	published := append([]*Heap{tr.Root()}, tops...)
	snapshot := func(rng *rand.Rand) (*Heap, *Heap) {
		mu.Lock()
		a := published[rng.Intn(len(published))]
		b := published[rng.Intn(len(published))]
		mu.Unlock()
		return a, b
	}

	var forkWG, queryWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < forkers; g++ {
		forkWG.Add(1)
		go func(g int) {
			defer forkWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			sp := mem.NewSpace()
			local := []*Heap{tops[g]}
			shapes := []string{"spine", "wide", "uniform"}
			for i := 0; i < forksEach; i++ {
				local = growTree(tr, rng, local, 1, shapes[g%len(shapes)])
				mu.Lock()
				published = append(published, local[len(local)-1])
				mu.Unlock()
				if i%5 == 4 {
					// Never merge the subtree top: its parent is the shared root.
					mergeLeaves(tr, rng, sp, local[1:], 1)
				}
			}
		}(g)
	}
	for g := 0; g < queriers; g++ {
		queryWG.Add(1)
		go func(g int) {
			defer queryWG.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			// Query first, check stop after: on a single-core host a
			// querier may be scheduled for the first time only after the
			// forkers finish, and it must still contribute at least one
			// differential query before exiting.
			for done := false; !done; {
				select {
				case <-stop:
					done = true
				default:
				}
				a, b := snapshot(rng)
				if ok, what := checkAgainstWalk(tr, a, b); !ok {
					panic("concurrent differential: " + what + " diverged from walk oracle")
				}
			}
		}(g)
	}

	// Queriers run for the full span of the forking, then are released.
	forkWG.Wait()
	close(stop)
	queryWG.Wait()
}

// TestUnpinDepthCache checks the two-entry cache returns oracle answers
// across key changes, that a hit really skips the oracle (via the leaf's
// query tally, which only a miss bumps), that two keys asked in turn cost
// one query each however often they alternate, and that a third key evicts
// the older of the two.
func TestUnpinDepthCache(t *testing.T) {
	tr := New()
	root := tr.Root()
	a := tr.Fork(root)
	b := tr.Fork(root)
	aa := tr.Fork(a)
	queries := func() int64 { return aa.Tally[trace.AncestryQueries] }
	ask := func(x *Heap, want int) {
		t.Helper()
		if got := tr.UnpinDepth(aa, x); got != want {
			t.Fatalf("UnpinDepth(aa,%d) = %d, want %d", x.ID, got, want)
		}
	}

	ask(b, 0)
	if q := queries(); q != 1 {
		t.Fatalf("first lookup tallied %d queries, want 1", q)
	}
	ask(b, 0)
	if q := queries(); q != 1 {
		t.Fatalf("cache hit still consulted the oracle (%d queries)", q)
	}
	// A second key takes the second entry; alternating the two, as a loop
	// that reads through one heap and stores into another does, costs
	// nothing more.
	for k := 0; k < 5; k++ {
		ask(a, 1)
		ask(b, 0)
	}
	if q := queries(); q != 2 {
		t.Fatalf("two alternating keys tallied %d queries, want 2", q)
	}
	// A third key evicts the older entry, b, cached first: a hit reorders
	// nothing, so asking b last did not make it the newer one.
	ask(root, 0)
	if q := queries(); q != 3 {
		t.Fatalf("a third key tallied %d queries in all, want 3", q)
	}
	ask(a, 1)
	if q := queries(); q != 3 {
		t.Fatalf("the newer entry was evicted by a third key (%d queries)", q)
	}
	ask(b, 0)
	if q := queries(); q != 4 {
		t.Fatalf("the older entry survived a third key (%d queries, want 4)", q)
	}
}

// TestRelateMatchesWalkOracle checks both halves of the cached answer — the
// LCA depth and the is-ancestor verdict — against the naive parent-walk
// oracle, with keys repeated (hits), alternated (hits on the second entry,
// and evictions once a third key comes) and equal to the leaf; then again after every key heap that can merge has merged away:
// an entry is keyed on the heap itself, whose ancestry no merge changes, so
// the answers must not move and the entries cached before the merges must
// still be served.
func TestRelateMatchesWalkOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr := New()
	tr.SetChaos(chaos.New(77, chaos.Options{PathSpill: 256}))
	heaps := growTree(tr, rng, []*Heap{tr.Root()}, 120, "uniform")
	heaps = growTree(tr, rng, heaps, 160, "spine") // a tail past the inline width
	check := func(leaf, x *Heap) {
		t.Helper()
		d, anc := tr.Relate(leaf, x)
		if wd, wa := walkLCA(leaf, x).depth, walkIsAncestor(x, leaf); d != wd || anc != wa {
			t.Fatalf("Relate(%d,%d) = (%d,%v), walk oracle says (%d,%v)",
				leaf.ID, x.ID, d, anc, wd, wa)
		}
		if got := tr.UnpinDepth(leaf, x); got != d {
			t.Fatalf("UnpinDepth(%d,%d) = %d after Relate said %d", leaf.ID, x.ID, got, d)
		}
	}
	sweep := func() {
		for q := 0; q < 3000; q++ {
			leaf := heaps[rng.Intn(len(heaps))]
			x := heaps[rng.Intn(len(heaps))]
			check(leaf, x)
			check(leaf, x) // hit
			check(leaf, leaf)
			check(leaf, x) // the second entry, behind the leaf's own
			if x.parent != nil {
				check(x, x.parent) // a proper ancestor: the verdict must be true
			}
		}
	}
	sweep()

	// Pin one entry per heap, then merge every childless heap into its
	// parent, deepest first, until only the root is left.
	keys := make(map[*Heap]*Heap)
	for _, h := range heaps {
		keys[h] = heaps[rng.Intn(len(heaps))]
		tr.Relate(h, keys[h])
	}
	sp := mem.NewSpace()
	for i := len(heaps) - 1; i > 0; i-- { // children are forked after parents
		tr.Merge(heaps[i], heaps[i].parent, sp)
	}
	for h, x := range keys {
		before := h.Tally[trace.AncestryQueries]
		check(h, x)
		if h.Tally[trace.AncestryQueries] != before {
			t.Fatalf("entry (%d,%d) cached before the merges was not served", h.ID, x.ID)
		}
	}
	sweep() // a merged heap's path still answers
}
