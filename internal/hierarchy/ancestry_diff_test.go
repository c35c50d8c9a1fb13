package hierarchy

// Differential and property tests for the ancestry oracles. Trees are built
// in AncestryBoth mode, so every IsAncestor/LCA call already runs the
// fork-path and legacy order-list oracles against each other and panics on
// divergence; the tests below add the third leg — a naive parent-walk
// oracle — and the schedules (deep spines, wide fanout, forced spills,
// concurrent forks) under which the retired seqlock protocol historically
// earned its retries.

import (
	"math/rand"
	"sync"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/internal/mem"
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
// lockstep. Parent pointers and depths are immutable after Fork, so this is
// safe from any goroutine at any time.
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
// uniformly.
func growTree(tr *Tree, rng *rand.Rand, heaps []*Heap, n int, shape string) []*Heap {
	for i := 0; i < n; i++ {
		var p *Heap
		switch shape {
		case "spine":
			p = heaps[len(heaps)-1]
		case "wide":
			p = heaps[rng.Intn(min(8, len(heaps)))]
		default:
			p = heaps[rng.Intn(len(heaps))]
		}
		heaps = append(heaps, tr.Fork(p))
	}
	return heaps
}

// TestAncestryDifferentialRandomTrees cross-checks all three oracles over
// randomized trees of every shape. The spine shape grows past 128 path bits
// so the spilled fork-path representation is compared too, and a PathSpill
// injector additionally forces spilled paths at shallow depths.
func TestAncestryDifferentialRandomTrees(t *testing.T) {
	for _, shape := range []string{"uniform", "spine", "wide"} {
		for trial := 0; trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			tr := NewWithAncestry(AncestryBoth)
			tr.SetChaos(chaos.New(int64(trial+1), chaos.Options{PathSpill: 256}))
			n := 200
			if shape == "spine" {
				n = 400 // well past the 128-bit inline width
			}
			heaps := growTree(tr, rng, []*Heap{tr.Root()}, n, shape)
			for q := 0; q < 4000; q++ {
				a := heaps[rng.Intn(len(heaps))]
				b := heaps[rng.Intn(len(heaps))]
				// AncestryBoth cross-checks forkpath against the legacy list
				// inside each call; we assert against the walk oracle.
				if got, want := tr.IsAncestor(a, b), walkIsAncestor(a, b); got != want {
					t.Fatalf("%s/%d: IsAncestor(%d,%d) = %v, walk oracle says %v (paths %s, %s)",
						shape, trial, a.ID, b.ID, got, want, a.path.String(), b.path.String())
				}
				wl := walkLCA(a, b)
				if got := tr.LCA(a, b); got != wl {
					t.Fatalf("%s/%d: LCA(%d,%d) = %d, walk oracle says %d",
						shape, trial, a.ID, b.ID, got.ID, wl.ID)
				}
				if got := tr.LCADepth(a, b); got != wl.depth {
					t.Fatalf("%s/%d: LCADepth(%d,%d) = %d, walk oracle says %d",
						shape, trial, a.ID, b.ID, got, wl.depth)
				}
			}
		}
	}
}

// TestAncestryDifferentialConcurrent runs forkers and queriers together
// (meaningful under -race): forkers grow deep spines and wide fans while
// queriers fire all three oracles at heaps already published. This is the
// schedule that exercises the legacy seqlock's retry path — structural
// edits relabeling tags mid-query — with the fork-path answer checked
// against it on every call by AncestryBoth.
func TestAncestryDifferentialConcurrent(t *testing.T) {
	const forkers, queriers = 3, 4
	const forksEach = 300

	tr := NewWithAncestry(AncestryBoth)
	tr.SetChaos(chaos.New(7, chaos.Options{PathSpill: 256}))
	tr.Stats = &TreeStats{}

	var mu sync.Mutex
	published := []*Heap{tr.Root()}
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
			local := []*Heap{tr.Root()}
			shapes := []string{"spine", "wide", "uniform"}
			for i := 0; i < forksEach; i++ {
				local = growTree(tr, rng, local, 1, shapes[g%len(shapes)])
				mu.Lock()
				published = append(published, local[len(local)-1])
				mu.Unlock()
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
				if got, want := tr.IsAncestor(a, b), walkIsAncestor(a, b); got != want {
					panic("concurrent differential: IsAncestor diverged from walk oracle")
				}
				wl := walkLCA(a, b)
				if got := tr.LCA(a, b); got != wl {
					panic("concurrent differential: LCA diverged from walk oracle")
				}
				if got := tr.LCADepth(a, b); got != wl.depth {
					panic("concurrent differential: LCADepth diverged from walk oracle")
				}
			}
		}(g)
	}

	// Queriers run for the full span of the forking, then are released.
	forkWG.Wait()
	close(stop)
	queryWG.Wait()

	if q := tr.Stats.AncestryQueries.Load(); q == 0 {
		t.Fatal("stats counted no ancestry queries")
	}
}

// TestAncestryOrderListMode checks the retired oracle still stands alone:
// a tree in AncestryOrderList mode must answer identically to the walk
// oracle with the fork-path words never consulted.
func TestAncestryOrderListMode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := NewWithAncestry(AncestryOrderList)
	if tr.Ancestry() != AncestryOrderList {
		t.Fatal("mode not recorded")
	}
	heaps := growTree(tr, rng, []*Heap{tr.Root()}, 250, "uniform")
	for q := 0; q < 5000; q++ {
		a := heaps[rng.Intn(len(heaps))]
		b := heaps[rng.Intn(len(heaps))]
		if got, want := tr.IsAncestor(a, b), walkIsAncestor(a, b); got != want {
			t.Fatalf("order-list IsAncestor(%d,%d) = %v, want %v", a.ID, b.ID, got, want)
		}
		if got, want := tr.LCA(a, b), walkLCA(a, b); got != want {
			t.Fatalf("order-list LCA(%d,%d) = %d, want %d", a.ID, b.ID, got.ID, want.ID)
		}
	}
}

// TestUnpinDepthCache checks the one-entry cache returns oracle answers
// across key changes and that a hit really skips the oracle (via the leaf's
// query tally, which only a miss bumps).
func TestUnpinDepthCache(t *testing.T) {
	tr := New()
	root := tr.Root()
	a := tr.Fork(root)
	b := tr.Fork(root)
	aa := tr.Fork(a)

	if got := tr.UnpinDepth(aa, b); got != 0 {
		t.Fatalf("UnpinDepth(aa,b) = %d, want 0", got)
	}
	if q := aa.Tally.AncestryQueries; q != 1 {
		t.Fatalf("first lookup tallied %d queries, want 1", q)
	}
	if got := tr.UnpinDepth(aa, b); got != 0 {
		t.Fatalf("cached UnpinDepth(aa,b) = %d, want 0", got)
	}
	if q := aa.Tally.AncestryQueries; q != 1 {
		t.Fatalf("cache hit still consulted the oracle (%d queries)", q)
	}
	// Key change: recompute, re-cache.
	if got := tr.UnpinDepth(aa, a); got != 1 {
		t.Fatalf("UnpinDepth(aa,a) = %d, want 1", got)
	}
	if got := tr.UnpinDepth(aa, b); got != 0 {
		t.Fatalf("UnpinDepth(aa,b) after evict = %d, want 0", got)
	}
	if q := aa.Tally.AncestryQueries; q != 3 {
		t.Fatalf("two evictions tallied %d queries in all, want 3", q)
	}
}

// TestRelateMatchesWalkOracle checks both halves of the cached answer — the
// LCA depth and the is-ancestor verdict — against the naive parent-walk
// oracle, over every oracle mode, with keys repeated (hits), alternated
// (evictions) and equal to the leaf; then again after every key heap that
// can merge has merged away: an entry is keyed on the heap itself, whose
// ancestry no merge changes, so the answers must not move and the entries
// cached before the merges must still be served.
func TestRelateMatchesWalkOracle(t *testing.T) {
	for _, mode := range []AncestryMode{AncestryForkPath, AncestryOrderList, AncestryBoth} {
		for _, walk := range []bool{false, true} {
			rng := rand.New(rand.NewSource(77))
			tr := NewWithAncestry(mode)
			tr.UseWalkAncestor = walk
			heaps := growTree(tr, rng, []*Heap{tr.Root()}, 120, "uniform")
			check := func(leaf, x *Heap) {
				t.Helper()
				d, anc := tr.Relate(leaf, x)
				if wd, wa := walkLCA(leaf, x).depth, walkIsAncestor(x, leaf); d != wd || anc != wa {
					t.Fatalf("mode %d walk %v: Relate(%d,%d) = (%d,%v), walk oracle says (%d,%v)",
						mode, walk, leaf.ID, x.ID, d, anc, wd, wa)
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
					check(leaf, x) // evicted by the leaf's own entry
				}
			}
			sweep()

			// Pin one entry per heap, then merge every childless heap into
			// its parent, deepest first, until only the root is left.
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
				before := h.Tally.AncestryQueries
				check(h, x)
				if walk || mode != AncestryForkPath {
					continue // the ablation oracles count on the tree
				}
				if h.Tally.AncestryQueries != before {
					t.Fatalf("entry (%d,%d) cached before the merges was not served", h.ID, x.ID)
				}
			}
			if mode == AncestryForkPath {
				sweep() // the one oracle that still answers for a merged heap
			}
		}
	}
}
