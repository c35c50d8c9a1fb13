package gc

import (
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

type rootSlot struct{ v mem.Value }

func (s *rootSlot) Roots(visit func(*mem.Value)) { visit(&s.v) }

// TestCollectAllocatesNothing holds the fixed cost of a collection: Collect
// takes from Go's heap nothing but what to-space needs — no run, no slices,
// no closures, no allocator, and no segment for the remembered set, which
// it rebuilds in place. serve's
// dispatcher heap collects a near-empty heap 900 times a run, with Go's own
// collector off. Each copying collection first takes the tenure off the
// leaf's chunks, so that it copies what the last one did; a survivor round
// then keeps them and, once a to-space chunk less than half filled has been
// copied out of (the second and third collections), copies nothing and
// allocates nothing at all. The remembered targets of the copying case are
// each shared by two fields, which refuses their chunks the in-place rule;
// those of the dense case, remembered once each, fill their chunks — 896
// two-word tuples exactly the 256-, 512- and 1 024-word chunks the
// allocator takes in turn — which every collection traces in place,
// untenured or not, allocating nothing.
// Under the race detector the pool drops Puts at random, so there only the
// copies and the heap audit are checked, not the bounds.
func TestCollectAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		objects, remembered int
		dense               bool
	}{{0, 0, false}, {1000, 0, false}, {0, 1000, false}, {0, 896, true}} {
		w := newWorld()
		leaf := w.tr.Fork(w.tr.Root())
		ha := w.onHeap(leaf)
		rs := &rootSlot{} // roots, the other tests' root set, allocates per root
		list := mem.Nil
		for i := 0; i < tc.objects; i++ {
			list = ha.al.AllocTuple(mem.Int(int64(i)), list).Value()
			ha.al.AllocTuple(mem.Int(0)) // garbage
		}
		rs.v = list
		// A holder array in the root heap whose every field points into
		// the leaf: down-pointers, each remembered once; two fields to each
		// target unless the case is dense.
		entries := tc.remembered
		if !tc.dense {
			entries *= 2
		}
		if tc.remembered > 0 {
			root := w.onHeap(w.tr.Root())
			holder := root.al.AllocArray(entries, mem.Nil)
			root.adopt()
			for i := 0; i < tc.remembered; i++ {
				v := ha.al.AllocTuple(mem.Int(int64(i))).Value()
				for f := i * entries / tc.remembered; f < (i+1)*entries/tc.remembered; f++ {
					w.sp.Store(holder, f, v)
					leaf.AddRemembered(holder, f)
				}
			}
		}
		ha.adopt()
		leaf.AddRootSet(rs)
		scope := []*hierarchy.Heap{leaf}
		// collect collects the leaf, untenured first if fresh, and checks
		// the objects it copies unless copied is negative.
		collect := func(what string, fresh bool, copied int64) {
			if fresh {
				untenure(leaf)
			}
			if res := w.c.Collect(scope); copied >= 0 && res.CopiedObjects != copied {
				t.Fatalf("%+v: %s copied %d objects, want %d", tc, what, res.CopiedObjects, copied)
			}
			if n := leaf.Remset.Len(); n != entries {
				t.Fatalf("%+v: %s left %d remembered entries, want %d", tc, what, n, entries)
			}
		}
		// Two collections fill the space's free lists with both semispaces
		// and the collector's pool with a run.
		copied := int64(tc.objects + tc.remembered)
		if tc.dense {
			copied = 0
		}
		fresh := copied > 0 || tc.dense
		for i := 0; i < 2; i++ {
			collect("warm-up", fresh, copied)
		}
		allocs := testing.AllocsPerRun(20, func() { collect("collection", fresh, copied) })
		// What remains is the to-space chunk list, grown by append; a
		// collection that copies nothing has none.
		limit := float64(max(len(leaf.Chunks)-1, 0))
		if copied == 0 {
			limit = 0
		}
		if !raceEnabled && allocs > limit {
			t.Errorf("%+v: %.0f allocations per collection, want at most %.0f (a list of %d chunks)",
				tc, allocs, limit, len(leaf.Chunks))
		}
		for i := 0; i < 2; i++ {
			collect("survivor warm-up", false, -1)
		}
		if allocs := testing.AllocsPerRun(20, func() { collect("survivor collection", false, 0) }); !raceEnabled && allocs > 0 {
			t.Errorf("%+v: %.0f allocations per survivor collection, want 0", tc, allocs)
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
	}
}
