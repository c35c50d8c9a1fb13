package gc

import (
	"testing"

	"mplgo/internal/mem"
)

type rootSlot struct{ v mem.Value }

func (s *rootSlot) Roots(visit func(*mem.Value)) { visit(&s.v) }

// TestCollectAllocatesNothing holds the fixed cost of a collection: for the
// runtime's one-heap scope Collect takes from Go's heap nothing but what
// to-space needs — no run, no slices, no closures, no allocator. serve's
// dispatcher heap collects a near-empty heap 900 times a run, with Go's own
// collector off. Under the race detector the pool drops Puts at random, so
// there only the copies and the heap audit are checked, not the bound.
func TestCollectAllocatesNothing(t *testing.T) {
	for _, objects := range []int{0, 1000} {
		w := newWorld()
		leaf := w.tr.Fork(w.tr.Root())
		ha := w.onHeap(leaf)
		rs := &rootSlot{} // roots, the other tests' root set, allocates per root
		list := mem.Nil
		for i := 0; i < objects; i++ {
			list = ha.al.AllocTuple(mem.Int(int64(i)), list).Value()
			ha.al.AllocTuple(mem.Int(0)) // garbage
		}
		rs.v = list
		ha.adopt()
		leaf.AddRootSet(rs)
		scope := w.tr.ExclusiveSuffix(leaf)[:1]
		// Two collections fill the space's free lists with both semispaces
		// and the collector's pool with a run.
		for i := 0; i < 2; i++ {
			if res := w.c.Collect(scope); res.CopiedObjects != int64(objects) {
				t.Fatalf("%d objects: warm-up copied %d", objects, res.CopiedObjects)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if res := w.c.Collect(scope); res.CopiedObjects != int64(objects) {
				t.Fatalf("%d objects: collection copied %d", objects, res.CopiedObjects)
			}
		})
		// What remains is the to-space chunk list, grown by append.
		if limit := float64(max(len(leaf.Chunks)-1, 0)); !raceEnabled && allocs > limit {
			t.Errorf("%d objects: %.0f allocations per collection, want at most %.0f (a list of %d chunks)",
				objects, allocs, limit, len(leaf.Chunks))
		}
		if err := CheckHeap(w.sp, leaf, true); err != nil {
			t.Fatal(err)
		}
	}
}
