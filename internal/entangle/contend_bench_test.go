package entangle

import (
	"fmt"
	"sync"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// contendWorld is the microbenchmark fixture: a root heap holding one
// candidate array, an owner heap holding the shared targets, and one leaf
// heap per worker so every read is entangled (the owner is a sibling of
// every reader, LCA = root).
type contendWorld struct {
	sp     *mem.Space
	tr     *hierarchy.Tree
	m      *Manager
	holder mem.Ref
	tgts   []mem.Ref
	leaves []*hierarchy.Heap
}

func newContendWorld(workers, targets int) *contendWorld {
	w := &contendWorld{sp: mem.NewSpace(), tr: hierarchy.New()}
	w.m = New(w.sp, w.tr, Manage)
	root := w.tr.Root()

	owner := w.tr.Fork(root)
	al := mem.NewAllocator(w.sp, owner.ID)
	for i := 0; i < targets; i++ {
		w.tgts = append(w.tgts, al.AllocRef(mem.Int(int64(i))))
	}
	owner.Chunks = append(owner.Chunks, al.Chunks...)

	rootAl := mem.NewAllocator(w.sp, root.ID)
	w.holder = rootAl.AllocArray(targets, mem.Nil)
	root.Chunks = append(root.Chunks, rootAl.Chunks...)
	for i, tgt := range w.tgts {
		w.sp.Store(w.holder, i, tgt.Value())
	}
	w.sp.SetCandidate(w.holder)

	for i := 0; i < workers; i++ {
		w.leaves = append(w.leaves, w.tr.Fork(root))
	}
	return w
}

// BenchmarkContendedEntangledRead measures the OnRead slow path with N
// workers all entangled-reading ONE shared ref cell — the regime the
// per-heap mutex (former deviation D3) serialized. After the first pin,
// reads take the already-pinned fast path: one header load, no gate, no
// CAS, and no shared word written at all (the counts go to each reader's
// own leaf), so throughput should scale with workers instead of collapsing.
func BenchmarkContendedEntangledRead(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			w := newContendWorld(workers, 1)
			v := w.tgts[0].Value()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(leaf *hierarchy.Heap) {
					defer wg.Done()
					for n := 0; n < b.N/workers; n++ {
						if _, err := w.m.OnRead(leaf, w.holder, 0, v); err != nil {
							panic(err)
						}
					}
				}(w.leaves[i])
			}
			wg.Wait()
		})
	}
}
