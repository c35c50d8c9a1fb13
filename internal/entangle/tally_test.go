package entangle

import (
	"sync"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// sharedWords reads every word of the manager that more than one strand can
// write: the drained totals, the gauge, its peaks and the tree's query count.
func sharedWords(m *Manager) [10]uint64 {
	s := &m.Stats
	return [10]uint64{
		uint64(s.DownPointers.Load()), uint64(s.Candidates.Load()), uint64(s.EntangledReads.Load()),
		uint64(s.EntangledWrites.Load()), uint64(s.SlowReads.Load()), uint64(s.Pins.Load()),
		uint64(s.Unpins.Load()), s.now.Load(), s.peak.Load(),
		uint64(m.Tree.Stats.AncestryQueries.Load()),
	}
}

// TestSlowReadWritesNoSharedWord is the change's claim as a test: re-reads of
// a pinned object and slow reads that prove disentangled leave every shared
// word of the manager bit for bit as it was — their counts sit on the
// readers' own leaves — and the joins make the totals exact.
func TestSlowReadWritesNoSharedWord(t *testing.T) {
	const n = 1000
	r := newRig(Manage)
	r.tr.Stats = &hierarchy.TreeStats{}
	holder := r.rootAl.AllocArray(1, mem.Nil)
	x := r.leftAl.AllocTuple(mem.Int(7), mem.Int(8))
	r.adopt(r.left, r.leftAl)
	if err := r.m.OnWrite(r.left, holder, 0, x); err != nil {
		t.Fatal(err)
	}
	r.sp.Store(holder, 0, x.Value())
	read := func(leaf *hierarchy.Heap) {
		t.Helper()
		if v, err := r.m.OnRead(leaf, holder, 0, x.Value()); err != nil || v.Ref() != x {
			t.Fatalf("OnRead = %v, %v", v, err)
		}
	}
	read(r.right) // the fresh pin: the one read that must write shared words
	read(r.left)  // warms left's ancestry cache
	if now := pinLoad(r.m.Stats.now.Load()); now != packPinned(1, 3) {
		t.Fatalf("gauge after one pin of a 3-word object = %d objects, %d words", now.objects(), now.words())
	}

	before := sharedWords(r.m)
	hdr := r.sp.Header(x)
	gate := [2]uint64{r.left.Gate.Epoch(), uint64(r.left.Gate.Readers())}
	for i := 0; i < n; i++ {
		read(r.right) // re-read of a pinned object
		read(r.left)  // slow read of an object on the reader's own path
	}
	if after := sharedWords(r.m); after != before {
		t.Fatalf("%d re-reads and %d disentangled slow reads moved a shared word:\n before %v\n after  %v", n, n, before, after)
	}
	if h := r.sp.Header(x); h != hdr {
		t.Fatalf("re-reads changed the target's header %#x -> %#x", uint64(hdr), uint64(h))
	}
	if g := [2]uint64{r.left.Gate.Epoch(), uint64(r.left.Gate.Readers())}; g != gate {
		t.Fatalf("re-reads moved the owner's gate %v -> %v", gate, g)
	}
	if got, want := r.right.Tally, (hierarchy.Tally{SlowReads: n + 1, EntangledReads: n + 1, Candidates: 1, Pins: 1, AncestryQueries: 1}); got != want {
		t.Fatalf("right's tally = %+v, want %+v", got, want)
	}
	if got, want := r.left.Tally, (hierarchy.Tally{SlowReads: n + 1, Candidates: 1, DownPointers: 1, AncestryQueries: 1}); got != want {
		t.Fatalf("left's tally = %+v, want %+v", got, want)
	}

	r.m.OnJoin(r.left, r.root)
	r.m.OnJoin(r.right, r.root)
	want := StatsSnapshot{
		DownPointers: 1, Candidates: 2, EntangledReads: n + 1, SlowReads: 2*n + 2,
		Pins: 1, Unpins: 1, PinnedPeak: 1, PinnedPeakBytes: 24,
	}
	if got := r.m.Stats.Snapshot(); got != want {
		t.Fatalf("after the joins:\n got  %+v\n want %+v", got, want)
	}
	if q := r.tr.Stats.AncestryQueries.Load(); q != 2 {
		t.Fatalf("tree counted %d oracle queries, want 2 (one miss a reader)", q)
	}
	if r.left.Tally != (hierarchy.Tally{}) || r.right.Tally != (hierarchy.Tally{}) {
		t.Fatal("a join left a tally undrained")
	}
}

// TestTalliesExactAtQuiescence drives eight workers through a scripted mix —
// published objects, fresh pins, re-reads, disentangled slow reads,
// cross-pointer writes, nested forks whose joins unpin at depth 1 while other
// workers are still pinning — with a goroutine snapshotting throughout, and
// requires the totals at the end to equal a tally the test keeps itself.
// Which reader wins a pin is a race; how many objects end up pinned is not.
func TestTalliesExactAtQuiescence(t *testing.T) {
	const (
		workers = 8
		k       = 24 // objects each heap publishes
		rounds  = 6
	)
	sp, tr := mem.NewSpace(), hierarchy.New()
	tr.Stats = &hierarchy.TreeStats{}
	m := New(sp, tr, Manage)
	root := tr.Root()
	alloc := func(h *hierarchy.Heap, n int, mk func(*mem.Allocator) mem.Ref) []mem.Ref {
		al := mem.NewAllocator(sp, h.ID)
		out := make([]mem.Ref, n)
		for i := range out {
			out[i] = mk(al)
		}
		h.Chunks = append(h.Chunks, al.Chunks...)
		return out
	}
	board := alloc(root, 1, func(al *mem.Allocator) mem.Ref { return al.AllocArray(workers*k, mem.Nil) })[0]
	leaves := make([]*hierarchy.Heap, workers)
	for i := range leaves {
		leaves[i] = tr.Fork(root)
	}

	// The reference: plain per-worker counts of what each worker itself did,
	// and the set of objects that anyone pinned.
	type ref struct{ slow, entReads, entWrites, down int64 }
	var (
		refs     [workers]ref
		pinnedMu sync.Mutex
		pinned   = map[mem.Ref]int64{} // object -> words
	)
	notePinned := func(x mem.Ref) {
		pinnedMu.Lock()
		pinned[x] = int64(sp.Header(x).Len()) + 1
		pinnedMu.Unlock()
	}

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		var last StatsSnapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := m.Stats.Snapshot()
			if s.SlowReads < last.SlowReads || s.Pins < last.Pins || s.Unpins < last.Unpins || s.EntangledReads < last.EntangledReads {
				t.Errorf("a total fell between snapshots: %+v then %+v", last, s)
				return
			}
			if s.PinnedNow < 0 || s.PinnedNow > s.PinnedPeak {
				t.Errorf("gauge %d outside [0, peak %d]", s.PinnedNow, s.PinnedPeak)
				return
			}
			last = s
		}
	}()

	var published, wg sync.WaitGroup
	published.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me, rf := leaves[w], &refs[w]
			fail := func(err error) {
				if err != nil {
					t.Error(err)
				}
			}
			// read is the caller's half of the barrier (load, test for a
			// reference) and then the slow path.
			read := func(leaf *hierarchy.Heap, o mem.Ref, i int, concurrent bool) mem.Ref {
				v := sp.Load(o, i)
				if !v.IsRef() {
					return 0
				}
				v, err := m.OnRead(leaf, o, i, v)
				fail(err)
				rf.slow++
				if concurrent {
					rf.entReads++
					notePinned(v.Ref())
				}
				return v.Ref()
			}

			// Publish k cells on the board: down-pointers from the root.
			for i, x := range alloc(me, k, func(al *mem.Allocator) mem.Ref { return al.AllocRef(mem.Int(int64(w))) }) {
				fail(m.OnWrite(me, board, w*k+i, x))
				sp.Store(board, w*k+i, x.Value())
				rf.down++
			}
			published.Done()
			published.Wait() // the script below names cells of every worker
			mine := alloc(me, 1, func(al *mem.Allocator) mem.Ref { return al.AllocArray(k, mem.Nil) })[0]

			// Fork. The left child publishes into the worker's own array;
			// the right child reads that (entangled at depth 1), the whole
			// board (depth 0 against the other workers, disentangled against
			// its own parent) and writes its own cells into what it acquired.
			a, b := tr.Fork(me), tr.Fork(me)
			for i, x := range alloc(a, k, func(al *mem.Allocator) mem.Ref { return al.AllocTuple(mem.Int(1), mem.Int(2)) }) {
				fail(m.OnWrite(a, mine, i, x))
				sp.Store(mine, i, x.Value())
				rf.down++
			}
			ys := alloc(b, k, func(al *mem.Allocator) mem.Ref { return al.AllocTuple(mem.Int(3)) })
			for r := 0; r < rounds; r++ {
				for i := 0; i < k; i++ {
					read(b, mine, i, true)
				}
				for s := 0; s < workers*k; s++ {
					o := read(b, board, s, s/k != w)
					if o != 0 && s/k != w && r == 0 && s%k == w {
						// A cross-pointer: b's own cell into a cell of
						// another worker's. It pins b's cell where it is.
						y := ys[s/k]
						fail(m.OnWrite(b, o, 0, y))
						sp.Store(o, 0, y.Value())
						rf.entWrites++
						notePinned(y)
					}
				}
			}
			m.OnJoin(a, me) // unpins a's cells: depth 1 is reached
			m.OnJoin(b, me) // b's cells stay pinned, to depth 0

			// The worker itself, childless again, re-reads the board.
			for s := 0; s < workers*k; s++ {
				read(me, board, s, s/k != w)
			}
		}(w)
	}
	wg.Wait()
	for _, h := range leaves {
		m.OnJoin(h, root)
	}
	// The root task reads the board last — everything is on its own path
	// now — and ends: its tally drains like any task's.
	var want ref
	for s := 0; s < workers*k; s++ {
		if _, err := m.OnRead(root, board, s, sp.Load(board, s)); err != nil {
			t.Fatal(err)
		}
		want.slow++
	}
	m.Drain(root)
	close(stop)
	snaps.Wait()

	for _, rf := range refs {
		want.slow += rf.slow
		want.entReads += rf.entReads
		want.entWrites += rf.entWrites
		want.down += rf.down
	}
	var pinnedWords int64
	for _, words := range pinned {
		pinnedWords += words
	}
	pins := int64(len(pinned))
	got := m.Stats.Snapshot()
	// Candidates: the board, each worker's own array, and every object
	// pinned (the pin is what marks it).
	if got.SlowReads != want.slow || got.EntangledReads != want.entReads || got.EntangledWrites != want.entWrites ||
		got.DownPointers != want.down || got.Pins != pins || got.Unpins != pins || got.Candidates != 1+workers+pins {
		t.Fatalf("totals at quiescence:\n got  %+v\n want slow=%d entReads=%d entWrites=%d down=%d pins=unpins=%d candidates=%d",
			got, want.slow, want.entReads, want.entWrites, want.down, pins, 1+workers+pins)
	}
	if got.PinnedNow != 0 {
		t.Fatalf("gauge = %d at quiescence", got.PinnedNow)
	}
	// Everything pinned to depth 0 was live together just before the root
	// joins; the depth-1 pins came and went earlier.
	depth0 := pins - workers*k
	if got.PinnedPeak < depth0 || got.PinnedPeak > pins || got.PinnedPeakBytes > pinnedWords*8 {
		t.Fatalf("peak = %d objects, %d bytes; want objects in [%d, %d], bytes at most %d",
			got.PinnedPeak, got.PinnedPeakBytes, depth0, pins, pinnedWords*8)
	}
	if want.entWrites != workers*(workers-1) || pins != int64(workers*k*2+workers*(workers-1)) {
		t.Fatalf("the script did not run as written: %d cross-pointer writes, %d pins", want.entWrites, pins)
	}
	for _, h := range tr.Live() {
		if h.Tally != (hierarchy.Tally{}) {
			t.Fatalf("heap %d still holds a tally: %+v", h.ID, h.Tally)
		}
	}
}
