package entangle

import (
	"runtime"
	"sync"
	"testing"

	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
)

// sharedWords reads every word of the manager that more than one strand can
// write: the drained totals, the gauge, its peaks and the tree's query count.
func sharedWords(m *Manager) [18]uint64 {
	s := &m.Stats
	return [18]uint64{
		uint64(s.DownPointers.Load()), uint64(s.Candidates.Load()), uint64(s.EntangledReads.Load()),
		uint64(s.EntangledWrites.Load()), uint64(s.SlowReads.Load()), uint64(s.Pins.Load()),
		uint64(s.Unpins.Load()), s.now.Load(), s.peak.Load(),
		uint64(m.Tree.Stats.AncestryQueries.Load()),
		uint64(s.PinDepthLowered.Load()), uint64(s.PinAlready.Load()), uint64(s.PinBusy.Load()),
		uint64(s.PinForwarded.Load()), uint64(s.PinRetries.Load()),
		uint64(s.ElidedLoads.Load()), uint64(s.ElidedStores.Load()), uint64(s.ElidedAllocs.Load()),
	}
}

// TestSlowReadWritesNoSharedWord is the change's claim as a test: re-reads of
// a pinned object and slow reads that prove disentangled leave every shared
// word of the manager bit for bit as it was — their counts sit on the
// readers' own leaves — and the joins make the totals exact.
func TestSlowReadWritesNoSharedWord(t *testing.T) {
	const n = 1000
	r := newRig(Manage)
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
	if got, want := r.m.Stats.PinCAS(), (mem.PinCASSnapshot{Attempts: 1, New: 1}); got != want {
		t.Fatalf("pin CAS after the joins = %+v, want %+v", got, want)
	}
}

// TestThirdPartyWriteTalliesItsQuery: a writer that owns neither end of the
// edge it stores asks the oracle directly, bypassing its leaf's cache, and
// counts that query on its own tally like any other.
func TestThirdPartyWriteTalliesItsQuery(t *testing.T) {
	r := newRig(Manage)
	ll := r.tr.Fork(r.left)
	o := r.leftAl.AllocArray(1, mem.Nil)
	y := r.alloc(ll).AllocTuple(mem.Int(1))
	if err := r.m.OnWrite(r.right, o, 0, y); err != nil {
		t.Fatal(err)
	}
	if got, want := r.right.Tally, (hierarchy.Tally{Candidates: 1, DownPointers: 1, AncestryQueries: 1}); got != want {
		t.Fatalf("writer's tally = %+v, want %+v", got, want)
	}
	r.m.Drain(r.right)
	if q := r.tr.Stats.AncestryQueries.Load(); q != 1 {
		t.Fatalf("tree counted %d queries, want 1", q)
	}
}

// checkPinOutcomes is a hand-built world in which the barriers meet every
// outcome of the pin CAS on purpose, so the drained totals are known.
func checkPinOutcomes(t *testing.T) {
	const n = 5
	r := newRig(Manage)
	ll, lr := r.tr.Fork(r.left), r.tr.Fork(r.left) // depth 2, meeting at left
	holder := r.rootAl.AllocArray(n+2, mem.Nil)
	lholder := r.leftAl.AllocArray(1, mem.Nil)
	publish := func(leaf *hierarchy.Heap, o mem.Ref, i int, x mem.Ref) {
		t.Helper()
		if err := r.m.OnWrite(leaf, o, i, x); err != nil {
			t.Fatal(err)
		}
		r.sp.Store(o, i, x.Value())
	}
	read := func(leaf *hierarchy.Heap, o mem.Ref, i int) mem.Ref {
		t.Helper()
		v, err := r.m.OnRead(leaf, o, i, r.sp.Load(o, i))
		if err != nil {
			t.Fatal(err)
		}
		return v.Ref()
	}
	var want mem.PinCASSnapshot
	check := func(what string) {
		t.Helper()
		for _, h := range r.tr.Live() {
			r.m.Drain(h)
		}
		if got := r.m.Stats.PinCAS(); got != want {
			t.Fatalf("after %s: pin CAS = %+v, want %+v", what, got, want)
		}
	}

	// n fresh pins: right reads n objects left published under the root.
	xs := make([]mem.Ref, n)
	for i := range xs {
		xs[i] = r.leftAl.AllocTuple(mem.Int(int64(i)))
		publish(r.left, holder, i, xs[i])
		read(r.right, holder, i)
	}
	want.Attempts, want.New = n, n
	check("fresh pins")

	// A re-pin from further away: lr pins ll's y to their meeting point
	// (depth 1); right, which meets ll only at the root, lowers it to 0.
	y := r.alloc(ll).AllocTuple(mem.Int(-1))
	publish(ll, lholder, 0, y)
	read(lr, lholder, 0)
	publish(ll, holder, n, y)
	read(r.right, holder, n)
	if d := r.sp.Header(y).UnpinDepth(); d != 0 {
		t.Fatalf("re-pin left the unpin depth at %d", d)
	}
	want.Attempts, want.New, want.DepthLowered = want.Attempts+2, want.New+1, 1
	check("a re-pin from further away")

	// A repeat at the same depth: right stores xs[0], pinned to the root
	// already, into its own object — a cross-pointer, whose pin changes nothing.
	publish(r.right, r.rightAl.AllocArray(1, mem.Nil), 0, xs[0])
	want.Attempts, want.Already = want.Attempts+1, 1
	check("a repeat at the same depth")

	// A header held by a copy: right's read finds z BUSY and backs off. Once
	// the reader is inside left's gate, the copier closes it as a collection
	// would, redirects the field, forwards z and reopens; the retry pins the
	// copy. How many times the reader retried before the gate closed is the
	// schedule's business; each one is a Busy outcome and an attempt.
	z := r.leftAl.AllocTuple(mem.Int(7))
	z2 := r.leftAl.AllocTuple(mem.Int(7))
	publish(r.left, holder, n+1, z)
	if _, ok := r.sp.BeginCopy(z); !ok {
		t.Fatal("BeginCopy refused a plain object")
	}
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		for r.left.Gate.Readers() == 0 {
			runtime.Gosched()
		}
		r.left.Gate.WaitBeginCollect()
		r.sp.Store(holder, n+1, z2.Value())
		r.sp.Forward(z, z2)
		r.left.Gate.EndCollect()
	}()
	if got := read(r.right, holder, n+1); got != z2 {
		t.Fatalf("read through a copy in flight = %v, want the copy %v", got, z2)
	}
	<-copied
	for _, h := range r.tr.Live() {
		r.m.Drain(h)
	}
	busy := r.m.Stats.PinCAS().Busy
	if busy < 1 {
		t.Fatal("a read of a BUSY header counted no Busy outcome")
	}
	want.Attempts, want.New, want.Busy = want.Attempts+busy+1, want.New+1, busy
	check("a copy in flight")
}

// TestTalliesExactAtQuiescence drives eight workers through a scripted mix —
// published objects, fresh pins, re-reads, disentangled slow reads,
// cross-pointer writes, nested forks whose joins unpin at depth 1 while other
// workers are still pinning — with a goroutine snapshotting throughout, and
// requires the totals at the end to equal a tally the test keeps itself.
// Which reader wins a pin is a race; how many objects end up pinned is not.
func TestTalliesExactAtQuiescence(t *testing.T) {
	checkPinOutcomes(t)

	const (
		workers = 8
		k       = 24 // objects each heap publishes
		rounds  = 6
	)
	sp, tr := mem.NewSpace(), hierarchy.New()
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
	// Every pin here is to a fixed depth and nothing copies: besides the
	// fresh pins, the only outcome is a reader that lost the race to pin.
	if pc := m.Stats.PinCAS(); pc.New != pins || pc.DepthLowered != 0 || pc.Busy != 0 || pc.Forwarded != 0 ||
		pc.Attempts != pc.New+pc.Already {
		t.Fatalf("pin CAS at quiescence = %+v, want New = %d, only Already besides", pc, pins)
	}
	for _, h := range tr.Live() {
		if h.Tally != (hierarchy.Tally{}) {
			t.Fatalf("heap %d still holds a tally: %+v", h.ID, h.Tally)
		}
	}
}
