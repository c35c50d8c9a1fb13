package globalrt

import (
	"testing"

	"mplgo/internal/mem"
	"mplgo/internal/sim"
)

func TestAllocAccess(t *testing.T) {
	r := New(0)
	tup := r.AllocTuple(mem.Int(1), mem.Int(2))
	if r.Read(tup, 0).AsInt() != 1 || r.Read(tup, 1).AsInt() != 2 {
		t.Fatal("tuple access")
	}
	arr := r.AllocArray(4, mem.Int(7))
	r.Write(arr, 3, mem.Int(9))
	if r.Read(arr, 3).AsInt() != 9 || r.Read(arr, 0).AsInt() != 7 {
		t.Fatal("array access")
	}
	cell := r.AllocRef(tup.Value())
	if r.Deref(cell).Ref() != tup {
		t.Fatal("ref cell")
	}
	r.Assign(cell, mem.Int(3))
	if r.Deref(cell).AsInt() != 3 {
		t.Fatal("assign")
	}
	s := r.AllocString("abc")
	if r.StringOf(s) != "abc" {
		t.Fatal("string")
	}
	if r.Length(arr) != 4 {
		t.Fatal("length")
	}
}

func TestCollectionPreservesList(t *testing.T) {
	r := New(512)
	f := r.NewFrame(1)
	const n = 3000
	for i := 0; i < n; i++ {
		head := r.AllocTuple(mem.Int(int64(i)), f.Get(0))
		f.Set(0, head.Value())
		r.AllocArray(8, mem.Int(0)) // garbage
	}
	if r.Collections == 0 {
		t.Fatal("no collections with tiny budget")
	}
	cur := f.Get(0)
	for i := n - 1; i >= 0; i-- {
		if got := r.Read(cur.Ref(), 0).AsInt(); got != int64(i) {
			t.Fatalf("list[%d] = %d", i, got)
		}
		cur = r.Read(cur.Ref(), 1)
	}
	if !cur.IsNil() {
		t.Fatal("tail not nil")
	}
	f.Pop()
}

func TestCollectionReclaims(t *testing.T) {
	r := New(1 << 14)
	for i := 0; i < 20000; i++ {
		r.AllocArray(16, mem.Int(1))
	}
	// Everything is garbage; after the last collection residency must be
	// far below total allocation.
	if r.Collections == 0 {
		t.Fatal("no collections")
	}
	if live := r.Space().LiveWords(); live > 1<<16 {
		t.Fatalf("LiveWords = %d; garbage not reclaimed", live)
	}
	if r.GCWork == 0 && r.CopiedWords != 0 {
		t.Fatal("GCWork accounting inconsistent")
	}
}

func TestParSequentialSemantics(t *testing.T) {
	r := New(0)
	a, b := r.Par(
		func(r *Runtime) mem.Value { return mem.Int(3) },
		func(r *Runtime) mem.Value { return mem.Int(4) },
	)
	if a.AsInt() != 3 || b.AsInt() != 4 {
		t.Fatal("Par results")
	}
}

func TestRecordingTrace(t *testing.T) {
	r := NewRecording(0)
	var fib func(n int64) int64
	fib = func(n int64) int64 {
		if n < 2 {
			r.Work(1)
			return n
		}
		a, b := r.Par(
			func(*Runtime) mem.Value { return mem.Int(fib(n - 1)) },
			func(*Runtime) mem.Value { return mem.Int(fib(n - 2)) },
		)
		return a.AsInt() + b.AsInt()
	}
	if fib(12) != 144 {
		t.Fatal("fib wrong")
	}
	tr := r.Trace()
	if tr == nil || tr.CountForks() == 0 {
		t.Fatal("no trace")
	}
	w, s := tr.WorkSpan()
	if w <= 0 || s <= 0 || s >= w {
		t.Fatalf("W=%d S=%d", w, s)
	}
	// The recorded DAG parallelizes even though execution was sequential.
	t1 := sim.Replay(tr, sim.ReplayConfig{P: 1, StealCost: 1}).Makespan
	t8 := sim.Replay(tr, sim.ReplayConfig{P: 8, StealCost: 1}).Makespan
	if t8 >= t1 {
		t.Fatalf("recorded DAG has no parallelism: T1=%d T8=%d", t1, t8)
	}
}

func TestParForCoversRange(t *testing.T) {
	r := New(0)
	arr := r.AllocArray(100, mem.Int(0))
	f := r.NewFrame(1)
	f.Set(0, arr.Value())
	r.ParFor(0, 100, 8, func(r *Runtime, lo, hi int) {
		for i := lo; i < hi; i++ {
			r.Write(f.Ref(0), i, mem.Int(int64(i)))
		}
	})
	for i := 0; i < 100; i++ {
		if r.Read(f.Ref(0), i).AsInt() != int64(i) {
			t.Fatalf("slot %d", i)
		}
	}
	f.Pop()
}

func TestFrameLIFO(t *testing.T) {
	r := New(0)
	f1 := r.NewFrame(1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-LIFO pop must panic")
		}
	}()
	_ = r.NewFrame(1)
	f1.Pop()
}

func TestSharingPreservedAcrossGC(t *testing.T) {
	r := New(256)
	shared := r.AllocTuple(mem.Int(5))
	pair := r.AllocTuple(shared.Value(), shared.Value())
	f := r.NewFrame(1)
	f.Set(0, pair.Value())
	for i := 0; i < 500; i++ {
		r.AllocArray(8, mem.Int(0))
	}
	p := f.Ref(0)
	if r.Read(p, 0) != r.Read(p, 1) {
		t.Fatal("sharing destroyed by collection")
	}
	f.Pop()
}

// LiveWords is the sum of the sizes of the owned chunks through the
// baseline's grow → collect → release cycle, and a collection down to a
// small survivor set leaves a small to-space, not a full-size chunk.
func TestLiveWordsMatchesOwnedChunks(t *testing.T) {
	r := New(1 << 11)
	sp := r.Space()
	check := func(when string) {
		t.Helper()
		var owned int64
		sp.ForEachChunk(func(c *mem.Chunk) {
			if c.HeapID() != 0 {
				owned += int64(c.Words())
			}
		})
		if live := sp.LiveWords(); live != owned {
			t.Fatalf("%s: LiveWords %d, owned chunks hold %d", when, live, owned)
		}
	}
	f := r.NewFrame(1)
	for i := 0; i < 1200; i++ {
		f.Set(0, r.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
		r.AllocArray(1+i%700, mem.Nil) // garbage of mixed sizes
		if i%97 == 0 {
			check("mid-growth")
		}
	}
	r.AllocArray(3*mem.ChunkWords, mem.Nil) // oversize, exact
	check("after an oversize object")
	if r.Collections < 3 {
		t.Fatalf("%d collections, want the cycle exercised", r.Collections)
	}
	f.Set(0, mem.Nil)
	r.collect()
	check("after collecting everything")
	if live := sp.LiveWords(); live != 0 {
		t.Fatalf("%d words live with nothing reachable", live)
	}
	f.Set(0, r.AllocRef(mem.Int(1)).Value())
	r.collect()
	if live := sp.LiveWords(); live != mem.MinChunkWords {
		t.Fatalf("%d words live for one ref cell, want one minimum chunk (%d)", live, mem.MinChunkWords)
	}
	f.Pop()
}
