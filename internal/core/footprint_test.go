package core

import (
	"testing"

	"mplgo/internal/mem"
)

// A leaf heap costs what it allocates: chunk classes start at
// mem.MinChunkWords and double per refill, so many small leaves stay within
// twice their allocation plus one minimum chunk each (a fixed
// mem.ChunkWords per leaf would be 2048·8192 words here).
func TestLeafFootprintBound(t *testing.T) {
	const leaves = 2048
	rt := New(Config{Procs: 1})
	if _, err := rt.Run(func(tk *Task) mem.Value {
		tk.ParFor(0, leaves, 1, func(tk *Task, lo, hi int) {
			for i := 0; i < 5; i++ {
				tk.AllocArray(99, mem.Int(int64(lo))) // 100 words with the header
			}
		})
		return mem.Nil
	}); err != nil {
		t.Fatal(err)
	}
	sp := rt.Space()
	alloc, peak := sp.TotalAllocWords(), sp.MaxLiveWords()
	if alloc < leaves*500 {
		t.Fatalf("allocated %d words, want at least %d", alloc, leaves*500)
	}
	if bound := 2*alloc + leaves*mem.MinChunkWords; peak > bound {
		t.Fatalf("peak residency %d words for %d allocated, bound %d", peak, alloc, bound)
	}
}

// LiveWords is the sum of the sizes of the chunks the live heaps own —
// whatever their class — while heaps grow, fork, join, collect and release.
func TestLiveWordsMatchesOwnedChunks(t *testing.T) {
	rt := New(Config{Procs: 1, HeapBudgetWords: 1 << 11})
	sp := rt.Space()
	check := func(when string) {
		t.Helper()
		if live, owned := sp.LiveWords(), rt.Tree().DumpTree(sp).TotalWords; live != owned {
			t.Fatalf("%s: LiveWords %d, owned chunks hold %d", when, live, owned)
		}
	}
	// grow builds a list of n cells of mixed sizes, most of it garbage, so
	// the allocator climbs the classes and collections release them again.
	grow := func(tk *Task, n int) mem.Value {
		f := tk.NewFrame(1)
		defer f.Pop()
		for i := 0; i < n; i++ {
			f.Set(0, tk.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
			tk.AllocArray(1+i%700, mem.Nil)
			if i%97 == 0 {
				check("mid-growth")
			}
		}
		return f.Get(0)
	}
	if _, err := rt.Run(func(tk *Task) mem.Value {
		grow(tk, 400)
		check("after the root grew")
		tk.AllocArray(3*mem.ChunkWords, mem.Nil) // oversize, exact
		check("after an oversize object")
		tk.Par(
			func(tk *Task) mem.Value { return grow(tk, 300) },
			func(tk *Task) mem.Value { return grow(tk, 300) },
		)
		check("after the join")
		grow(tk, 400)
		check("after collecting the merged heap")
		return mem.Nil
	}); err != nil {
		t.Fatal(err)
	}
	check("after the run")
	if n, _, _ := rt.GCStats(); n < 3 {
		t.Fatalf("%d collections, want the cycle exercised", n)
	}
}
