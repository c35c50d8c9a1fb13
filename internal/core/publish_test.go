package core

import (
	"testing"

	"mplgo/internal/mem"
)

// A branch in pipeline's shape publishes n boxes into an array of its
// parent's, one down-pointer each, across two collection budgets. Every
// box is a remembered target that nothing else reaches, and they fill the
// branch's chunks: each collection traces them where they lie rather than
// copying them out. The budget makes each collection fall where the boxes
// fill at least half of the bump chunk (the classes 256 to 4 096 and one
// 8 192-word chunk, then one full and one nearly full). The peak residency
// holds the array, the boxes and at most a chunk more — not a second copy of
// the boxes in to-space.
func TestPublishedBoxesStayInPlace(t *testing.T) {
	const budget = 7936 + mem.ChunkWords
	const n = 16000
	rt := New(Config{Procs: 1, HeapBudgetWords: budget})
	_, err := rt.Run(func(tk *Task) mem.Value {
		f := tk.NewFrame(1)
		f.Set(0, tk.AllocArray(n, mem.Nil).Value())
		base := rt.space.LiveWords()
		rt.space.ResetMaxLive()
		tk.Par(
			func(t *Task) mem.Value {
				for i := 0; i < n; i++ {
					t.Write(f.Ref(0), i, t.AllocTuple(mem.Int(int64(i))).Value())
				}
				return mem.Nil
			},
			func(t *Task) mem.Value { return mem.Nil },
		)
		collections, copied, _ := rt.GCStats()
		if collections < 2 {
			t.Fatalf("%d collections, want one per budget", collections)
		}
		if copied != 0 {
			t.Errorf("%d collections copied %d words, want none", collections, copied)
		}
		if peak, limit := rt.space.MaxLiveWords()-base, int64(2*n+mem.ChunkWords); peak > limit {
			t.Errorf("residency peaked %d words above the array, want at most %d (boxes and a chunk)", peak, limit)
		}
		for i := 0; i < n; i += 1000 {
			if v := tk.Read(f.Ref(0), i); tk.Read(v.Ref(), 0).AsInt() != int64(i) {
				t.Fatalf("box %d lost", i)
			}
		}
		f.Pop()
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
