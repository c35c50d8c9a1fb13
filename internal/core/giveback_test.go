package core

import (
	"testing"

	"mplgo/internal/mem"
)

// A branch whose heap its result keeps gives back the unused tail of its
// last chunk as it returns: the chunk holding the result keeps only the
// granule the branch allocated into, and LiveWords grows by that alone.
// A branch nothing keeps drops its chunks whole.
func TestSettleGivesBackKeptTail(t *testing.T) {
	rt := New(Config{Procs: 1})
	_, err := rt.Run(func(tk *Task) mem.Value {
		before := rt.space.LiveWords()
		kept, _ := tk.Par(
			func(t *Task) mem.Value { return t.AllocTuple(mem.Int(1)).Value() },
			func(t *Task) mem.Value { t.AllocTuple(mem.Int(2)); return mem.Nil },
		)
		if c := rt.space.ChunkOf(kept.Ref()); c.Words() != 16 || c.Alloc != 2 {
			t.Errorf("the kept branch's chunk holds %d words, Alloc %d; want one 16-word granule", c.Words(), c.Alloc)
		}
		if grown := rt.space.LiveWords() - before; grown != 16 {
			t.Errorf("LiveWords grew by %d over the two branches, want 16", grown)
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
