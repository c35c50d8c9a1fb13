package mem_test

import (
	"testing"
	"unsafe"

	"mplgo/internal/bench"
	"mplgo/internal/mem"
	"mplgo/mpl"
)

// TestRecordsFlattenOverLongRun runs 500 rounds of bfs(3000) in one Run at
// two workers, every kept leaf giving back the tail of its last chunk, and
// checks that the chunk records the table holds stay bounded: no backing
// array ever has more than four records or two records starting at one
// word, and over the last two hundred rounds the records grow by at most
// 5 % (about 1.5 %; a record minted per give-back grows them by about half
// there, and one per 16-word granule by a fifth) and the peak of LiveWords
// per hundred rounds by at most 5 %.
func TestRecordsFlattenOverLongRun(t *testing.T) {
	var bfs func(*mpl.Task, int) int64
	for _, b := range bench.All {
		if b.Name == "bfs" {
			bfs = b.MPL
		}
	}
	rt := mpl.New(mpl.Config{Procs: 2})
	sp := rt.Space()
	records := func() int {
		n := 0
		sp.ForEachChunk(func(*mem.Chunk) { n++ })
		return n
	}
	var recs [6]int
	var peak [6]int64
	_, err := rt.Run(func(tk *mpl.Task) mpl.Value {
		for r := 1; r <= 500; r++ {
			bfs(tk, 3000)
			if r%100 == 0 {
				recs[r/100], peak[r/100] = records(), sp.MaxLiveWords()
				sp.ResetMaxLive()
			}
		}
		return mpl.Int(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("records by hundred rounds %v, peak LiveWords %v", recs[1:], peak[1:])
	if 100*recs[5] > 105*recs[3] {
		t.Errorf("records grew from %d to %d over the last two hundred rounds", recs[3], recs[5])
	}
	if 100*peak[5] > 105*peak[3] {
		t.Errorf("peak LiveWords grew from %d to %d over the last two hundred rounds", peak[3], peak[5])
	}

	// Every record of a backing array ends where the array does.
	starts := map[*uint64]map[*uint64]bool{}
	sp.ForEachChunk(func(c *mem.Chunk) {
		if len(c.Data) > mem.ChunkWords {
			return // oversize: a record of its own
		}
		end, at := &c.Data[len(c.Data)-1], unsafe.SliceData(c.Data)
		if starts[end] == nil {
			starts[end] = map[*uint64]bool{}
		}
		if starts[end][at] {
			t.Fatalf("two records start at one word of a backing array (chunk %d)", c.ID)
		}
		starts[end][at] = true
		if len(starts[end]) > 4 {
			t.Fatalf("a backing array has more than four records (chunk %d)", c.ID)
		}
	})
}
