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

// TestArenasFlattenOverLongRun runs 1 000 rounds of bfs(3000) in one Run at
// one worker, where the run is the same every time, and checks the space's
// whole footprint: the arenas (backing arrays of class chunks, free or
// owned) and the records go flat after 500 rounds of warm-up, growing by at
// most 5 % over the last 500, and the arenas hold at most 1.16 times the
// peak LiveWords of those rounds. It reads 1.152 (473 arenas): merged pieces
// of arenas that no refill up to its class can take sit free while small
// refills make arenas of their own. At two workers it reads 1.12-1.15 and,
// under a concurrent load, spreads too wide to gate.
func TestArenasFlattenOverLongRun(t *testing.T) {
	var bfs func(*mpl.Task, int) int64
	for _, b := range bench.All {
		if b.Name == "bfs" {
			bfs = b.MPL
		}
	}
	rt := mpl.New(mpl.Config{Procs: 1})
	sp := rt.Space()
	type sample struct {
		arenas, records int
		words           int64
	}
	take := func() (s sample) {
		s.arenas, s.words = sp.ArenaStats()
		sp.ForEachChunk(func(*mem.Chunk) { s.records++ })
		return s
	}
	var warm, end sample
	_, err := rt.Run(func(tk *mpl.Task) mpl.Value {
		for r := 1; r <= 1000; r++ {
			bfs(tk, 3000)
			if r == 500 {
				warm = take()
				sp.ResetMaxLive()
			}
		}
		end = take()
		return mpl.Int(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	peak := sp.MaxLiveWords()
	t.Logf("after warm-up %+v, at the end %+v, peak LiveWords %d (arena words %.3f of it)",
		warm, end, peak, float64(end.words)/float64(peak))
	if 100*end.arenas > 105*warm.arenas || 100*end.records > 105*warm.records {
		t.Errorf("arenas grew %d -> %d and records %d -> %d after warm-up", warm.arenas, end.arenas, warm.records, end.records)
	}
	if 100*end.words > 116*peak {
		t.Errorf("the arenas hold %d words, over 1.16 times the peak LiveWords %d", end.words, peak)
	}
}
