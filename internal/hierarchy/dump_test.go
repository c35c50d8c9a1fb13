package hierarchy

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"mplgo/internal/mem"
)

func TestDumpTree(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	root := tr.Root()
	a := tr.Fork(root)
	b := tr.Fork(root)
	aa := tr.Fork(a)

	// One chunk per heap and an extra one for a; each of another size
	// class, so Words must sum sizes, not count chunks.
	sp.NewChunk(root.ID, mem.ChunkWords)
	sp.NewChunk(a.ID, 0)
	sp.NewChunk(a.ID, 4*mem.MinChunkWords)
	sp.NewChunk(b.ID, 3*mem.ChunkWords) // oversize: exact
	sp.NewChunk(aa.ID, 2*mem.MinChunkWords)
	a.CGCPark()

	d := tr.DumpTree(sp)
	if d.LiveHeaps != 4 || len(d.Heaps) != 4 {
		t.Fatalf("LiveHeaps = %d, len = %d", d.LiveHeaps, len(d.Heaps))
	}
	byID := map[uint32]HeapDump{}
	for _, h := range d.Heaps {
		byID[h.ID] = h
	}
	if h := byID[root.ID]; h.Chunks != 1 || h.Parent != 0 || h.Depth != 0 || h.LiveChildren != 2 {
		t.Fatalf("root dump %+v", h)
	}
	if h := byID[a.ID]; h.Chunks != 2 || h.Words != 5*mem.MinChunkWords || h.Parent != root.ID || h.CGCState != "parked" {
		t.Fatalf("a dump %+v", h)
	}
	if h := byID[aa.ID]; h.Words != 2*mem.MinChunkWords || h.Depth != 2 {
		t.Fatalf("aa dump %+v", h)
	}
	// The pinned total is the caller's to fill (from the pin gauge).
	if d.Pinned != 0 || d.TotalWords != 4*mem.ChunkWords+7*mem.MinChunkWords {
		t.Fatalf("totals: pinned %d words %d", d.Pinned, d.TotalWords)
	}
	d.Pinned = 1

	var jb bytes.Buffer
	if err := d.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var round TreeDump
	if err := json.Unmarshal(jb.Bytes(), &round); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(round.Heaps) != 4 || round.TotalWords != d.TotalWords || round.Pinned != 1 {
		t.Fatalf("round-trip mismatch: %+v", round)
	}
	if strings.Count(jb.String(), `"pinned"`) != 1 {
		t.Fatalf("JSON carries a per-heap pinned field:\n%s", jb.String())
	}

	var db bytes.Buffer
	if err := d.WriteDOT(&db); err != nil {
		t.Fatal(err)
	}
	dot := db.String()
	for _, want := range []string{
		"digraph heaps {",
		"parked",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "pinned") {
		t.Fatalf("DOT output shows pins per heap:\n%s", dot)
	}
}

func TestCGCStateName(t *testing.T) {
	tr := New()
	h := tr.Fork(tr.Root())
	if s := h.CGCStateName(); s != "active" {
		t.Fatalf("fresh heap state %q", s)
	}
	h.CGCPark()
	if s := h.CGCStateName(); s != "parked" {
		t.Fatalf("parked state %q", s)
	}
	if !h.CGCClaim() {
		t.Fatal("claim failed")
	}
	if s := h.CGCStateName(); s != "scoped" {
		t.Fatalf("scoped state %q", s)
	}
	if !h.CGCBeginSweep() {
		t.Fatal("begin sweep failed")
	}
	if s := h.CGCStateName(); s != "sweeping" {
		t.Fatalf("sweeping state %q", s)
	}
	h.CGCRelease()
	if !h.CGCTryResume() {
		t.Fatal("resume failed")
	}
}

// TestDumpTreeConcurrent exercises DumpTree while heaps fork, merge, and
// chunks churn — under -race this proves the snapshot touches only
// synchronized state.
func TestDumpTreeConcurrent(t *testing.T) {
	tr := New()
	sp := mem.NewSpace()
	root := tr.Root()
	sp.NewChunk(root.ID, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Bounded: every DumpTree walks all heaps ever forked, so an
		// unbounded forker on a starved box (-race beside other packages)
		// outruns the 200 dumps and exhausts memory.
		for n := 0; n < 50_000; n++ {
			select {
			case <-stop:
				return
			default:
			}
			c := tr.Fork(root)
			ch := sp.NewChunk(c.ID, 0)
			tr.Merge(c, root, sp)
			sp.Release(ch)
		}
	}()
	for i := 0; i < 200; i++ {
		d := tr.DumpTree(sp)
		if d.LiveHeaps < 1 {
			t.Errorf("no live heaps in snapshot")
			break
		}
		var jb bytes.Buffer
		if err := d.WriteJSON(&jb); err != nil {
			t.Errorf("WriteJSON: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
