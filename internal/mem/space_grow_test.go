package mem

import (
	"errors"
	"testing"
)

// jumpTo fast-forwards the next chunk id (white-box), so tests can cross
// directory-growth boundaries without allocating millions of chunks.
func jumpTo(s *Space, id uint32) {
	s.mu.Lock()
	s.next = id
	s.mu.Unlock()
}

// Allocating past the capacity the directory starts with must grow it,
// not panic (the pre-hardening runtime aborted at a fixed
// dirSize*segSize chunks).
func TestChunkTableGrows(t *testing.T) {
	s := NewSpace()
	before := s.NewChunk(1, ChunkWords)
	jumpTo(s, initChunks-2) // straddle the initial directory capacity
	var cs []*Chunk
	for i := 0; i < 4; i++ {
		c := s.NewChunk(1, MinChunkWords<<i) // ids are shared by every class
		if c == nil {
			t.Fatalf("NewChunk returned nil at iteration %d", i)
		}
		cs = append(cs, c)
	}
	if got := cs[len(cs)-1].ID; got < initChunks {
		t.Fatalf("expected ids past the initial capacity, last id %d", got)
	}
	// Chunks on both sides of the growth resolve, via the fast path and
	// the bounds-safe one.
	for _, c := range append(cs, before) {
		if s.chunk(c.ID) != c {
			t.Fatalf("chunk %d not resolvable via fast path", c.ID)
		}
		if s.ChunkByID(c.ID) != c {
			t.Fatalf("chunk %d not resolvable via ChunkByID", c.ID)
		}
	}
	// Unpublished ids resolve to nil, not a fault.
	if s.ChunkByID(cs[len(cs)-1].ID+100) != nil {
		t.Fatal("unpublished id resolved to a chunk")
	}
}

// Repeated growth: ids landing several doublings out force copy-install
// reinstalls, and chunks published through an earlier directory stay
// resolvable afterwards (the copy preserves every published slot).
func TestChunkTableRepeatedGrowth(t *testing.T) {
	s := NewSpace()
	jumpTo(s, initChunks)
	first := s.NewChunk(1, ChunkWords)
	first.Data[5] = 0xDEAD
	jumpTo(s, initChunks+8*segSize*initDirLen) // several doublings at once
	far := s.NewChunk(1, ChunkWords)
	if got := s.chunk(first.ID); got != first || got.Data[5] != 0xDEAD {
		t.Fatal("chunk corrupted or lost by directory growth")
	}
	if s.chunk(far.ID) != far {
		t.Fatalf("chunk %d not resolvable after directory growth", far.ID)
	}
}

// Exhausting the absolute (uint32 ref-encoding) id space is a genuine
// limit: it must surface as a typed error panic the runtime's panic-safe
// fork–join can convert to a Run error, not a bare string abort.
func TestChunkTableAbsoluteCap(t *testing.T) {
	s := NewSpace()
	jumpTo(s, maxChunks-1)
	c := s.NewChunk(1, ChunkWords+1) // last representable id
	if c.ID != maxChunks-1 {
		t.Fatalf("last id = %d, want %d", c.ID, uint32(maxChunks-1))
	}
	defer func() {
		v := recover()
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrChunkTableExhausted) {
			t.Fatalf("recovered %v, want ErrChunkTableExhausted", v)
		}
	}()
	s.NewChunk(1, ChunkWords+1)
	t.Fatal("allocation past the absolute cap did not panic")
}
