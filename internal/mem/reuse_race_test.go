package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunkReuseRaceStress guards the chunk release/reacquire handoff the
// concurrent sweep introduced: Space.Release pushes fully-dead chunks onto
// the shared free lists while other heaps' allocators pop them in NewChunk
// and write the words they carve, and the releasing heap's own allocator still holds the dead
// chunks in its reuse list until it revalidates. The test drives the full
// protocol from several heaps at once under -race (the CI race job covers
// this package), with reader goroutines following the system's actual
// discipline — object words are loaded only under the owning heap's gate,
// after re-validating chunk ownership, exactly like the entanglement slow
// path (entangle.OnRead); a per-heap RWMutex stands in for hierarchy.Gate,
// and the sweep/release section runs under the writer side like the real
// collector. Any plain store sneaking into an allocation's carve (outside
// storeRelaxed), Release, or SweepMarked's free-list threading, any free-list bookkeeping outside the space mutex,
// and any owner-side read of a released chunk's plain fields (the
// AddReusable/Revalidate ownership-check ordering) shows up as a race
// report. Values observed by the readers are deliberately not checked —
// stale readers re-validate and retry by contract, so only the memory
// ordering matters, which is what the detector verifies.
func TestChunkReuseRaceStress(t *testing.T) {
	sp := NewSpace()
	const (
		workers = 4
		iters   = 200
		batch   = 120 // tuples allocated per iteration before the sweep
	)

	type pub struct {
		r    Ref
		heap uint32
		dead *atomic.Bool // set by the owner, under its gate, at Release
	}
	refs := make(chan pub, 4096)             // refs published to the readers
	gates := make([]sync.RWMutex, workers+1) // stand-in reader gates, by heap id
	stop := make(chan struct{})
	var wg, readers sync.WaitGroup

	// Readers: hold published refs across sweeps and keep loading headers
	// and payload words — but only under the publishing heap's gate, and
	// only while the ref is still live, the entanglement slow path's
	// pin-then-validate discipline. The dead flag models the runtime's
	// root contract: a released chunk's refs are unreachable from every
	// frame by the time the sweep runs (the ragged handshake refuses to
	// let a cycle finish marking past an unscanned task), so no real
	// reader can carry one into a recycled chunk — heap-id validation
	// alone would not catch a chunk released and reacquired by the *same*
	// heap, whose bump allocator writes plainly. Refs in partially-dead
	// chunks stay readable: their words may concurrently become KFree
	// spans or get carved into new objects, which is exactly the stale
	// traffic SweepMarked and allocFromFree store atomically for.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var held []pub
			for {
				select {
				case <-stop:
					return
				case p := <-refs:
					held = append(held, p)
					if len(held) > 512 {
						held = held[len(held)-512:]
					}
				default:
					if len(held) == 0 {
						runtime.Gosched()
						continue
					}
					kept := held[:0]
					for _, p := range held {
						g := &gates[p.heap]
						g.RLock()
						if !p.dead.Load() && sp.ChunkOf(p.r).HeapID() == p.heap {
							h := sp.Header(p.r)
							_ = sp.Load(p.r, 0)
							_ = h
							kept = append(kept, p)
						}
						g.RUnlock()
					}
					held = kept
				}
			}
		}()
	}

	// Worker heaps: allocate a batch, mark a sparse subset live, then run
	// the collector's half of the protocol under the writer gate — install
	// bitmaps, sweep, release the fully dead chunks, buffer the partially
	// dead ones — then revalidate and keep carving from recycled spans,
	// racing every other worker's NewChunk over the shared free list.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			heap := uint32(w + 1)
			al := NewAllocator(sp, heap)
			// Published refs by chunk id, so releasing a chunk can revoke
			// them first — the root contract in miniature. Ids recycle
			// across heaps, but an entry is deleted at Release and only
			// repopulated by this worker's own allocations.
			pubsByChunk := map[uint32][]*atomic.Bool{}
			for it := 0; it < iters; it++ {
				var batchRefs []Ref
				for i := 0; i < batch; i++ {
					r := al.AllocTuple(Int(int64(it)), Int(int64(i)))
					batchRefs = append(batchRefs, r)
					d := new(atomic.Bool)
					pubsByChunk[r.Chunk()] = append(pubsByChunk[r.Chunk()], d)
					select {
					case refs <- pub{r, heap, d}:
					default:
					}
				}
				cs := al.Chunks
				al.Chunks = nil
				gates[heap].Lock()
				for ci, c := range cs {
					m := sp.BeginMarks(c)
					if ci == 0 && it%3 != 0 {
						// Keep a sparse subset of the first chunk live so
						// the sweep threads a free list through it.
						for j, r := range batchRefs {
							if j%16 == 0 && sp.ChunkOf(r).HeapID() == heap && sp.chunk(r.Chunk()) == c {
								m.Mark(r.Off())
							}
						}
					}
					_, dead := sp.SweepMarked(c)
					sp.EndMarks(c)
					if dead {
						for _, d := range pubsByChunk[c.ID] {
							d.Store(true)
						}
						delete(pubsByChunk, c.ID)
						sp.Release(c)
					} else {
						al.Chunks = append(al.Chunks, c)
						al.AddReusable(c)
					}
				}
				gates[heap].Unlock()
				// Owner side on resume: drop the bump chunk and reuse
				// entries the sweep released (their ids may already be
				// recycled into other heaps writing them right now).
				al.Revalidate()
				// Yield before touching the space mutex again: the next
				// NewChunk would publish a happens-before edge that hides
				// an unsynchronized Revalidate read of a released chunk
				// from the detector. The window is exactly resume-time in
				// the real runtime, where the owner may not allocate for
				// a long while.
				for y := 0; y < 4; y++ {
					runtime.Gosched()
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	// A free list must never hold an owned chunk — Release disowns before
	// pushing, NewChunk owns after popping — nor a capacity outside its
	// bucket.
	sp.mu.Lock()
	for i, free := range sp.free {
		for _, c := range free {
			if c.HeapID() != 0 {
				t.Errorf("chunk %d on free list %d still owned by heap %d", c.ID, i, c.HeapID())
			}
			if c.Words() != i<<granuleShift {
				t.Errorf("chunk %d of %d words on the free list of %d", c.ID, c.Words(), i<<granuleShift)
			}
		}
	}
	sp.mu.Unlock()
}
