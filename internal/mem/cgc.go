package mem

import "sync/atomic"

// Concurrent-collection support: per-chunk mark bitmaps and the in-place
// sweep that threads free lists through partially-dead chunks. The moving
// collector (gc.Collect) evacuates leaf heaps; internal heaps are instead
// collected in place by gc.CGC, which marks into the side bitmaps below and
// then calls SweepMarked on each snapshot chunk. Objects never move, so the
// pin-then-validate read barrier is unaffected; the only new header state is
// the KFree kind stamped over dead runs.

// markBitmap holds one bit per chunk word. Bits are written exclusively by
// the single CGC worker goroutine; mutators only ever test the installed
// pointer (CGCScoped) to decide whether a chunk is in the current cycle's
// snapshot.
type markBitmap []uint64

// InstallMarks attaches a cleared mark bitmap to the chunk, placing it in
// the current concurrent cycle's snapshot. Called under the owning heap's
// collection gate so the publication orders against SATB shade checks.
func (c *Chunk) InstallMarks() {
	m := make(markBitmap, (len(c.Data)+63)/64)
	c.marks.Store(&m)
}

// DropMarks detaches the mark bitmap, taking the chunk out of CGC scope.
func (c *Chunk) DropMarks() { c.marks.Store(nil) }

// CGCScoped reports whether the chunk is in the current concurrent cycle's
// snapshot. One atomic load: this is the mutator-side scope test in the
// SATB shade path and in root harvesting.
func (c *Chunk) CGCScoped() bool { return c.marks.Load() != nil }

// Mark sets the mark bit for the object headered at off and reports whether
// it was newly set. CGC worker only.
func (c *Chunk) Mark(off int) bool {
	m := c.marks.Load()
	if m == nil {
		return false
	}
	w, b := off>>6, uint64(1)<<(off&63)
	if (*m)[w]&b != 0 {
		return false
	}
	(*m)[w] |= b
	return true
}

// Marked reports the mark bit for the object headered at off. CGC worker
// only; false when no bitmap is installed.
func (c *Chunk) Marked(off int) bool {
	m := c.marks.Load()
	if m == nil {
		return false
	}
	return (*m)[off>>6]&(uint64(1)<<(off&63)) != 0
}

// FreeWordCount returns the words covered by the chunk's threaded free
// spans. Owner/sweeper context only (see Chunk.freeWords).
func (c *Chunk) FreeWordCount() int { return c.freeWords }

// SweepStats summarizes one chunk's in-place sweep.
type SweepStats struct {
	LiveObjects int // objects kept (marked or pinned)
	LiveWords   int // words they occupy, headers included
	FreedWords  int // words newly turned from dead objects into free spans
	FreeWords   int // total words in free spans after the sweep
}

// SweepMarked rebuilds the chunk's free list from the installed mark
// bitmap: every maximal run of unmarked, unpinned objects (coalescing
// previously-freed KFree spans) becomes a single KFree span threaded onto
// the chunk's free list. It reports the stats and whether the chunk came
// out fully dead (no live objects, pinned ones included) — in which case
// the caller should Release it instead of keeping the (unbuilt) free list.
//
// Must run with the owning heap's collection gate held and the owner
// parked: the gate excludes in-flight pins, so the pinned-bit checks are
// stable, and the bump offset c.Alloc cannot advance. Headers
// and free-list links are written atomically because stale readers (failed
// entanglement validations about to retry) may still load these words.
func (s *Space) SweepMarked(c *Chunk) (SweepStats, bool) {
	var st SweepStats
	type span struct{ off, size int }
	var runs []span
	runStart, runWords := -1, 0
	flush := func() {
		if runStart >= 0 {
			runs = append(runs, span{runStart, runWords})
			runStart, runWords = -1, 0
		}
	}
	for off := 0; off < c.Alloc; {
		hd := Header(atomic.LoadUint64(&c.Data[off]))
		if !hd.Valid() {
			// Torn chunk — should be impossible under the gate; stop
			// sweeping rather than corrupt it further.
			break
		}
		n := hd.Len()
		if n < 1 {
			n = 1
		}
		size := 1 + n
		switch {
		case hd.Kind() == KFree:
			if runStart < 0 {
				runStart = off
			}
			runWords += size
		case c.Marked(off) || hd.Pinned():
			flush()
			st.LiveObjects++
			st.LiveWords += size
		default:
			// The freed object's header becomes a free header, so a stale
			// reference to it — a CGC grey, a remembered entry naming it as
			// holder — reads KFree and is dropped, not the dead object's
			// intact header and fields, which the span keeps.
			atomic.StoreUint64(&c.Data[off], MakeHeader(KFree, hd.Len()))
			if runStart < 0 {
				runStart = off
			}
			runWords += size
			st.FreedWords += size
		}
		off += size
	}
	flush()
	if st.LiveObjects == 0 {
		return st, true
	}
	// Thread the free list front-to-back. Each span gets a KFree header
	// spanning the whole run and a next link in payload word 0; the rest of
	// the span keeps what its dead objects left, which no reader parses and
	// the allocation that carves it overwrites (DESIGN.md §6 decision 1).
	// Runs are at least 2 words (header + one payload word), so every span
	// has room for the link. A chunk with holes is no longer dense: the
	// heap's next local collection copies out of it rather than keeping it.
	c.Tenured = c.Tenured && len(runs) == 0
	c.freeHead = 0
	c.freeWords = 0
	for i := len(runs) - 1; i >= 0; i-- {
		r := runs[i]
		atomic.StoreUint64(&c.Data[r.off+1], uint64(c.freeHead))
		atomic.StoreUint64(&c.Data[r.off], MakeHeader(KFree, r.size-1))
		c.freeHead = r.off + 1
		c.freeWords += r.size
	}
	st.FreeWords = c.freeWords
	return st, false
}
