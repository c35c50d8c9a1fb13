package mem

import (
	"fmt"
	"sync/atomic"
)

// Mark states and the in-place sweep. Both collectors trace some chunks in
// place: the local one (gc.Collect) a leaf's Tenured chunks and those
// holding a pin, the concurrent one (gc.CGC) every chunk of the internal
// heaps it claims, which it then sweeps with SweepMarked, threading free
// lists through partially-dead chunks. Either marks what it finds live in a
// Marks installed on the chunk (Space.BeginMarks) and takes it off again
// (Space.EndMarks), never in the object's header. The one pointer is sound
// because the two collectors never hold mark state at once: a cycle claims
// only parked internal heaps while a local collection takes the active
// leaf, and the runtime serializes the two in time (DESIGN.md §9). An
// object traced in place does not move, so the pin-then-validate read
// barrier is unaffected; the only header state the sweep adds is the KFree
// kind stamped over dead runs.

// Marks is a collector's mark state for one chunk it traces in place: one
// bit per word, set at the header of each object found live, and Live, the
// words (headers included) of the marked objects, which the local
// collector adds as it scans them. Only the collector holding it touches
// it, so nothing in it is atomic.
//
// The local collector also installs one on a chunk it would evacuate, to
// decide from the leaf's remembered set whether to trace it in place
// instead: Remembered sums the words of the distinct objects remembered
// entries reach there (a Remember bit tells a repeat), -1 once a second
// entry reached one of them, and Deferred heads the chain of the entries it
// holds back until that sum is in (1 + an index of the collector's, 0 for
// none).
type Marks struct {
	bits       []uint64
	Live       int
	Remembered int
	Deferred   int
}

// Mark sets the bit of word off and reports whether it was clear: at an
// object's header, the first time the collection finds the object live.
func (m *Marks) Mark(off int) bool {
	w, b := off>>6, uint64(1)<<(off&63)
	if m.bits[w]&b != 0 {
		return false
	}
	m.bits[w] |= b
	return true
}

// Marked reports the bit of word off.
func (m *Marks) Marked(off int) bool { return m.bits[off>>6]&(uint64(1)<<(off&63)) != 0 }

// Remember sets the bit of the word after off and reports whether it was
// clear. No object's header lies there, every object taking at least two
// words, so the bit is free for the local collector's note that a
// remembered entry has reached the object headered at off.
func (m *Marks) Remember(off int) bool { return m.Mark(off + 1) }

// Marks returns the mark state installed on the chunk, nil when no
// collector traces it in place. One atomic load: it is also the concurrent
// cycle's in-scope test, which mutators make in the SATB shade path.
func (c *Chunk) Marks() *Marks { return c.marks.Load() }

// BeginMarks installs on c a cleared mark state from the space's pool and
// returns it. Installing over an installed state panics: it would mean
// both collectors trace c at once. The concurrent cycle calls it under the
// owning heap's gate, so the publication orders against SATB shade checks.
func (s *Space) BeginMarks(c *Chunk) *Marks {
	m, _ := s.marks.Get().(*Marks)
	if m == nil {
		m = new(Marks)
	}
	n := (c.Words() + 63) / 64
	if cap(m.bits) < n {
		m.bits = make([]uint64, n)
	} else {
		m.bits = m.bits[:n]
		clear(m.bits)
	}
	m.Live, m.Remembered, m.Deferred = 0, 0, 0
	if !c.marks.CompareAndSwap(nil, m) {
		panic(fmt.Sprintf("mem: chunk %d already carries a mark state", c.ID))
	}
	return m
}

// EndMarks takes c's mark state off, returns it to the pool and reports
// the live words it counted: 0 when c had none.
func (s *Space) EndMarks(c *Chunk) int {
	m := c.marks.Swap(nil)
	if m == nil {
		return 0
	}
	live := m.Live
	s.marks.Put(m)
	return live
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

// SweepMarked rebuilds the chunk's free list from its installed mark
// state: every maximal run of unmarked, unpinned objects (coalescing
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
	m := c.Marks()
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
		case m.Marked(off) || hd.Pinned():
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
