package mem

import (
	"sync/atomic"

	"mplgo/internal/chaos"
)

// Kind classifies heap objects. The kind determines mutability (and hence
// which accesses take the entanglement barriers) and whether the payload
// holds tagged values that the collectors must scan.
type Kind uint8

const (
	// KForward marks a forwarded object: the first payload word holds the
	// tagged Value of the object's new location. Forwarding headers are
	// installed by the copying collector.
	KForward Kind = iota
	// KTuple is an immutable record of tagged values.
	KTuple
	// KArray is a mutable array of tagged values.
	KArray
	// KRefCell is a mutable cell holding a single tagged value (ML `ref`).
	KRefCell
	// KRaw is an immutable blob of untagged words (string/byte data).
	// The collectors do not scan raw payloads.
	KRaw
	// KFree marks a dead run of words reclaimed in place by the concurrent
	// collector's sweep (gc/cgc.go). The header length spans the whole run,
	// so chunk walks skip it like any object; the first payload word threads
	// the chunk's free list (1 + offset of the next free span, 0 = end).
	// Free spans are never candidates, pinned, or scanned, and the
	// allocator may carve new objects out of them (Allocator.AddReusable).
	KFree
)

func (k Kind) String() string {
	switch k {
	case KForward:
		return "forward"
	case KTuple:
		return "tuple"
	case KArray:
		return "array"
	case KRefCell:
		return "ref"
	case KRaw:
		return "raw"
	case KFree:
		return "free"
	}
	return "invalid"
}

// Mutable reports whether objects of this kind admit Write operations,
// and therefore participate in entanglement creation.
func (k Kind) Mutable() bool { return k == KArray || k == KRefCell }

// Scanned reports whether the payload holds tagged values the collectors
// must trace through.
func (k Kind) Scanned() bool { return k == KTuple || k == KArray || k == KRefCell }

// Object header layout (one uint64 preceding the payload):
//
//	bits  0..2   kind
//	bit   3      candidate — a down-pointer or entangled read reached this
//	             object; reads *through* it must take the slow path
//	bit   4      pinned — the object may not be moved or reclaimed by LGC
//	bit   5      mark — transient mark used inside a single collection
//	bit   6      valid — always set; guarantees headers are nonzero
//	bit   7      busy — a copying collector has claimed the object for
//	             relocation; pin attempts must back off and retry
//	bits 16..47  payload length in words (max 2^32-1, clipped by offBits)
//	bits 48..63  unpin depth — the shallowest hierarchy depth at which the
//	             object was pinned; merging to that depth unpins it
//
// The header is a small atomic state machine coordinating the entanglement
// slow path with the copying collector, with three stable states and one
// transient one:
//
//	           PinHeader (CAS; sets       TryUnpin (CAS, at joins; the
//	           candidate with pinned)     candidate bit stays)
//	  ┌────────────────────────────► PINNED ────────────────────────────┐
//	  │                                ▲                                │
//	PLAIN ◄────────────────────────────┼────────────────────────────────┘
//	  │                                │ PinHeader while BUSY/FORWARDED
//	  │ BeginCopy (CAS)                │ fails; the reader re-validates
//	  ▼                                │ and retries against the object's
//	 BUSY ──────────────────────► FORWARDED (terminal)
//	       Forward (store; the
//	       collector owns BUSY)
//
// Every transition is a single CAS on the header word, so a pin can be
// ordered against a concurrent copy without any external lock: exactly one
// of PinHeader / BeginCopy wins on a PLAIN header, and each loser observes
// why it lost (PinBusy / PinForwarded, or a pinned header making BeginCopy
// return false, telling the collector to trace the object in place).
// PINNED implies candidate: a pinned object was acquired through
// entanglement, so reads through it take the slow path, and the transition
// that pins it says so — no reader ever sees a pinned header without the
// bit.
const (
	hdrKindMask  = 0x7
	hdrCandidate = 1 << 3
	hdrPinned    = 1 << 4
	hdrMark      = 1 << 5
	hdrValid     = 1 << 6
	hdrBusy      = 1 << 7
	hdrLenShift  = 16
	hdrLenMask   = 0xFFFFFFFF
	hdrUnpinSh   = 48
)

// MaxUnpinDepth is the deepest hierarchy depth representable in a header.
const MaxUnpinDepth = 0xFFFF

// MakeHeader builds a fresh object header.
func MakeHeader(k Kind, payloadWords int) uint64 {
	return uint64(k) | hdrValid | uint64(payloadWords)<<hdrLenShift
}

// Header is a decoded view of an object header word.
type Header uint64

// Kind returns the object kind.
func (h Header) Kind() Kind { return Kind(h & hdrKindMask) }

// Len returns the payload length in words.
func (h Header) Len() int { return int(uint64(h) >> hdrLenShift & hdrLenMask) }

// Candidate reports the candidate bit.
func (h Header) Candidate() bool { return h&hdrCandidate != 0 }

// Pinned reports the pinned bit.
func (h Header) Pinned() bool { return h&hdrPinned != 0 }

// Marked reports the transient mark bit.
func (h Header) Marked() bool { return h&hdrMark != 0 }

// Busy reports whether a collector has claimed the object for relocation.
func (h Header) Busy() bool { return h&hdrBusy != 0 }

// Valid reports whether this looks like a real object header.
func (h Header) Valid() bool { return h&hdrValid != 0 }

// UnpinDepth returns the depth at which the object unpins.
func (h Header) UnpinDepth() int { return int(uint64(h) >> hdrUnpinSh) }

// PinnedWithin reports whether h is the header of an object pinned — and
// so a candidate, not busy, not forwarded — with an unpin depth of at most
// depth.
func (h Header) PinnedWithin(depth int) bool {
	const want = hdrValid | hdrPinned | hdrCandidate
	return h&(want|hdrBusy) == want && h.Kind() != KForward && h.UnpinDepth() <= depth
}

// Space-level object accessors. These are the raw (barrier-free) operations;
// the runtime's Task.Read/Task.Write wrap them with entanglement barriers.
// The Chunk methods of the same names are the same accessors for a caller
// that has already resolved r's chunk.

// Header returns the decoded header of the object at r.
func (s *Space) Header(r Ref) Header { return s.chunk(r.Chunk()).Header(r) }

// Header returns the decoded header of the object at r, which lies in c.
func (c *Chunk) Header(r Ref) Header { return Header(atomic.LoadUint64(&c.Data[r.Off()])) }

// setHeaderBits atomically ORs bits into the header of r and reports whether
// the bits were previously clear (i.e. this call changed the header).
func (s *Space) setHeaderBits(r Ref, bits uint64) bool {
	c := s.chunk(r.Chunk())
	p := &c.Data[r.Off()]
	for {
		old := atomic.LoadUint64(p)
		if old&bits == bits {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, old|bits) {
			return true
		}
	}
}

// clearHeaderBits atomically clears bits in the header of r.
func (s *Space) clearHeaderBits(r Ref, bits uint64) {
	c := s.chunk(r.Chunk())
	p := &c.Data[r.Off()]
	for {
		old := atomic.LoadUint64(p)
		if old&bits == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, old&^bits) {
			return
		}
	}
}

// SetCandidate marks r as an entanglement candidate.
// It reports whether the bit was newly set.
func (s *Space) SetCandidate(r Ref) bool { return s.setHeaderBits(r, hdrCandidate) }

// PinStatus reports the outcome of a PinHeader transition attempt.
type PinStatus uint8

const (
	// PinNew means the object was newly pinned (the caller owns the
	// obligation to publish the pin to the heap's pin buffer).
	PinNew PinStatus = iota
	// PinDepthLowered means the object was already pinned and this call
	// lowered its unpin depth (extending the pin's lifetime).
	PinDepthLowered
	// PinAlready means the object was already a pinned candidate at least
	// as deep as requested; the header was not modified.
	PinAlready
	// PinBusy means a collector holds the object in the transient BUSY
	// state mid-copy; the caller must back off and retry.
	PinBusy
	// PinForwarded means the object has been relocated; the caller must
	// re-read the field it came from and retry against the new location.
	PinForwarded
)

// PinCASSnapshot totals PinHeader's outcomes over a run, as its callers
// count them: Attempts is the sum of the five outcomes, and Retries counts
// the CASes lost to a racing pin or unpin, which loop rather than return.
type PinCASSnapshot struct {
	Attempts     int64 `json:"attempts"`
	Retries      int64 `json:"retries"`
	Busy         int64 `json:"busy"`
	Forwarded    int64 `json:"forwarded"`
	New          int64 `json:"new"`
	DepthLowered int64 `json:"depth_lowered"`
	Already      int64 `json:"already"`
}

// PinHeader attempts the PLAIN/PINNED → PINNED transition on r with the
// given unpin depth: a single CAS that fails cleanly against a concurrent
// copy, and that sets the candidate bit in the same word — whatever is
// pinned was reached through entanglement, so reads through it must take
// the slow path. If r is already pinned, the unpin depth is lowered to
// min(existing, depth) so the object stays pinned long enough for every
// entanglement involving it. The busy and forwarded states are reported to
// the caller rather than retried here — resolving them needs information
// (the holder field, the heap epoch) only the caller has.
//
// Besides the status, PinHeader returns the header it observed, before the
// transition if it made one: its length prices the pin and its candidate
// bit says whether this call set it, with no second header load. It counts
// nothing itself; retries is the number of CASes it lost and looped on, for
// the caller to count with the outcome.
func (s *Space) PinHeader(r Ref, unpinDepth int) (st PinStatus, was Header, retries int) {
	return s.PinAt(s.chunk(r.Chunk()), r, unpinDepth)
}

// PinAt is PinHeader for a caller that has already resolved r's chunk c.
func (s *Space) PinAt(c *Chunk, r Ref, unpinDepth int) (st PinStatus, was Header, retries int) {
	if unpinDepth < 0 {
		unpinDepth = 0
	}
	if unpinDepth > MaxUnpinDepth {
		unpinDepth = MaxUnpinDepth
	}
	if s.Chaos != nil && s.Chaos.Should(chaos.HeaderCAS) {
		// Refuse the pin as a racing copier's BUSY window would, forcing
		// the caller through its back-off/re-resolve retry path.
		return PinBusy, c.Header(r), 0
	}
	p := &c.Data[r.Off()]
	for ; ; retries++ {
		old := atomic.LoadUint64(p)
		h := Header(old)
		if h.Kind() == KForward {
			return PinForwarded, h, retries
		}
		if h.Busy() {
			return PinBusy, h, retries
		}
		newDepth := unpinDepth
		wasPinned := h.Pinned()
		if wasPinned && h.UnpinDepth() < newDepth {
			newDepth = h.UnpinDepth()
		}
		nw := old&^(uint64(0xFFFF)<<hdrUnpinSh) | hdrPinned | hdrCandidate | uint64(newDepth)<<hdrUnpinSh
		if nw == old {
			return PinAlready, h, retries
		}
		if atomic.CompareAndSwapUint64(p, old, nw) {
			if !wasPinned {
				atomic.AddInt32(&c.PinCount, 1)
				return PinNew, h, retries
			}
			return PinDepthLowered, h, retries
		}
	}
}

// Pin pins r with the given unpin depth, preventing the moving collector
// from relocating or reclaiming it. It reports whether r was newly pinned.
// Single-owner convenience wrapper over PinHeader: callers racing a
// collector must use PinHeader and handle PinBusy/PinForwarded themselves.
func (s *Space) Pin(r Ref, unpinDepth int) bool {
	st, _, _ := s.PinHeader(r, unpinDepth)
	return st == PinNew
}

// Unpin clears the pinned bit of r. It reports whether r was pinned.
func (s *Space) Unpin(r Ref) bool {
	c := s.chunk(r.Chunk())
	p := &c.Data[r.Off()]
	for {
		old := atomic.LoadUint64(p)
		if Header(old).Pinned() == false {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, old&^uint64(hdrPinned)) {
			atomic.AddInt32(&c.PinCount, -1)
			return true
		}
	}
}

// TryUnpin performs the PINNED → PLAIN transition only if r's header still
// equals the snapshot the caller examined: a concurrent PinHeader that
// lowered the unpin depth in between makes the CAS fail, so a join can
// never revoke a pin it has not seen. It reports whether the unpin took.
func (s *Space) TryUnpin(r Ref, observed Header) bool {
	if !observed.Pinned() {
		return false
	}
	c := s.chunk(r.Chunk())
	p := &c.Data[r.Off()]
	if atomic.CompareAndSwapUint64(p, uint64(observed), uint64(observed)&^uint64(hdrPinned)) {
		atomic.AddInt32(&c.PinCount, -1)
		return true
	}
	return false
}

// BeginCopy attempts the PLAIN → BUSY transition, claiming r for
// relocation. It returns the claimed header and true on success; if r is
// pinned, already claimed, or already forwarded, it returns the current
// header and false and the collector must trace the object in place (or
// skip it). While BUSY, the claiming collector is the only mutator of the
// header: PinHeader backs off, and no other collector can reach the object
// (collections are per-suffix and suffixes are disjoint).
func (s *Space) BeginCopy(r Ref) (Header, bool) { return s.chunk(r.Chunk()).BeginCopy(r.Off()) }

// BeginCopy is Space.BeginCopy for a caller that has already resolved the
// chunk: off is the word offset of the object's header in c.
func (c *Chunk) BeginCopy(off int) (Header, bool) {
	p := &c.Data[off]
	for {
		old := atomic.LoadUint64(p)
		h := Header(old)
		if h.Pinned() || h.Busy() || h.Kind() == KForward {
			return h, false
		}
		if atomic.CompareAndSwapUint64(p, old, old|hdrBusy) {
			return h, true
		}
	}
}

// SetMark sets the transient mark bit; reports whether it was newly set.
func (s *Space) SetMark(r Ref) bool { return s.setHeaderBits(r, hdrMark) }

// ClearMark clears the transient mark bit.
func (s *Space) ClearMark(r Ref) { s.clearHeaderBits(r, hdrMark) }

// Load reads payload word i of the object at r without any barrier.
func (s *Space) Load(r Ref, i int) Value { return s.chunk(r.Chunk()).Load(r, i) }

// Load reads payload word i of the object at r, which lies in c.
func (c *Chunk) Load(r Ref, i int) Value { return Value(atomic.LoadUint64(&c.Data[r.Off()+1+i])) }

// LoadChecked loads payload word i of the object at r and reports whether
// a barriered read must take the entanglement slow path: the loaded value
// is a reference and the holder carries the candidate bit. It is the fused
// read-barrier fast path: one chunk resolution serves both the value and
// the header, and for non-reference values (the common case in
// disentangled code) the whole barrier is a single atomic load plus a bit
// test — the header is never touched.
//
// The value is loaded before the header, matching the write barrier's
// ordering guarantee (candidate bit set before the down-pointer store):
// any reader that observes the new pointer also observes the bit.
func (s *Space) LoadChecked(r Ref, i int) (Value, bool) {
	v, c := s.LoadCandidate(r, i)
	return v, c != nil
}

// LoadCandidate is LoadChecked for the read barrier itself: in place of the
// verdict it returns the holder's chunk when the read must take the slow
// path (nil when it need not), so the slow path reads the field again
// without resolving the holder a second time.
func (s *Space) LoadCandidate(r Ref, i int) (Value, *Chunk) {
	c := s.chunk(r.Chunk())
	off := r.Off()
	v := Value(atomic.LoadUint64(&c.Data[off+1+i]))
	if v.IsRef() && atomic.LoadUint64(&c.Data[off])&hdrCandidate != 0 {
		return v, c
	}
	return v, nil
}

// Words is an object's payload, resolved once by Payload. Its accessors
// are Load and Store (atomic, like Space.Load/Store) for word i of the
// payload; a caller that must check an index compares it with len.
type Words []uint64

// Load reads payload word i.
func (w Words) Load(i int) Value { return Value(atomic.LoadUint64(&w[i])) }

// Store writes payload word i.
func (w Words) Store(i int, v Value) { atomic.StoreUint64(&w[i], uint64(v)) }

// Payload resolves the chunk of the object at r once and returns its
// payload words, as many as the header says. The window is valid while the
// object cannot move: the caller's contract is Load's.
func (s *Space) Payload(r Ref) Words {
	c := s.chunk(r.Chunk())
	off := r.Off() + 1
	n := Header(atomic.LoadUint64(&c.Data[off-1])).Len()
	return Words(c.Data[off : off+n : off+n])
}

// Store writes payload word i of the object at r without any barrier.
func (s *Space) Store(r Ref, i int, v Value) {
	c := s.chunk(r.Chunk())
	atomic.StoreUint64(&c.Data[r.Off()+1+i], uint64(v))
}

// CAS atomically compares-and-swaps payload word i of the object at r,
// without any barrier. It reports whether the swap happened.
func (s *Space) CAS(r Ref, i int, old, new Value) bool {
	c := s.chunk(r.Chunk())
	return atomic.CompareAndSwapUint64(&c.Data[r.Off()+1+i], uint64(old), uint64(new))
}

// LoadRaw reads an untagged payload word (for KRaw objects).
func (s *Space) LoadRaw(r Ref, i int) uint64 {
	c := s.chunk(r.Chunk())
	return c.Data[r.Off()+1+i]
}

// StoreRaw writes an untagged payload word (for KRaw objects, during init).
func (s *Space) StoreRaw(r Ref, i int, w uint64) {
	c := s.chunk(r.Chunk())
	c.Data[r.Off()+1+i] = w
}

// Forward overwrites the object at old with a forwarding header pointing to
// its new location: the BUSY → FORWARDED transition. The payload length is
// preserved in the forwarding header so that from-space scans can still
// skip over the object. Callers must have claimed old via BeginCopy (which
// makes the plain stores race-free: PinHeader never CASes a busy header),
// and must have finished copying the payload — the forwarding header is the
// linearization point after which readers chase the new location.
func (s *Space) Forward(old, new Ref) {
	c := s.chunk(old.Chunk())
	n := Header(atomic.LoadUint64(&c.Data[old.Off()])).Len()
	atomic.StoreUint64(&c.Data[old.Off()+1], uint64(new.Value()))
	atomic.StoreUint64(&c.Data[old.Off()], uint64(KForward)|hdrValid|uint64(n)<<hdrLenShift)
}

// forward is the BUSY → FORWARDED transition for a caller that holds the
// chunk and the payload length n of the object at off (Allocator.CopyIn).
// Both stores are relaxed: the claim keeps every pinner off the object, and
// the collection's EndCollect, not this store, publishes the move — a reader
// that loads the header before then acts on it only after re-validating
// (DESIGN.md §6 decision 7 lists who can and how).
func (c *Chunk) forward(off, n int, to Ref) {
	storeRelaxed(&c.Data[off+1], uint64(to))
	storeRelaxed(&c.Data[off], MakeHeader(KForward, n))
}

// StoreRelaxed writes word i of the chunk with no ordering: for the local
// collector redirecting a field of an object it has just copied, which no
// task can reach before the heap's gate reopens (see storeRelaxed for who
// may still load the word).
func (c *Chunk) StoreRelaxed(i int, w uint64) { storeRelaxed(&c.Data[i], w) }

// Forwarded resolves a possibly-forwarded reference to its current location,
// chasing at most one hop (the collectors never create forwarding chains).
func (s *Space) Forwarded(r Ref) (Ref, bool) {
	if s.Header(r).Kind() != KForward {
		return r, false
	}
	return s.Load(r, 0).Ref(), true
}

// HeapOf returns the heap id owning the chunk that contains r.
func (s *Space) HeapOf(r Ref) uint32 {
	return s.chunk(r.Chunk()).HeapID()
}

// SameHeap reports whether a and b currently live in the same heap. Chunks
// are owned by exactly one heap, so two references into the same chunk are
// trivially same-heap with no table walk at all; otherwise each chunk's
// cached heap id is resolved exactly once. This is the write-barrier fast
// path: same-heap stores are free.
func (s *Space) SameHeap(a, b Ref) bool {
	ca, cb := a.Chunk(), b.Chunk()
	if ca == cb {
		return true
	}
	return s.chunk(ca).HeapID() == s.chunk(cb).HeapID()
}
