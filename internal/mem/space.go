package mem

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"mplgo/internal/chaos"
)

// Chunks come in power-of-two size classes, MinChunkWords (2 KiB) up to
// ChunkWords (64 KiB), so a heap's footprint follows what it allocates: an
// Allocator starts with the smallest class that fits its first object and
// doubles on every refill (see Allocator.Alloc). A request above ChunkWords
// gets a chunk of exactly that size.
const (
	minChunkShift = 8
	maxChunkShift = 13
	MinChunkWords = 1 << minChunkShift
	ChunkWords    = 1 << maxChunkShift
	numClasses    = maxChunkShift - minChunkShift + 1
)

// classOf returns the index of the smallest size class holding words, or
// -1 when words exceeds ChunkWords (an oversize, exact-size chunk).
func classOf(words int) int {
	if words <= MinChunkWords {
		return 0
	}
	if words > ChunkWords {
		return -1
	}
	return bits.Len(uint(words-1)) - minChunkShift
}

// Chunk table geometry: a growable directory of lazily-created segments,
// so chunk lookup — on every Load/Store — is lock-free, while chunk
// creation never moves previously published entries (see Space).
const (
	segShift   = 12
	segSize    = 1 << segShift // chunks per segment
	initDirLen = 1 << 11       // segments the directory starts with
	initChunks = initDirLen * segSize
	// maxChunks is the absolute capacity: chunk ids are uint32 and must
	// round-trip through Ref's packed encoding. Exhausting it is a genuine
	// resource limit, surfaced as ErrChunkTableExhausted through the
	// runtime's cancellation path rather than a process abort.
	maxChunks = math.MaxUint32
)

// ErrChunkTableExhausted reports that every representable chunk id has been
// assigned. NewChunk panics with this error; the runtime's panic-safe
// fork–join recovers it and returns it from Run.
var ErrChunkTableExhausted = errors.New("mem: chunk table exhausted (2^32 chunk ids assigned)")

// Chunk is a contiguous arena of words owned by exactly one heap of the
// hierarchy at a time. Heap identity lives on the chunk — not on objects —
// so merging a child heap into its parent at a join touches only the chunk
// list, never individual objects (DESIGN.md decision 1). The chunk carries
// both the owner's id, which the allocator, SameHeap and the collectors
// compare, and the owner itself, which the entanglement barriers need: one
// load after the chunk is resolved.
type Chunk struct {
	ID   uint32
	Data []uint64
	// Alloc is the bump offset of the next free word. Only the owning
	// task mutates it.
	Alloc int
	// PinCount counts currently pinned objects residing in this chunk.
	// A chunk can only be released while it holds no pinned objects.
	PinCount int32
	// FromSpace marks the chunk as from-space of the local collection now
	// running on its heap. That collection sets it on its scope's old
	// chunks once the gates are closed and clears it before they reopen;
	// only it reads the mark, and only on a chunk whose heap id it has
	// already found in its scope — any other chunk may be mid-collection
	// elsewhere.
	FromSpace bool

	heapID atomic.Uint32
	owner  atomic.Pointer[Owner]

	// marks is the side mark bitmap installed by a concurrent collection
	// cycle for its snapshot chunks and dropped when the cycle ends. The
	// pointer doubles as the mutator-visible "in CGC scope" test (one
	// atomic load in the SATB shade path); the bits themselves are only
	// ever touched by the single CGC worker, so they need no atomics.
	// The header mark bit (hdrMark) stays reserved for LGC's transient
	// pinned-trace marking — the strict invariant audit rejects leftovers,
	// which a concurrent cycle could not guarantee.
	marks atomic.Pointer[markBitmap]

	// freeHead is 1 + the word offset of the first KFree span threaded
	// through this chunk by the CGC sweep (0 = no free list), and
	// freeWords counts the words those spans cover. Mutated only by the
	// sweep (with the owner parked and the heap gate held) and by the
	// owning allocator after the chunk is handed back through the heap's
	// reuse buffer, so plain fields suffice: the handoff's atomics order
	// them.
	freeHead  int
	freeWords int

	// dirty is the dirty extent: words [0, dirty) may still hold what an
	// earlier tenant wrote, beyond this tenant's Alloc. Only a to-space
	// refill (Allocator.CopyIn) leaves it non-zero, and the next mutator
	// refill's scrub clears it. Owner-only, like Alloc; last, so that the
	// fields the barriers load keep their offsets.
	dirty int
}

// Owner is the opaque type of a chunk's owner: the descriptor of the heap
// owning it, which in a runtime is the *hierarchy.Heap. mem sits below the
// hierarchy and never looks inside one; package hierarchy converts.
type Owner struct{}

// HeapID returns the id of the heap currently owning this chunk.
func (c *Chunk) HeapID() uint32 { return c.heapID.Load() }

// Owner returns the heap currently owning this chunk, or nil for a released
// chunk and for every chunk of a space without an owner resolver (see
// Space.SetOwners). Like HeapID it can be stale the moment it returns.
func (c *Chunk) Owner() *Owner { return c.owner.Load() }

// SetOwner hands the chunk to the heap with the given id and descriptor. It
// is the one write of ownership, made where ownership changes: NewChunk,
// the re-point of a merge, and Release (id 0, no owner).
func (c *Chunk) SetOwner(id uint32, owner *Owner) {
	c.heapID.Store(id)
	c.owner.Store(owner)
}

// Words returns the chunk capacity in words.
func (c *Chunk) Words() int { return len(c.Data) }

type chunkSegment [segSize]*Chunk

// Space is the global store of chunks: a two-level table plus one free
// list per size class.
// It tracks the residency statistics the space experiments report.
//
// The chunk directory is a copy-install slice of segment pointers: grown
// by doubling under s.mu when the id space outruns it (the pre-hardening
// table aborted there), lock-free for readers, like hierarchy.Tree's heap
// spine. Readers racing a grow keep the old slice, which still resolves
// every previously published chunk. The lookup fast path is one atomic
// directory load, one segment load, and two indexes — cheap enough that
// Load/Store/CAS still inline into the barriers (see chunk).
type Space struct {
	mu   sync.Mutex
	next uint32               // next chunk id to assign; id 0 is reserved
	free [numClasses][]*Chunk // released chunks available for reuse, by class
	dir  atomic.Pointer[[]atomic.Pointer[chunkSegment]]

	// Chaos is the optional fault injector (nil in release paths). The
	// HeaderCAS point lives in PinHeader.
	Chaos *chaos.Injector

	// owners resolves a heap id to its owner for NewChunk; nil until
	// SetOwners, which runs before the space is shared.
	owners func(heap uint32) *Owner

	liveWords    atomic.Int64 // words in live (allocated-to-heap) chunks
	maxLiveWords atomic.Int64 // high-water mark of liveWords
	totalAlloc   atomic.Int64 // cumulative words ever handed to allocators
}

// NewSpace creates an empty space.
func NewSpace() *Space {
	s := &Space{next: 1} // chunk id 0 reserved
	dir := make([]atomic.Pointer[chunkSegment], initDirLen)
	s.dir.Store(&dir)
	return s
}

// grow installs a doubled directory covering segment index bi. Caller
// holds s.mu. Readers racing the install keep using the old slice, which
// still resolves every previously published chunk.
func (s *Space) grow(bi int) {
	dir := *s.dir.Load()
	n := len(dir)
	for n <= bi {
		n *= 2
	}
	ndir := make([]atomic.Pointer[chunkSegment], n)
	for i := range dir {
		ndir[i].Store(dir[i].Load())
	}
	s.dir.Store(&ndir)
}

// segSlot returns the directory slot for segment bi, growing the
// directory if needed. Caller holds s.mu.
func (s *Space) segSlot(bi int) *atomic.Pointer[chunkSegment] {
	if bi >= len(*s.dir.Load()) {
		s.grow(bi)
	}
	return &(*s.dir.Load())[bi]
}

// NewChunk allocates a chunk of at least minWords payload owned by heap:
// the smallest size class that holds minWords, recycled from that class's
// free list when possible, or exactly minWords when that exceeds ChunkWords.
// Every word of the chunk is zero.
//
// Zeroing happens outside s.mu, so one worker's refill never waits for
// another's memclr: a popped chunk has a single owner (stale readers only
// issue atomic loads and re-validate), and a fresh chunk is unreachable
// until its table slot is published, which happens under the lock.
func (s *Space) NewChunk(heap uint32, minWords int) *Chunk {
	return s.newChunk(heap, minWords, true)
}

// newChunk is NewChunk for a caller that says whether the words must be
// zero. A to-space refill (Allocator.CopyIn) writes every word it carves
// before anything reads it, so it takes a recycled chunk as the previous
// tenant left it and records how far that tenant wrote (see dirty).
func (s *Space) newChunk(heap uint32, minWords int, zero bool) *Chunk {
	words, class := minWords, classOf(minWords)
	var c *Chunk
	if class >= 0 {
		words = MinChunkWords << class
		s.mu.Lock()
		if free := s.free[class]; len(free) > 0 {
			c = free[len(free)-1]
			s.free[class] = free[:len(free)-1]
		}
		s.mu.Unlock()
	}
	if c != nil {
		c.dirty = max(c.dirty, c.Alloc)
		if zero {
			scrub(c)
		}
		c.Alloc = 0
		atomic.StoreInt32(&c.PinCount, 0)
		c.marks.Store(nil)
		c.freeHead = 0
		c.freeWords = 0
	} else {
		c = &Chunk{Data: make([]uint64, words)}
		s.publish(c)
	}
	var owner *Owner
	if s.owners != nil {
		owner = s.ownerOf(heap)
	}
	c.SetOwner(heap, owner)
	live := s.liveWords.Add(int64(words))
	for {
		max := s.maxLiveWords.Load()
		if live <= max || s.maxLiveWords.CompareAndSwap(max, live) {
			break
		}
	}
	return c
}

// SetOwners installs the space's owner resolver: from here on NewChunk
// records resolve(heap) as the owner of every chunk it hands out, and every
// live chunk already handed out gets its owner now, so in a space with a
// resolver no live chunk is without one. A heap id the resolver does not
// know panics — a chunk of a live heap with no owner would send the
// entanglement barriers round their stale-owner retry for ever. Call it
// before the space is shared (hierarchy.Tree.Bind does).
func (s *Space) SetOwners(resolve func(heap uint32) *Owner) {
	s.owners = resolve
	s.ForEachChunk(func(c *Chunk) {
		if id := c.HeapID(); id != 0 {
			c.SetOwner(id, s.ownerOf(id))
		}
	})
}

// ownerOf resolves a heap id through the installed resolver.
func (s *Space) ownerOf(heap uint32) *Owner {
	o := s.owners(heap)
	if o == nil {
		panic(fmt.Sprintf("mem: chunk for heap %d, which the space's owner resolver does not know", heap))
	}
	return o
}

// publish assigns c the next chunk id and installs it in the table.
func (s *Space) publish(c *Chunk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= maxChunks {
		panic(ErrChunkTableExhausted)
	}
	c.ID = s.next
	s.next++
	slot := s.segSlot(int(c.ID >> segShift))
	seg := slot.Load()
	if seg == nil {
		seg = new(chunkSegment)
		slot.Store(seg)
	}
	seg[c.ID&(segSize-1)] = c
}

// scrub clears the words of a recycled chunk that an earlier tenant may
// have written: every word below its dirty extent, which newChunk has
// raised to the last tenant's Alloc. Words at and beyond the extent are
// already zero: fresh chunks are zeroed by make, no tenant writes past its
// Alloc, and only a to-space tenant, which leaves the extent behind, skips
// this scrub. The words are cleared with atomic stores, not clear(): a
// stale reader — an entanglement slow path that resolved a reference just
// before the collector released the chunk, or a concurrent-collection
// worker holding a stale grey — may still issue atomic loads against
// c.Data, and a plain memclr racing those loads is a genuine data race (the
// reader then re-validates and retries, so any value it sees is fine; the
// ordering is not). The caller owns c exclusively (it was popped from a
// free list).
func scrub(c *Chunk) {
	for i := 0; i < c.dirty; i++ {
		atomic.StoreUint64(&c.Data[i], 0)
	}
	c.dirty = 0
}

// Release returns a chunk to the space. Class-size chunks go to their
// class's free list; oversize chunks are never reused, but the chunk table
// keeps the Chunk — and with it the backing array — reachable for stale
// readers, so their memory is not returned to Go either. Releasing a chunk
// holding pinned objects is a bug in the collector.
func (s *Space) Release(c *Chunk) {
	if atomic.LoadInt32(&c.PinCount) != 0 {
		panic(fmt.Sprintf("mem: releasing chunk %d with %d pinned objects", c.ID, c.PinCount))
	}
	s.liveWords.Add(int64(-len(c.Data)))
	c.SetOwner(0, nil)
	c.marks.Store(nil)
	c.freeHead = 0
	c.freeWords = 0
	class := classOf(len(c.Data))
	if class < 0 {
		return
	}
	s.mu.Lock()
	s.free[class] = append(s.free[class], c)
	s.mu.Unlock()
}

// chunk returns the chunk with the given index. Lock-free: one atomic
// directory load, one segment load, two indexes. Deliberately minimal —
// it must stay within the inlining budget of Load/Store/CAS, which are
// themselves inlined into the barriers.
func (s *Space) chunk(idx uint32) *Chunk {
	dir := *s.dir.Load()
	return dir[idx>>segShift].Load()[idx&(segSize-1)]
}

// ChunkOf returns the chunk holding the object at r: the lookup every
// accessor makes, for a caller that does several things to one object (the
// entanglement slow path reads the owner, the header and the id from one
// resolution, and pins through it).
func (s *Space) ChunkOf(r Ref) *Chunk { return s.chunk(r.Chunk()) }

// ChunkByID exposes chunk lookup to the collectors and checkers. Unlike
// the internal fast path it is bounds-safe: an id never published (e.g.
// decoded from a corrupted reference) returns nil instead of faulting, so
// integrity checkers can report the corruption.
func (s *Space) ChunkByID(idx uint32) *Chunk {
	dir := *s.dir.Load()
	bi := int(idx >> segShift)
	if bi >= len(dir) {
		return nil
	}
	seg := dir[bi].Load()
	if seg == nil {
		return nil
	}
	return seg[idx&(segSize-1)]
}

// PinnedCount returns the number of currently pinned objects residing in
// the chunk. Safe from any goroutine (the pin/unpin CASes publish it).
func (c *Chunk) PinnedCount() int { return int(atomic.LoadInt32(&c.PinCount)) }

// ForEachChunk visits every chunk ever published, live or released, in id
// order. Safe to call concurrently with the mutator: the id bound is
// snapshotted under the table mutex (which also orders the segment-slot
// writes that published those chunks), and the visit reads only through
// the lock-free directory. Introspection (and SetOwners) only — the visit
// callback must restrict itself to atomic chunk fields (HeapID, Owner,
// SetOwner, PinnedCount, Words):
// Alloc and the free-list words are owner-mutated without synchronization.
func (s *Space) ForEachChunk(visit func(*Chunk)) {
	s.mu.Lock()
	n := s.next
	s.mu.Unlock()
	for id := uint32(1); id < n; id++ {
		if c := s.ChunkByID(id); c != nil {
			visit(c)
		}
	}
}

// LiveWords returns the words currently held by live chunks.
func (s *Space) LiveWords() int64 { return s.liveWords.Load() }

// MaxLiveWords returns the high-water mark of LiveWords: the max residency
// statistic reported by the space experiments.
func (s *Space) MaxLiveWords() int64 { return s.maxLiveWords.Load() }

// TotalAllocWords returns the cumulative words handed out by allocators.
func (s *Space) TotalAllocWords() int64 { return s.totalAlloc.Load() }

// ResetMaxLive resets the residency high-water mark to current residency.
func (s *Space) ResetMaxLive() { s.maxLiveWords.Store(s.liveWords.Load()) }
