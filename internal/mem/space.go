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
//
// A class chunk is a record over part of a backing array of its class size,
// an arena. A kept branch hands back the unused tail of its last chunk
// (Space.GiveBack) as a record of its own, cut on a granule of
// granuleWords; an arena has at most arenaRecords records, and records
// freed side by side merge back into one (Space.putFree).
const (
	minChunkShift = 8
	maxChunkShift = 13
	MinChunkWords = 1 << minChunkShift
	ChunkWords    = 1 << maxChunkShift

	granuleShift = 4
	granuleWords = 1 << granuleShift
	// numFree is the number of free lists, one per capacity: every multiple
	// of granuleWords up to ChunkWords.
	numFree = ChunkWords>>granuleShift + 1
	// arenaRecords is the most records one arena ever has.
	arenaRecords = 4
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
// both the owner's id, which the allocator, the write barrier's same-heap
// test and the collectors compare, and the owner itself, which the
// entanglement barriers need: one load after the chunk is resolved. A
// barrier resolves each object's chunk once and does everything else —
// header bits, field loads, the store — through it. A pin is recorded in
// its object's header and the owning heap's pinned set, not on the chunk.
type Chunk struct {
	ID uint32
	// words is the chunk's capacity (Words). Data may run past it, to the
	// end of the arena, and never shrinks or moves: a stale reader of an
	// earlier tenant may load anywhere in the extent it knew.
	words atomic.Uint32
	Data  []uint64
	// Alloc is the bump offset of the next free word. Only the owning
	// task mutates it.
	Alloc int
	// FromSpace is the chunk's part in the local collection now running on
	// its heap. That collection marks its scope's old chunks once the gates
	// are closed — Keep on those holding a pin, Survivor on those it knows
	// to be at least half live (Tenured, oversize, or filled by the targets
	// of its remembered set), Evacuate on the others — and resets them to
	// NotFromSpace before they reopen; only it reads the mark, and only on a
	// chunk whose heap id it has already found in its scope — any other
	// chunk may be mid-collection elsewhere.
	FromSpace FromSpace
	// Tenured says the chunk holds what a local collection of its heap
	// found live and left dense: its to-space, or a chunk it traced in place
	// and found at least half live. The heap's next collection traces it in
	// place rather than copying out of it. Written only by that collection,
	// by Release (false) and by the concurrent sweep, which clears it on a
	// chunk it threads a free list through.
	Tenured bool

	heapID atomic.Uint32
	owner  atomic.Pointer[Owner]

	// marks is the mark state of the collector tracing the chunk in place,
	// nil when none does (see Marks). Whichever collector owns the chunk's
	// heap installs it and takes it off; mutators only load the pointer,
	// the concurrent cycle's in-scope test.
	marks atomic.Pointer[Marks]

	// freeHead is 1 + the word offset of the first KFree span threaded
	// through this chunk by the CGC sweep (0 = no free list), and
	// freeWords counts the words those spans cover. Mutated only by the
	// sweep (with the owner parked and the heap gate held) and by the
	// owning allocator after the chunk is handed back through the heap's
	// reuse buffer, so plain fields suffice: the handoff's atomics order
	// them.
	freeHead  int
	freeWords int
}

// FromSpace is a chunk's from-space mark (Chunk.FromSpace), one byte.
type FromSpace uint8

const (
	NotFromSpace FromSpace = iota // no collection of its heap runs, or its to-space
	Evacuate                      // live objects are copied out; the chunk is released
	Survivor                      // known dense: live objects traced in place, released if none
	Keep                          // holds a pin: retained, live objects traced in place
)

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

// Words returns the chunk capacity in words: what its owner may allocate
// into and what it counts toward LiveWords.
func (c *Chunk) Words() int { return int(c.words.Load()) }

type chunkSegment [segSize]*Chunk

// arena is the backing array of class chunks and its records, at most
// arenaRecords of them: the one over the whole array and up to three
// tails. A record is never freed — the chunk table keeps it for stale
// readers — so reusing the one at a start, and minting no more than
// arenaRecords, is what bounds the records an arena ever has.
type arena struct {
	data []uint64
	recs [arenaRecords]*Chunk // in the order minted
}

// extent places a class chunk in its arena: its start and the record
// ending where it starts (nil at the arena's start), and its index on its
// free list, -1 while a heap owns it or it lies inside a neighbour's
// extent (dormant). Guarded by Space.mu; oversize chunks have a nil arena.
type extent struct {
	arena *arena
	prev  *Chunk
	start int32
	slot  int32
}

// Space is the global store of chunks: a two-level table plus one free
// list per capacity.
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
	next uint32 // next chunk id to assign; id 0 is reserved
	// free holds the released class chunks of w words at w>>granuleShift.
	// No two free chunks are neighbours in an arena.
	free [numFree][]*Chunk
	ext  []extent // by chunk id
	dir  atomic.Pointer[[]atomic.Pointer[chunkSegment]]

	// Chaos is the optional fault injector (nil in release paths). The
	// HeaderCAS point lives in PinHeader.
	Chaos *chaos.Injector

	// owners resolves a heap id to its owner for NewChunk; nil until
	// SetOwners, which runs before the space is shared.
	owners func(heap uint32) *Owner

	// marks is the pool of mark states both collectors draw from
	// (BeginMarks, EndMarks).
	marks sync.Pool

	liveWords    atomic.Int64 // words in live (allocated-to-heap) chunks
	maxLiveWords atomic.Int64 // high-water mark of liveWords
	totalAlloc   atomic.Int64 // cumulative words ever handed to allocators
}

// NewSpace creates an empty space.
func NewSpace() *Space {
	s := &Space{next: 1, ext: make([]extent, 1)} // chunk id 0 reserved
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

// NewChunk allocates a chunk of at least minWords payload owned by heap.
// Up to ChunkWords it takes the largest free chunk that holds minWords and
// is no larger than minWords' size class — a whole recycled class chunk
// when there is one, else a tail GiveBack handed back or what merged from
// such tails — or a fresh chunk of the class; above ChunkWords a fresh
// chunk of exactly minWords.
// A recycled chunk keeps whatever its earlier tenants wrote: nothing clears
// it, because every allocation writes every word it carves (Allocator.carve)
// and nothing reads past Alloc (DESIGN.md §6 decision 1).
func (s *Space) NewChunk(heap uint32, minWords int) *Chunk {
	var c *Chunk
	if class := classOf(minWords); class < 0 {
		c = &Chunk{Data: make([]uint64, minWords)}
		c.words.Store(uint32(minWords))
		s.mu.Lock()
		s.publish(c, extent{slot: -1})
		s.mu.Unlock()
	} else {
		words := MinChunkWords << class
		s.mu.Lock()
		c = s.takeFree(max(minWords, 1), words)
		s.mu.Unlock()
		if c != nil {
			c.Alloc = 0
			c.marks.Store(nil)
			c.freeHead = 0
			c.freeWords = 0
		} else {
			ar := &arena{data: make([]uint64, words)}
			s.mu.Lock()
			c = s.mint(ar, 0)
			s.mu.Unlock()
			c.words.Store(uint32(words))
		}
	}
	var owner *Owner
	if s.owners != nil {
		owner = s.ownerOf(heap)
	}
	c.SetOwner(heap, owner)
	live := s.liveWords.Add(int64(c.Words()))
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

// publish assigns c the next chunk id, installs it in the table and
// records its extent. Caller holds s.mu.
func (s *Space) publish(c *Chunk, e extent) {
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
	s.ext = append(s.ext, e)
}

// record returns the record of arena ar starting at word start, nil when
// it has none. Caller holds s.mu.
func (s *Space) record(ar *arena, start int) *Chunk {
	for _, c := range ar.recs {
		if c != nil && int(s.ext[c.ID].start) == start {
			return c
		}
	}
	return nil
}

// mint publishes a record of arena ar starting at word start, which the
// arena has room for. The caller sets its capacity. Caller holds s.mu.
func (s *Space) mint(ar *arena, start int) *Chunk {
	c := &Chunk{Data: ar.data[start:]}
	s.publish(c, extent{arena: ar, start: int32(start), slot: -1})
	i := 0
	for ar.recs[i] != nil {
		i++
	}
	ar.recs[i] = c
	return c
}

// Release returns a chunk to the space. Class chunks go to their free
// list, merged with a free neighbour; oversize chunks are never reused, but
// the chunk table keeps the Chunk — and with it the backing array —
// reachable for stale readers, so their memory is not returned to Go
// either. The caller knows from the owning heap's pinned set that the
// chunk holds no pinned object.
func (s *Space) Release(c *Chunk) {
	words := c.Words()
	s.liveWords.Add(int64(-words))
	c.SetOwner(0, nil)
	c.Tenured = false
	c.marks.Store(nil)
	c.freeHead = 0
	c.freeWords = 0
	if words > ChunkWords {
		return
	}
	s.mu.Lock()
	s.putFree(c)
	s.mu.Unlock()
}

// GiveBack hands the space the unused tail of c, a chunk whose owner
// allocates into it no more, as a free chunk of its own, which the next
// refill that fits takes, and which stops counting toward LiveWords. The
// tail starts at the first granule past Alloc when a record starts there
// or the arena may mint one, else at the first record start past that;
// it is given back when it is at least a granule. c keeps its Data, its
// objects and its id, and only its capacity shrinks, so a stale reader of
// an earlier tenant still loads in range. An oversize chunk keeps its
// tail: no refill could take a tail past ChunkWords. The caller owns c,
// and no collector traces it.
func (s *Space) GiveBack(c *Chunk) {
	words := c.Words()
	if c.Alloc == 0 || words > ChunkWords {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ext[c.ID]
	end := int(e.start) + words
	cut := (int(e.start) + c.Alloc + granuleWords - 1) &^ (granuleWords - 1)
	if cut >= end {
		return
	}
	var t *Chunk // the first record starting in [cut, end)
	for _, r := range e.arena.recs {
		if r != nil {
			if at := int(s.ext[r.ID].start); at >= cut && at < end {
				t, end = r, at
			}
		}
	}
	if end != cut && e.arena.recs[arenaRecords-1] == nil {
		t = s.mint(e.arena, cut)
	}
	if t == nil {
		return
	}
	keep := int(s.ext[t.ID].start) - int(e.start)
	t.words.Store(uint32(words - keep))
	c.words.Store(uint32(keep))
	s.ext[t.ID].prev = c
	if n := s.after(t); n != nil {
		s.ext[n.ID].prev = t
	}
	s.putFree(t)
	s.liveWords.Add(int64(keep - words))
}

// after returns the chunk whose extent follows c's in its arena, nil at
// the arena's end. Caller holds s.mu.
func (s *Space) after(c *Chunk) *Chunk {
	e := s.ext[c.ID]
	return s.record(e.arena, int(e.start)+c.Words())
}

// putFree puts c, a class chunk no heap owns, on the free list of its
// capacity, merged first with the free chunk after it and into the free
// chunk before it, so free chunks never lie side by side and an arena all
// of whose chunks are free is one chunk again. A merged-away record goes
// dormant with no capacity. Caller holds s.mu.
func (s *Space) putFree(c *Chunk) {
	if n := s.after(c); n != nil && s.ext[n.ID].slot >= 0 {
		s.unlinkFree(n)
		s.absorb(c, n)
	}
	if p := s.ext[c.ID].prev; p != nil && s.ext[p.ID].slot >= 0 {
		s.unlinkFree(p)
		s.absorb(p, c)
		c = p
	}
	i := c.Words() >> granuleShift
	s.ext[c.ID].slot = int32(len(s.free[i]))
	s.free[i] = append(s.free[i], c)
}

// absorb extends c over n, the free chunk after it, which goes dormant.
// Caller holds s.mu.
func (s *Space) absorb(c, n *Chunk) {
	c.words.Store(c.words.Load() + n.words.Load())
	n.words.Store(0)
	if nn := s.after(c); nn != nil {
		s.ext[nn.ID].prev = c
	}
}

// unlinkFree takes c off its free list. Caller holds s.mu.
func (s *Space) unlinkFree(c *Chunk) {
	i, at := c.Words()>>granuleShift, s.ext[c.ID].slot
	list := s.free[i]
	last := list[len(list)-1]
	list[at] = last
	s.ext[last.ID].slot = at
	s.free[i] = list[:len(list)-1]
	s.ext[c.ID].slot = -1
}

// takeFree takes off its free list the most recently freed chunk of the
// largest capacity from lo to hi words, or returns nil when there is none.
// Caller holds s.mu.
func (s *Space) takeFree(lo, hi int) *Chunk {
	for i := hi >> granuleShift; i > 0 && i<<granuleShift >= lo; i-- {
		if list := s.free[i]; len(list) > 0 {
			c := list[len(list)-1]
			s.unlinkFree(c)
			return c
		}
	}
	return nil
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

// ForEachChunk visits every chunk ever published, live or released, in id
// order. Safe to call concurrently with the mutator: the id bound is
// snapshotted under the table mutex (which also orders the segment-slot
// writes that published those chunks), and the visit reads only through
// the lock-free directory. Introspection (and SetOwners) only — the visit
// callback must restrict itself to atomic chunk fields (HeapID, Owner,
// SetOwner, Words):
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
