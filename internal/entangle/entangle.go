// Package entangle implements the paper's primary contribution: managing
// entanglement at the granularity of memory objects, so that programs with
// unrestricted effects run correctly on a hierarchical heap while
// disentangled objects are shielded from the cost.
//
// Terminology (paper §2–4):
//
//   - A *down-pointer* is a pointer stored into an object of a shallower
//     heap, pointing at an object of a deeper heap on the same path.
//   - An object is an *entanglement candidate* (header candidate bit) when
//     reading through it may yield a pointer to a concurrent heap: either a
//     down-pointer was written into it, or it was itself acquired through
//     an entangled read. Reads of non-candidate objects take the fast path
//     — a single header test — which is how disentangled data stays cheap.
//   - An *entangled read* occurs when a task dereferences a pointer whose
//     target lives in a heap that is not an ancestor of the task's leaf.
//     The target is *pinned*: the moving local collector may neither
//     relocate nor reclaim it until its *unpin depth* — the depth of the
//     least common ancestor of the reader and the target's heap — is
//     reached by joins.
//   - An *entangled write* stores a pointer into an object of a concurrent
//     heap, publishing the target to that side; the target is pinned
//     immediately, since concurrent readers may acquire it at any time.
//
// The barriers below are lock-free: a pin is a single CAS on the object
// header (mem.PinHeader), ordered against concurrent copying by the header
// state machine, and ordered against the bulk phases of a collection or
// merge by the owning heap's reader gate (hierarchy.Gate). No mutex is
// acquired anywhere on the OnRead or OnWrite path, and what the path writes
// to shared memory is only what the protocol needs. In atomic
// read-modify-writes: a re-read of an object already pinned deep enough,
// and a slow read that proves disentangled, perform none — their counts go
// to plain slots of the reader's own leaf (hierarchy.Tally), which only
// the strand running that leaf touches and which Drain adds to the totals
// at the end of the task, at its collections and at the join. A fresh pin
// performs four — gate enter, header CAS (which also sets the candidate
// bit), the slot claim in the owner's pinned buffer, gate exit — plus one
// add to the gauge of what is pinned now, and its unpin at the join one,
// the header CAS. The gate pair
// stays an RMW pair: announce-then-validate needs a store–load fence, which
// on amd64 costs what the RMW costs; and the publication stays, because the
// owner's next collection must see the pin.
//
// What a re-read loads. OnRead resolves the target's chunk once and reads
// the owning heap off it (hierarchy.OwnerOf: the chunk records its
// *hierarchy.Heap beside its id, so there is no id → heap table on any
// barrier path), then asks the leaf's two-entry ancestry cache about that
// heap. Only an entangled read goes on to load the target's header — a
// disentangled one never needs that line — and, if the header is pinned no
// deeper than the reader's LCA with the owner, re-reads the holder's field
// through the holder's chunk, which core's read barrier resolved for its own
// load and hands over (OnReadIn). The re-read is needed because the value
// the caller loaded may be stale, its object moved and its chunk recycled
// to hold another pinned object at the same address, and only a field still
// holding the value ties it to the object pinned there. That is the whole
// re-read: chunk, owner, cache, header, field, with no gate, no CAS and no
// load of the owner's dead flag. The pin path reuses the target's chunk for
// the ownership check under the gate and for the pin CAS.
//
// Why the re-read need not test dead. The owner read off the chunk can be
// stale: a merge may retire it right after the load. Three facts make that
// harmless.
//
//   - Tree.Merge re-points every chunk of the child to the parent before it
//     sets the child's dead flag, so a strand that sees the flag set finds
//     the live owner on the chunk with one more load.
//   - A pin at depth ≤ LCA(leaf, owner) cannot be revoked while the reader
//     runs, whichever heap the reader resolved. A child merges into its
//     parent P only once P's whole fork has finished, so a reader racing
//     that merge lies outside P's subtree, and its LCA with the child is its
//     LCA with P; likewise neither is on its path.
//   - The pin path still re-validates ownership under the gate: it tests
//     dead before entering (and re-resolves instead), and inside compares
//     the chunk's heap id with the owner's. A merge cannot run while the
//     reader holds the owner's gate, so a match means the owner is live
//     until the reader leaves.
package entangle

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"mplgo/internal/attr"
	"mplgo/internal/gc"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Mode selects how the runtime responds to entanglement.
type Mode int

const (
	// Manage pins entangled objects and lets the program proceed: the
	// paper's contribution.
	Manage Mode = iota
	// Detect reports entanglement as an error, reproducing the behavior of
	// MPL before this paper (detect-and-abort). For memory safety the
	// manager still pins on detection — execution unwinds cooperatively
	// rather than stopping the world — but the computation's result is
	// replaced by the error, which is the observable "abort".
	Detect
	// Unsafe disables the barriers entirely; only meaningful for
	// disentangled programs, used by the ablation experiments to price
	// the barrier fast paths.
	Unsafe
)

func (m Mode) String() string {
	switch m {
	case Manage:
		return "manage"
	case Detect:
		return "detect"
	case Unsafe:
		return "unsafe"
	}
	return "invalid"
}

// ErrEntangled is returned (wrapped) when Mode is Detect and the program
// entangles.
var ErrEntangled = errors.New("entanglement detected")

// Stats reads the runtime's event totals — the paper's entanglement cost
// metrics and the pin CAS's outcomes — which are the tree's
// (hierarchy.Totals): drained from the leaves' tallies, so mid-run they lag
// by the counts of the leaves still running and are exact at quiescence.
// It holds what is live: Unpins, added by the join itself, and one gauge
// word, added to by every fresh pin and every unpinning join.
type Stats struct {
	totals *hierarchy.Totals

	Unpins atomic.Int64 // objects unpinned at joins

	// now is the gauge: pinned objects and the words they occupy, packed
	// into one word (pinLoad) so a pin or a join moves both with one add.
	// peak holds the component-wise high-water marks of now.
	now  atomic.Uint64
	peak atomic.Uint64
}

// pinLoad packs a count of pinned objects (high 28 bits) with the words,
// header included, they occupy (low 36 bits: 512 GiB). Both fields of the
// gauge only ever hold sums of what is really pinned, so neither a carry
// nor a borrow crosses the boundary.
type pinLoad uint64

const pinWordBits = 36

func packPinned(objects int, words int64) pinLoad {
	return pinLoad(objects)<<pinWordBits | pinLoad(words)
}

func (p pinLoad) objects() int64 { return int64(p >> pinWordBits) }
func (p pinLoad) words() int64   { return int64(p & (1<<pinWordBits - 1)) }

// max is the component-wise maximum: the two high-water marks are reached
// at different moments.
func (p pinLoad) max(q pinLoad) pinLoad {
	return packPinned(int(max(p.objects(), q.objects())), max(p.words(), q.words()))
}

// pinned adds one fresh pin of an object occupying the given words.
func (s *Stats) pinned(words int64) { s.now.Add(uint64(packPinned(1, words))) }

// unpinned counts n objects, occupying the given words, that a join
// unpinned: it takes them off the gauge and folds the value the gauge had
// just before into the high-water marks.
//
// That is where the marks are exact. In the order the gauge's adds take
// effect, the value only rises between two decrements, so each component's
// maximum over all time is its value just before some decrement — which is
// the decrementing add's own result plus what it took — or its value now,
// which Snapshot folds in. A pin site has nothing to capture, and a mark
// read after a decrement (the scheme that once lost every pin that lived
// between two captures) is never used.
func (s *Stats) unpinned(n int, words int64) {
	s.Unpins.Add(int64(n))
	d := packPinned(n, words)
	before := pinLoad(s.now.Add(-uint64(d))) + d
	for {
		p := pinLoad(s.peak.Load())
		if q := p.max(before); q == p || s.peak.CompareAndSwap(uint64(p), uint64(q)) {
			return
		}
	}
}

// load reads the gauge and the high-water marks as of now.
func (s *Stats) load() (now, peak pinLoad) {
	now = pinLoad(s.now.Load())
	return now, pinLoad(s.peak.Load()).max(now)
}

// Snapshot returns a plain-struct copy for reporting: loads only, so any
// goroutine may call it at any rate.
func (s *Stats) Snapshot() StatsSnapshot {
	now, peak := s.load()
	t := s.totals
	return StatsSnapshot{
		DownPointers:    t.Load(trace.DownPointers),
		Candidates:      t.Load(trace.Candidates),
		EntangledReads:  t.Load(trace.EntangledReads),
		EntangledWrites: t.Load(trace.EntangledWrites),
		SlowReads:       t.Load(trace.SlowReads),
		Pins:            t.Load(trace.Pins),
		Unpins:          s.Unpins.Load(),
		PinnedNow:       now.objects(),
		PinnedPeak:      peak.objects(),
		PinnedPeakBytes: peak.words() * 8,
	}
}

// PinCAS returns the pin CAS's outcome totals.
func (s *Stats) PinCAS() mem.PinCASSnapshot {
	t := s.totals
	p := mem.PinCASSnapshot{
		Retries:      t.Load(trace.PinRetries),
		Busy:         t.Load(trace.PinBusy),
		Forwarded:    t.Load(trace.PinForwarded),
		New:          t.Load(trace.Pins),
		DepthLowered: t.Load(trace.PinDepthLowered),
		Already:      t.Load(trace.PinAlready),
	}
	p.Attempts = p.Busy + p.Forwarded + p.New + p.DepthLowered + p.Already
	return p
}

// StatsSnapshot is a point-in-time copy of Stats' entanglement metrics.
// PinnedNow, PinnedPeak and PinnedPeakBytes come from the live gauge; the
// other fields are drained totals (see Stats), so mid-run Pins − Unpins is
// not the number pinned.
type StatsSnapshot struct {
	DownPointers    int64
	Candidates      int64
	EntangledReads  int64
	EntangledWrites int64
	SlowReads       int64
	Pins            int64
	Unpins          int64
	PinnedNow       int64
	PinnedPeak      int64
	PinnedPeakBytes int64
}

// Manager coordinates entanglement bookkeeping for one runtime instance.
type Manager struct {
	Space *mem.Space
	Tree  *hierarchy.Tree
	Mode  Mode
	Stats Stats

	// SATB, when non-nil, is the concurrent collector's deletion barrier
	// (gc.CGC): every mutator store runs ShadeOverwritten before the raw
	// store so references deleted while the collector is marking are kept
	// in its snapshot. Set once at runtime construction, before any task
	// runs; nil whenever the concurrent collector is off.
	SATB *gc.CGC
}

// New creates a manager, binding the tree to the space (Tree.Bind): the
// barriers find a reference's heap on its chunk.
func New(space *mem.Space, tree *hierarchy.Tree, mode Mode) *Manager {
	tree.Bind(space)
	return &Manager{Space: space, Tree: tree, Mode: mode, Stats: Stats{totals: tree.Stats}}
}

// ShadeOverwritten is the snapshot-at-the-beginning deletion barrier of
// the concurrent collector: called before a store to payload word i of o,
// it shades the reference the store is about to overwrite if that
// reference lies in a heap the collector is marking. The push happens
// under the writer's own reader gate, bracketing the phase re-check — the
// collector's marking-termination gate flush relies on exactly this to
// observe every in-flight shade. oc is o's chunk, which the caller resolved
// for the store. The companion bookkeeping for the stored value itself is
// OnWrite below; the two are independent barriers.
func (m *Manager) ShadeOverwritten(leaf *hierarchy.Heap, oc *mem.Chunk, o mem.Ref, i int) {
	g := m.SATB
	if g == nil || !g.Marking() {
		return
	}
	at := leaf.AttrSink.Begin()
	old := oc.Load(o, i)
	if !old.IsRef() || !g.InScope(old.Ref()) {
		leaf.AttrSink.End(attr.ShadeQueue, at)
		return
	}
	leaf.Gate.EnterReader()
	if g.Marking() {
		g.Shade(old.Ref())
	}
	leaf.Gate.ExitReader()
	leaf.AttrSink.End(attr.ShadeQueue, at)
}

// OnWrite performs the write-barrier bookkeeping for storing the reference
// x into payload word i of object o, by a task whose leaf heap is leaf.
// (When the concurrent collector is on, the caller also runs the
// ShadeOverwritten deletion barrier; OnWrite itself only classifies the
// stored edge.)
// It must run BEFORE the raw store: the candidate bit must be visible to
// any reader that can observe the new pointer. The caller has already
// filtered the same-heap fast path and non-reference values.
func (m *Manager) OnWrite(leaf *hierarchy.Heap, o mem.Ref, i int, x mem.Ref) error {
	return m.OnWriteIn(leaf, m.Space.ChunkOf(o), o, i, m.Space.ChunkOf(x), x)
}

// OnWriteIn is OnWrite for a caller that has already resolved oc, the
// holder's chunk, and xc, the value's (core's write barrier, which needs
// both for its same-heap test): the candidate bit, the re-read of the
// displaced value, the publication and the pin all go through them, and
// neither is resolved again unless a pin chases a forward.
func (m *Manager) OnWriteIn(leaf *hierarchy.Heap, oc *mem.Chunk, o mem.Ref, i int, xc *mem.Chunk, x mem.Ref) error {
	// Attribution tiling (internal/attr): the classification prefix —
	// the two owners off the resolved chunks and one ancestry query — is
	// one AncestryQuery window, opened after the chunks were resolved; the
	// down-pointer branch closes a RemsetPublish window over the
	// publication, and the cross-pointer branch hands its window to
	// pinEntangled, which tiles the gate and CAS the same way OnRead does.
	at := leaf.AttrSink.Begin()
	// Both owners come off the chunks and may be stale; a path that acts
	// on one re-validates it under that heap's gate.
	oh := hierarchy.OwnerOf(oc)
	xh := hierarchy.OwnerOf(xc)
	if oh == xh {
		leaf.AttrSink.End(attr.AncestryQuery, at)
		return nil
	}
	// One LCA depth classifies the edge: the LCA of two distinct heaps is
	// one of them exactly when that one is the other's ancestor. The writer
	// nearly always owns one end, and then the number comes from its leaf's
	// ancestry cache.
	var lca int
	switch leaf {
	case oh:
		lca = m.Tree.UnpinDepth(leaf, xh)
	case xh:
		lca = m.Tree.UnpinDepth(leaf, oh)
	default:
		leaf.Tally[trace.AncestryQueries]++
		lca = m.Tree.LCADepth(oh, xh)
	}
	switch lca {
	case xh.Depth():
		// Up-pointer: always disentangled, nothing to record.
		leaf.AttrSink.End(attr.AncestryQuery, at)
		return nil
	case oh.Depth():
		at = leaf.AttrSink.Lap(attr.AncestryQuery, at)
		// Down-pointer: remember it for collections of xh's suffix, and
		// mark the holder so reads through it take the slow path. The
		// candidate bit is set before the caller's store, so a reader
		// that sees the new pointer also sees the bit (both are
		// sequentially consistent atomics).
		if oc.SetCandidate(o) {
			leaf.Tally[trace.Candidates]++
		}
		if xh == leaf {
			// The target lives in the writer's own heap — the common case
			// for publishing freshly allocated objects (producer/consumer
			// pipelines). Only this strand drains, collects or merges leaf,
			// so the entry goes straight into the owner-only view: no gate,
			// no atomics. A field that already points into leaf is already
			// in leaf's remembered set (gc.CheckDownPointers), and only this
			// strand's next collection of leaf can take it out: the entry
			// is not written twice, and what the store displaces is counted
			// instead (Heap.Overwritten). The displaced object is most often
			// this strand's previous store, allocated beside x: its chunk is
			// resolved only when it is not x's.
			var words int64
			if old := oc.Load(o, i); old.IsRef() {
				c := xc
				if old.Ref().Chunk() != x.Chunk() {
					c = m.Space.ChunkOf(old.Ref())
				}
				if hierarchy.OwnerOf(c) == leaf {
					words = int64(c.Header(old.Ref()).Len()) + 1
				}
			}
			if words == 0 {
				leaf.AddRememberedLocal(o, i)
			}
			leaf.Overwritten += words
		} else {
			m.publishRemembered(oh, xh, xc, o, i)
		}
		leaf.Tally[trace.DownPointers]++
		leaf.AttrSink.End(attr.RemsetPublish, at)
		return nil
	default:
		// Cross-pointer: either o lives in a heap concurrent with the
		// writer (it was itself acquired through entanglement), or o is
		// the writer's own object receiving a pointer to a concurrent
		// one. Storing x publishes it: pin x now, because the other side
		// can read it without further synchronization — and mark the
		// holder, so reads through it take the slow path (the holder now
		// contains an entangled pointer, making it a candidate by the
		// paper's definition).
		if oc.SetCandidate(o) {
			leaf.Tally[trace.Candidates]++
		}
		leaf.Tally[trace.EntangledWrites]++
		// x unpins where it stops being concurrent with the holder and
		// with the writer. When the writer owns an end, lca is already
		// that minimum: its own heap is no shallower than any LCA.
		unpin := lca
		if leaf != oh && leaf != xh {
			unpin = min(unpin, m.Tree.UnpinDepth(leaf, xh))
		}
		at = leaf.AttrSink.Lap(attr.AncestryQuery, at)
		m.pinEntangled(leaf, xc, x, unpin, at)
		if m.Mode == Detect {
			return fmt.Errorf("write into concurrent object %v: %w", o, ErrEntangled)
		}
		return nil
	}
}

// publishRemembered records the down-pointer (o, i) → x with the heap
// owning xc, x's chunk, entering the owner's reader gate so the entry cannot
// be lost to a racing merge: a push made inside the gate is always seen by
// the next DrainBuffers. If the target's heap merges underneath us, the
// entry is republished against the live owner — or dropped once the target
// shares the holder's heap (an intra-heap pointer needs no remembering).
func (m *Manager) publishRemembered(oh, xh *hierarchy.Heap, xc *mem.Chunk, o mem.Ref, i int) {
	for {
		if xh == nil || xh.Dead() || xh == oh {
			if xh == oh {
				return
			}
			runtime.Gosched()
			xh = hierarchy.OwnerOf(xc)
			continue
		}
		xh.Gate.EnterReader()
		ok := xc.HeapID() == xh.ID
		if ok {
			xh.AddRemembered(o, i)
		}
		xh.Gate.ExitReader()
		if ok {
			return
		}
		xh = hierarchy.OwnerOf(xc)
	}
}

// OnRead performs the read-barrier slow path: the holder o is a candidate
// and the loaded value v is a reference. It returns the (possibly updated)
// value to use: if a local collection moved the target between the caller's
// load and our pin, re-reading the field yields the object's current
// location. The path is lock-free and resolves the target's chunk once per
// attempt: the owner on the chunk, then — only for an entangled read — the
// header and the holder's field for the already-pinned fast path; otherwise
// a gate entry (atomic add), the chunk's heap id as the ownership check, a
// field validation and a single pin CAS on the same chunk. Everything it
// counts, it counts on leaf's own tally.
func (m *Manager) OnRead(leaf *hierarchy.Heap, o mem.Ref, i int, v mem.Value) (mem.Value, error) {
	return m.OnReadIn(leaf, m.Space.ChunkOf(o), o, i, v)
}

// OnReadIn is OnRead for a caller that has already resolved the holder's
// chunk oc (core's read barrier, through mem.Space.LoadCandidate): every
// re-read of the field goes through it.
func (m *Manager) OnReadIn(leaf *hierarchy.Heap, oc *mem.Chunk, o mem.Ref, i int, v mem.Value) (mem.Value, error) {
	leaf.Tally[trace.SlowReads]++
	// Emit tests for a nil ring itself, but is too big to inline: on the
	// two paths that are otherwise a dozen plain instructions, the test
	// here saves the call.
	ring := leaf.TraceRing
	if ring != nil {
		ring.Emit(trace.EvSlowRead, int32(leaf.Depth()), uint64(o), 0)
	}
	// Attribution tiling (internal/attr): when this occurrence is
	// sampled, consecutive Lap calls split the whole slow path into
	// disjoint component windows — resolve+ancestry (AncestryQuery),
	// gate acquire (GateEnter), pin CAS + pinned-set publication
	// (PinCAS, with busy/forwarded outcomes as PinRetry), and release +
	// tail bookkeeping (GateExit) — so the estimated components sum to
	// the slow path's whole cost, not a sample of its parts. Each
	// window includes the adjacent stats/trace bookkeeping it brackets;
	// that bias is documented in DESIGN.md §10.
	at := leaf.AttrSink.Begin()
	chased := false // v came from a forwarding pointer, not from the field
	for {
		x := v.Ref()
		c := m.Space.ChunkOf(x)
		xh := hierarchy.OwnerOf(c)
		if xh == nil {
			// The chunk was released between the caller's load and our
			// lookup. The collection that did it has already updated the
			// field, so reload and retry.
			cur := oc.Load(o, i)
			if !cur.IsRef() {
				leaf.AttrSink.End(attr.AncestryQuery, at)
				return cur, nil
			}
			if cur == v {
				runtime.Gosched()
			}
			v = cur
			continue
		}
		// One question, from the leaf's two-entry cache when it was
		// recently asked about xh (ancestry is immutable, so repeated reads
		// against the same heap skip the oracle, even with stores into
		// another heap between them): how deep is the LCA with the owner,
		// and is that the owner itself?
		unpin, onPath := m.Tree.Relate(leaf, xh)
		if onPath && chased {
			// A copy lies in its original's heap, or in an ancestor it
			// merged into, never on our path when the original was not: the
			// forwarding word was stale or torn (DESIGN.md §6 decision 7).
			// This is the one exit that does not compare v with the field,
			// so the field decides.
			chased = false
			if v = oc.Load(o, i); !v.IsRef() {
				leaf.AttrSink.End(attr.AncestryQuery, at)
				return v, nil
			}
			continue
		}
		if onPath {
			// Disentangled: the target is on our root-to-leaf path.
			leaf.AttrSink.End(attr.AncestryQuery, at)
			return v, nil
		}
		// Entangled read. The unpin depth (the LCA with the owner) also
		// bounds the already-pinned fast path below. The header is loaded
		// only now: a disentangled read never needs its line.
		at = leaf.AttrSink.Lap(attr.AncestryQuery, at)
		if c.Header(x).PinnedWithin(unpin) && oc.Load(o, i) == v {
			// Already-pinned fast path: a pin at (or above) our LCA depth
			// cannot be revoked while our strand runs — unpinning at depth
			// d requires a merge into a heap of depth ≤ d, and every such
			// merge point is an ancestor of ours whose join waits for us.
			// The object therefore cannot move or be reclaimed: no gate,
			// no CAS, no publication needed, and no test of xh's dead flag.
			// The field is re-read after the header because v may be stale
			// (see the package comment for both).
			// (Attribution: the header validation is the degenerate pin — it
			// lands in PinCAS.)
			leaf.Tally[trace.EntangledReads]++
			if ring != nil {
				ring.Emit(trace.EvEntangledRead, int32(leaf.Depth()), uint64(x), uint64(unpin))
			}
			leaf.AttrSink.End(attr.PinCAS, at)
			if m.Mode == Detect {
				return v, fmt.Errorf("read of concurrent object %v: %w", x, ErrEntangled)
			}
			return v, nil
		}
		if xh.Dead() {
			// xh merged away after the lookup. Merge re-points every chunk
			// before it sets dead, so the chunk names the live owner now; a
			// chunk still naming xh is a merge that skipped it, and this
			// loop would spin on it for ever.
			if hierarchy.OwnerOf(c) == xh {
				panic(fmt.Sprintf("entangle: chunk %d still owned by heap %d, which merged away", c.ID, xh.ID))
			}
			continue
		}
		// Pin-then-validate under the owner's reader gate, which excludes
		// the bulk phases of its collections and of the merge that would
		// retire it (so xh stays live and its objects stay put while we
		// are inside).
		xh.Gate.EnterReader()
		at = leaf.AttrSink.Lap(attr.GateEnter, at)
		if c.HeapID() != xh.ID {
			xh.Gate.ExitReader()
			at = leaf.AttrSink.Lap(attr.GateExit, at)
			continue // ownership moved; re-resolve
		}
		cur := oc.Load(o, i)
		if cur != v {
			// A collection moved the target (and updated the field)
			// before we entered the gate; use the current location.
			xh.Gate.ExitReader()
			if !cur.IsRef() {
				leaf.AttrSink.End(attr.GateExit, at)
				return cur, nil
			}
			at = leaf.AttrSink.Lap(attr.GateExit, at)
			v = cur
			continue
		}
		st, h, retries := m.Space.PinAt(c, x, unpin)
		countPin(&leaf.Tally, st, retries)
		if st == mem.PinBusy || st == mem.PinForwarded {
			// A stale copy in a retained from-space chunk (or a copy still
			// in flight elsewhere): chase the forward pointer if it is
			// already installed, otherwise back off and re-resolve.
			xh.Gate.ExitReader()
			if nx, fwd := m.Space.Forwarded(x); fwd {
				v, chased = nx.Value(), true
			} else {
				runtime.Gosched()
			}
			at = leaf.AttrSink.Lap(attr.PinRetry, at)
			continue
		}
		// The pin also marked the acquired object a candidate, so our
		// reads *through* it take the slow path too; anything it leads to
		// is concurrent with us.
		m.notePin(leaf, xh, x, unpin, st, h)
		at = leaf.AttrSink.Lap(attr.PinCAS, at)
		leaf.Tally[trace.EntangledReads]++
		leaf.TraceRing.Emit(trace.EvEntangledRead, int32(leaf.Depth()), uint64(x), uint64(unpin))
		xh.Gate.ExitReader()
		leaf.AttrSink.End(attr.GateExit, at)
		if m.Mode == Detect {
			return v, fmt.Errorf("read of concurrent object %v: %w", x, ErrEntangled)
		}
		return v, nil
	}
}

// pinEntangled pins x, which lies in chunk c, at the given unpin depth on
// the entangled-write path, retrying across heap merges. Lock-free: gate
// entry, ownership check, one CAS. The chunk is resolved again only after
// chasing a forward; a merge re-points the chunk, so a retry re-reads its
// owner. leaf (the writer's own heap) takes the counts and the events — its
// tally and ring belong to the strand running this barrier. at is OnWrite's
// open attribution window (0 when not sampling); the gate/CAS/exit segments
// are tiled the same way as OnRead's.
func (m *Manager) pinEntangled(leaf *hierarchy.Heap, c *mem.Chunk, x mem.Ref, unpin int, at int64) {
	for {
		xh := hierarchy.OwnerOf(c)
		if xh == nil || xh.Dead() {
			runtime.Gosched()
			continue // merge in flight; ownership re-resolves to the live heap
		}
		xh.Gate.EnterReader()
		at = leaf.AttrSink.Lap(attr.GateEnter, at)
		if c.HeapID() != xh.ID {
			xh.Gate.ExitReader()
			at = leaf.AttrSink.Lap(attr.GateExit, at)
			continue
		}
		st, h, retries := m.Space.PinAt(c, x, unpin)
		countPin(&leaf.Tally, st, retries)
		if st == mem.PinBusy || st == mem.PinForwarded {
			xh.Gate.ExitReader()
			if nx, fwd := m.Space.Forwarded(x); fwd {
				x, c = nx, m.Space.ChunkOf(nx)
			} else {
				runtime.Gosched()
			}
			at = leaf.AttrSink.Lap(attr.PinRetry, at)
			continue
		}
		m.notePin(leaf, xh, x, unpin, st, h)
		at = leaf.AttrSink.Lap(attr.PinCAS, at)
		xh.Gate.ExitReader()
		leaf.AttrSink.End(attr.GateExit, at)
		return
	}
}

// countPin tallies one PinHeader call: its outcome, a fresh pin as Pins,
// and the CASes it lost.
func countPin(t *hierarchy.Tally, st mem.PinStatus, retries int) {
	t[trace.Pins+trace.Count(st)]++
	t[trace.PinRetries] += int64(retries)
}

// notePin does the bookkeeping of a PinHeader call that took (st is PinNew,
// PinDepthLowered or PinAlready; was is the header it observed), still
// inside xh's reader gate. A fresh pin goes on the gauge and into xh's
// pinned buffer while the gate is held: the join that will unpin the object
// must close that gate first, so it can neither miss the entry nor take the
// object off the gauge before it is on.
func (m *Manager) notePin(leaf, xh *hierarchy.Heap, x mem.Ref, unpin int, st mem.PinStatus, was mem.Header) {
	if st == mem.PinAlready {
		return
	}
	if !was.Candidate() {
		leaf.Tally[trace.Candidates]++
	}
	if st == mem.PinNew {
		m.Stats.pinned(int64(was.Len()) + 1)
		xh.AddPinned(x)
		leaf.TraceRing.Emit(trace.EvPin, int32(leaf.Depth()), uint64(x), uint64(unpin))
	}
}

// Drain adds h's tally to the tree's totals and clears it. The caller is
// the strand that owns the tally: the one running h, or the one joining it.
func (m *Manager) Drain(h *hierarchy.Heap) { m.Tree.Stats.Drain(&h.Tally) }

// OnJoin retires child at its join with parent — only retiring it when its
// branch released it, merging it otherwise (see hierarchy.Tree.Merge) —
// takes what a merge unpinned off the gauge (which is where the high-water
// marks are captured — see Stats.unpinned) and drains the child's tally:
// its strand has finished, so the joining strand owns it now.
func (m *Manager) OnJoin(child, parent *hierarchy.Heap) {
	n, words := m.Tree.Merge(child, parent, m.Space)
	if n > 0 {
		m.Stats.unpinned(n, words)
	}
	m.Drain(child)
	if r := parent.TraceRing; r != nil && trace.Enabled() {
		now, peak := m.Stats.load()
		d := int32(parent.Depth())
		r.Emit(trace.EvCounter, d, uint64(trace.CtrPinnedBytes), uint64(now.words()*8))
		r.Emit(trace.EvCounter, d, uint64(trace.CtrPinnedPeakBytes), uint64(peak.words()*8))
		m.Tree.Stats.Emit(r, d)
	}
}
