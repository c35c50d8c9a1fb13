package gc

// The concurrent collector (CGC): snapshot-at-the-beginning, non-moving
// mark–sweep over *internal* heaps — heaps with live children, whose owner
// task is suspended in a join. The local collector (Collect) can only reach
// the current task's leaf, so memory that dies while a heap is
// internal used to wait for the owner to resume (deviation D2); CGC
// reclaims it while the subtree is still running.
//
// Why non-moving: internal heaps are exactly the ones concurrent tasks may
// reach through entangled objects and down-pointers, so relocation would
// race every reader. Instead, dead objects are overwritten in place with
// KFree spans, fully-dead chunks go back to the space's free list, and
// partially-dead chunks have a free list threaded through them which the
// owner's allocator reuses after it resumes (mem.Allocator.AddReusable).
//
// The cycle, and why each phase ordering matters:
//
//  1. Snapshot. Under each candidate heap's gate (TryBeginCollect — busy
//     heaps are skipped, cycles are opportunistic): claim the heap's status
//     word (hierarchy.CGCClaim — a CAS that succeeds only while the owner
//     is parked in its join, so the claim can never race the owner's bump
//     pointer or free-list carving) and install mark states on its current
//     chunks (mem.Space.BeginMarks, whose pool the local collector shares).
//     They must exist before the barrier turns on, since the barrier uses
//     "has a mark state" as its in-scope test.
//  2. Barrier on + ragged safepoint. Marking() flips true; every mutator
//     write now shades the overwritten value (entangle.ShadeOverwritten).
//     Then the cycle waits until every live task has handshaked once:
//     parked tasks (suspended in ForkJoin) are claim-scanned by the
//     collector; running tasks self-scan at their next safepoint. No
//     tracing happens before the handshake completes. This is what closes
//     the flip race: a write that loaded the phase before the flip
//     completes before its task's handshake (program order for running
//     tasks, parkedness for parked ones), and the handshake captures the
//     task's frames — so a reference deleted by such an unshaded write is
//     still harvested from the frame that held it.
//  3. Root harvest. Under each gate: pinned tables and root sets of every
//     live heap, plus remembered down-pointer entries of the scoped heaps.
//     Buffers are peeked, not drained — draining folds into owner-only
//     slices the collector must not touch.
//  4. Concurrent mark. Single worker; mutators keep running. Marking
//     traces the full reachable graph but *marks* only scoped objects:
//     out-of-scope objects (leaf heaps, chunks born mid-cycle) are passed
//     through via a per-cycle visited set, because up-pointers from
//     descendant heaps are unrecorded and an in-scope object may be
//     reachable only through them.
//  5. Termination. Greys and shades are drained to a fixpoint; then every
//     live gate is flushed once (shade pushes hold the writer's reader
//     gate across the phase check, so the flush makes in-flight pushes
//     visible) and the queue drained again. If that uncovers no new work
//     the fixpoint is genuine: any later shade is of an already-marked
//     object, so the barrier can turn off.
//  6. Sweep. Per scoped heap: the scoped→sweeping CAS, take the gate, and
//     rebuild the chunk list. The owner is parked (or blocked in
//     hierarchy.CGCResume) for the whole cycle, so the chunk list and bump
//     offsets are stable; the snapshot filter (only chunks recorded at
//     claim time, with unchanged bump offsets, are swept) is kept as a
//     defensive invariant, not a synchronization mechanism. Liveness is
//     mark-bit-or-pinned; forwarding headers are never marked, so stale
//     forwards are reclaimed too. Fully-dead chunks are released — the
//     owner revalidates its allocation targets on resume
//     (mem.Allocator.Revalidate), since one of them may be its bump chunk.
//
// Objects allocated during the cycle live in chunks without mark states and in
// heaps outside the scope, so they are implicitly black; nothing allocated
// after the snapshot can be freed by this cycle.

import (
	"runtime"
	"sync/atomic"
	"time"

	"mplgo/internal/attr"
	"mplgo/internal/chaos"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// CGC phases, exposed to the write barrier through Marking().
const (
	cgcIdle uint32 = iota
	cgcMarking
	cgcSweeping
)

// reuseMinWords is the smallest threaded free list worth handing back to
// the owner's allocator; chunks with less stay retained until fully dead.
const reuseMinWords = 16

// Handshaker is implemented by the runtime layer: it owns the task
// registry and the park/claim protocol, which the gc package cannot see.
type Handshaker interface {
	// ScanTasks brings tasks up to the given cycle epoch: parked tasks are
	// claim-scanned (their roots passed to grey), running tasks are
	// left to self-scan at their next safepoint. It reports whether every
	// registered task has been scanned this epoch.
	ScanTasks(epoch uint64, grey func(mem.Value)) bool
}

// CGCResult reports what one concurrent cycle did.
type CGCResult struct {
	ScopeHeaps     int
	LiveWords      int64 // live payload+header words swept over
	FreedWords     int64 // words turned into free spans
	SweptChunks    int   // fully-dead chunks released to the space
	RetainedChunks int   // scoped chunks kept (live or pinned objects)
	Aborted        bool
}

// shadeNode / shadeStack: a Treiber stack carrying SATB shades from
// mutators to the collector. Push is a single CAS publish, so a concurrent
// drain never observes a half-written slot; drain detaches the whole list.
type shadeNode struct {
	v    mem.Ref
	next *shadeNode
}

type shadeStack struct {
	top atomic.Pointer[shadeNode]
}

func (s *shadeStack) push(r mem.Ref) {
	n := &shadeNode{v: r}
	for {
		t := s.top.Load()
		n.next = t
		if s.top.CompareAndSwap(t, n) {
			return
		}
	}
}

func (s *shadeStack) drain(visit func(mem.Ref)) {
	for n := s.top.Swap(nil); n != nil; n = n.next {
		if visit != nil {
			visit(n.v)
		}
	}
}

// CGC is the concurrent collector for one runtime instance. One cycle runs
// at a time (the runtime's single collector worker); the mutator-facing
// entry points — Marking, InScope, Shade, Epoch — are safe from any task.
type CGC struct {
	Space *mem.Space
	Tree  *hierarchy.Tree
	Chaos *chaos.Injector

	// Ring is the collector's event ring (the tracer's extra ring at index
	// P; nil in untraced runtimes). Only the collector goroutine — the one
	// running RunCycle — writes to it.
	Ring *trace.Ring

	// Attr is the collector's cost-attribution sink (nil when attribution
	// is off); single-writer, owned by the RunCycle goroutine. The
	// collector-side ShadeQueue windows — the SATB drains during mark —
	// land here, complementing the mutator-side push windows recorded in
	// entangle.ShadeOverwritten.
	Attr *attr.Sink

	phase atomic.Uint32
	epoch atomic.Uint64
	shade shadeStack

	// Worker-local cycle state.
	greys   []mem.Ref
	visited map[mem.Ref]struct{} // pass-through objects seen this cycle

	// LastLiveWords is a gauge: the live words the last sweep passed over.
	// A completed cycle adds its counts to the tree's trace.CGC* rows.
	LastLiveWords atomic.Int64
}

// NewCGC creates a concurrent collector.
func NewCGC(space *mem.Space, tree *hierarchy.Tree, in *chaos.Injector) *CGC {
	return &CGC{Space: space, Tree: tree, Chaos: in}
}

// Marking reports whether the SATB deletion barrier must be honored.
func (g *CGC) Marking() bool { return g.phase.Load() == cgcMarking }

// Claimable reports whether a live heap's owner is parked, so that a cycle
// started now could claim it. It takes no lock and may be stale by the time
// it returns: the runtime's worker asks it before it takes the exclusion it
// grants local collections, so that a cycle with nothing to claim does not
// defer them for the length of its walk over the heaps.
func (g *CGC) Claimable() bool {
	for _, h := range g.Tree.Live() {
		if h.CGCClaimable() {
			return true
		}
	}
	return false
}

// Epoch returns the current cycle epoch. Tasks compare their last-scanned
// epoch against it at safepoints; tasks created at the current epoch are
// born scanned (their initial roots came from an already-scanned parent).
func (g *CGC) Epoch() uint64 { return g.epoch.Load() }

// InScope reports whether r lies in a chunk the current cycle is marking.
func (g *CGC) InScope(r mem.Ref) bool {
	c := g.Space.ChunkByID(r.Chunk())
	return c != nil && c.Marks() != nil
}

// Shade pushes a reference onto the SATB queue. Callers must hold their
// own heap's reader gate across the Marking() check and this push — that
// is what lets the termination gate flush observe in-flight shades.
func (g *CGC) Shade(r mem.Ref) {
	if ch := g.Chaos; ch != nil && ch.Should(chaos.CGCShade) {
		runtime.Gosched()
	}
	g.shade.push(r)
}

// mutatorWait blocks the collector while it waits on mutator progress (a
// safepoint handshake it cannot force). A timer sleep, not Gosched: a
// yield hands a single-P scheduler the rest of the mutator's preemption
// quantum — often milliseconds, longer than the fork–join window the cycle
// is racing — while a timer wakeup is injected back promptly on any P
// count. The 20µs grain costs a multi-P cycle nothing measurable.
func mutatorWait() {
	time.Sleep(20 * time.Microsecond)
}

// snapChunk records one chunk of the snapshot with its bump offset at
// claim time; the sweep refuses chunks whose offset moved (a stolen-back
// owner carved into them).
type snapChunk struct {
	c     *mem.Chunk
	alloc int
}

// RunCycle executes one concurrent collection. The caller (the runtime's
// CGC worker) must hold whatever exclusion it grants local collections for
// the whole call; stop is polled at the long waits and aborts the cycle
// cleanly when true.
func (g *CGC) RunCycle(hs Handshaker, stop func() bool) CGCResult {
	var res CGCResult
	// Discard shades that trickled in after the previous cycle's barrier
	// turned off: their targets may since have been swept.
	g.shade.drain(nil)

	// Phase 1: snapshot. A heap is a candidate while its owner is parked in
	// a join (hierarchy.CGCPark); the claim CAS succeeds only in
	// that state, so a claimed heap's chunks and allocator are untouched by
	// their owner for the whole cycle. The gate orders the mark states'
	// installation against readers.
	var scope []*hierarchy.Heap
	snap := make(map[uint32][]snapChunk)
	for _, h := range g.Tree.Live() {
		if h.Dead() || !h.CGCClaimable() {
			continue
		}
		if !h.Gate.TryBeginCollect() {
			continue // busy (merge, LGC flush): skip this cycle
		}
		if !h.Dead() && h.CGCClaim() {
			cs := make([]snapChunk, 0, len(h.Chunks))
			for _, c := range h.Chunks {
				g.Space.BeginMarks(c)
				cs = append(cs, snapChunk{c, c.Alloc})
			}
			snap[h.ID] = cs
			scope = append(scope, h)
		}
		h.Gate.EndCollect()
	}
	if len(scope) == 0 {
		return res
	}
	res.ScopeHeaps = len(scope)
	g.visited = make(map[mem.Ref]struct{}, 256)
	g.Ring.Emit(trace.EvCGCCycleBegin, 0, uint64(len(scope)), 0)

	inMark := false
	abandon := func() CGCResult {
		g.phase.Store(cgcIdle)
		for _, h := range scope {
			for _, sc := range snap[h.ID] {
				g.Space.EndMarks(sc.c)
			}
			h.CGCRelease()
		}
		g.shade.drain(nil)
		g.greys = g.greys[:0]
		g.visited = nil
		res.Aborted = true
		if inMark {
			g.Ring.Emit(trace.EvCGCMarkEnd, 0, 0, 0)
		}
		g.Ring.Emit(trace.EvCGCCycleEnd, 0, 0, 1)
		return res
	}

	// Phase 2: barrier on, then the ragged safepoint. The epoch bump comes
	// after the phase flip so a task born between the two still carries the
	// old epoch and is made to handshake.
	g.phase.Store(cgcMarking)
	epoch := g.epoch.Add(1)
	grey := func(v mem.Value) {
		if v.IsRef() {
			g.greys = append(g.greys, v.Ref())
		}
	}
	for !hs.ScanTasks(epoch, grey) {
		if stop() {
			return abandon()
		}
		mutatorWait()
	}

	// Phase 3: root harvest. Pinned objects of every live heap feed the
	// pass-through trace; remembered down-pointer fields only matter for
	// the scoped heaps themselves. Frame roots are deliberately NOT read
	// here: h.RootSets and the frames behind it are owner-mutated without
	// the gate, so touching them for a running task would race. They are
	// covered anyway — the ragged safepoint already published every task's
	// frames (claim-scan for parked tasks, cgcSafepoint self-scan for
	// running ones), and a snapshot-reachable ref that moves into a frame
	// afterwards was deleted from some field on the way, which the SATB
	// barrier shades, or is a branch's result, which the branch shades.
	for _, h := range g.Tree.Live() {
		if h.Dead() {
			continue
		}
		h.Gate.WaitBeginCollect()
		h.ForEachPinned(func(r mem.Ref) { grey(r.Value()) })
		if _, in := snap[h.ID]; in {
			h.ForEachRemembered(func(e hierarchy.RememberedEntry) {
				hd := g.Space.Header(e.Holder)
				if !hd.Valid() || hd.Kind() == mem.KFree || hd.Kind() == mem.KForward {
					return
				}
				if n := max(hd.Len(), 1); e.Index < 0 || e.Index >= n {
					return
				}
				grey(g.Space.Load(e.Holder, e.Index))
			})
		}
		h.Gate.EndCollect()
	}

	// Phase 4+5: concurrent mark to a flushed fixpoint.
	g.Ring.Emit(trace.EvCGCMarkBegin, 0, 0, 0)
	inMark = true
	marked := int64(0)
	budget := 0
	drainGreys := func() {
		for len(g.greys) > 0 {
			r := g.greys[len(g.greys)-1]
			g.greys = g.greys[:len(g.greys)-1]
			if g.markRef(r) {
				marked++
			}
			if budget++; budget&1023 == 0 {
				runtime.Gosched()
			}
		}
	}
	for {
		drainGreys()
		at := g.Attr.Begin()
		g.shade.drain(func(r mem.Ref) { g.greys = append(g.greys, r) })
		g.Attr.End(attr.ShadeQueue, at)
		if len(g.greys) > 0 {
			continue
		}
		if stop() {
			return abandon()
		}
		// Candidate fixpoint. Ask the registry first: a task it finds at the
		// epoch, or gone, pushed its last shades before it said so — its
		// self-scan, or the result it delivered (core's Task.settle) — and
		// the drain below finds them. Then flush every live gate so any
		// shade pushed by a barrier that saw Marking()==true is in the queue
		// too.
		all := hs.ScanTasks(epoch, grey)
		for _, h := range g.Tree.Live() {
			if h.Dead() {
				continue
			}
			h.Gate.WaitBeginCollect()
			h.Gate.EndCollect()
		}
		at = g.Attr.Begin()
		g.shade.drain(func(r mem.Ref) { g.greys = append(g.greys, r) })
		g.Attr.End(attr.ShadeQueue, at)
		if !all {
			// A task appeared (or parked) since the last sweep of the
			// registry; fold its roots in and keep going.
			mutatorWait()
			continue
		}
		if len(g.greys) == 0 {
			break
		}
	}
	g.Ring.Emit(trace.EvCGCMarkEnd, 0, uint64(marked), 0)
	inMark = false

	// Phase 6: barrier off, sweep. Mutators stop shading; stragglers that
	// raced the flip park harmlessly in the queue until the next cycle's
	// opening drain.
	g.phase.Store(cgcSweeping)
	g.Ring.Emit(trace.EvCGCSweepBegin, 0, 0, 0)
	for _, h := range scope {
		if !h.CGCBeginSweep() {
			// Cannot happen under the park protocol (nothing revokes a
			// claim); kept so a future revocation path degrades to
			// "conservatively live this cycle" instead of a torn sweep.
			for _, sc := range snap[h.ID] {
				g.Space.EndMarks(sc.c)
			}
			continue
		}
		h.Gate.WaitBeginCollect()
		h.DrainBuffers()
		inSnap := make(map[*mem.Chunk]int, len(snap[h.ID]))
		for _, sc := range snap[h.ID] {
			inSnap[sc.c] = sc.alloc
		}
		kept := make([]*mem.Chunk, 0, len(h.Chunks))
		for _, c := range h.Chunks {
			alloc, in := inSnap[c]
			delete(inSnap, c)
			if !in || c.Alloc != alloc {
				// Not in the snapshot, or its bump offset moved since the
				// claim. The park protocol should rule both out (no merges,
				// no owner allocation while scoped); treat any appearance as
				// allocate-black and keep the chunk wholesale.
				g.Space.EndMarks(c)
				kept = append(kept, c)
				continue
			}
			if ch := g.Chaos; ch != nil && ch.Should(chaos.CGCSweep) {
				runtime.Gosched()
			}
			st, dead := g.Space.SweepMarked(c)
			res.LiveWords += int64(st.LiveWords)
			res.FreedWords += int64(st.FreedWords)
			g.Space.EndMarks(c)
			if dead {
				g.Ring.Emit(trace.EvChunkRelease, 0, uint64(c.ID), uint64(c.Words()))
				g.Space.Release(c)
				res.SweptChunks++
				continue
			}
			res.RetainedChunks++
			kept = append(kept, c)
			if st.FreeWords >= reuseMinWords {
				h.PushReusable(c)
				g.Ring.Emit(trace.EvChunkReuse, 0, uint64(c.ID), uint64(st.FreeWords))
			}
		}
		// Snapshot chunks no longer on the list (merged away — cannot
		// happen while scoped, but stay defensive) still lose their marks.
		for c := range inSnap {
			g.Space.EndMarks(c)
		}
		h.ReplaceChunks(kept)
		h.Overwritten = 0
		h.Growth = 0
		// Entries whose holders this cycle just freed must not survive as
		// roots, or a later collection would read a KFree span as a holder
		// (owner parked, gate held: the owner-only list is ours);
		// later-swept holders are caught by the KFree guards.
		h.Remset.Filter(func(e hierarchy.RememberedEntry) bool {
			c := g.Space.ChunkByID(e.Holder.Chunk())
			if c == nil || c.HeapID() == 0 {
				return false
			}
			hd := g.Space.Header(e.Holder)
			return hd.Valid() && hd.Kind() != mem.KFree
		})
		h.Gate.EndCollect()
		h.CGCRelease()
	}

	g.phase.Store(cgcIdle)
	g.greys = g.greys[:0]
	g.visited = nil
	g.Tree.Stats.Add(trace.CGCCycles, 1)
	g.Tree.Stats.Add(trace.CGCFreedWords, res.FreedWords)
	g.Tree.Stats.Add(trace.CGCSweptChunks, int64(res.SweptChunks))
	g.Tree.Stats.Add(trace.CGCRetainedChunks, int64(res.RetainedChunks))
	g.LastLiveWords.Store(res.LiveWords)
	g.Ring.Emit(trace.EvCGCSweepEnd, 0, uint64(res.SweptChunks), uint64(res.RetainedChunks))
	g.Ring.Emit(trace.EvCGCCycleEnd, 0, uint64(res.FreedWords), 0)
	g.Ring.Emit(trace.EvCounter, 0, uint64(trace.CtrLiveWords), uint64(res.LiveWords))
	// Flush the collector's attribution totals onto its own ring: both
	// are owned by this goroutine, so the single-writer rule holds.
	g.Attr.EmitCounters(g.Ring, 0)
	return res
}

// markRef processes one grey reference: scoped objects get their mark bit,
// out-of-scope objects are passed through via the visited set, and either
// way scannable payloads push their reference fields. Reports whether a
// scoped object was newly marked. Every load is guarded — greys come from
// concurrently mutated fields, so a ref may be stale, forwarded, or point
// into a chunk that has since been released.
func (g *CGC) markRef(r mem.Ref) bool {
	c := g.Space.ChunkByID(r.Chunk())
	if c == nil || c.HeapID() == 0 {
		return false
	}
	off := r.Off()
	if off < 0 || off >= c.Words() {
		return false
	}
	hd := g.Space.Header(r)
	if !hd.Valid() {
		return false
	}
	switch hd.Kind() {
	case mem.KFree:
		return false
	case mem.KForward:
		// Chase without marking: a forwarding header is never live, and
		// sweeping it is what finally reclaims pin-retained from-space.
		if v := g.Space.Load(r, 0); v.IsRef() {
			g.greys = append(g.greys, v.Ref())
		}
		return false
	}
	newly := false
	if m := c.Marks(); m != nil {
		if !m.Mark(off) {
			return false
		}
		newly = true
	} else {
		if _, seen := g.visited[r]; seen {
			return false
		}
		g.visited[r] = struct{}{}
	}
	if ch := g.Chaos; ch != nil && ch.Should(chaos.CGCMark) {
		runtime.Gosched()
	}
	if !hd.Kind().Scanned() {
		return newly
	}
	n := hd.Len()
	if off+1+n > c.Words() {
		return newly
	}
	for i := 0; i < n; i++ {
		if v := g.Space.Load(r, i); v.IsRef() {
			g.greys = append(g.greys, v.Ref())
		}
	}
	return newly
}
