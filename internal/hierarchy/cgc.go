package hierarchy

import (
	"mplgo/internal/mem"
)

// Concurrent-collection coordination. A heap participating in a CGC cycle
// (gc/cgc.go) carries a status word whose idle side doubles as the owner's
// park flag: a heap is claimable exactly while its owner task is suspended
// in a join, and the owner cannot resume past an in-flight cycle.
// The status word decides *who* may touch the heap; the existing collection
// Gate still orders the bulk phases themselves — the collector holds it
// across root harvest and sweep, merges wait it out via WaitBeginCollect,
// and no new lock is introduced.
//
//	         CGCPark (owner)           CGCClaim            CGCBeginSweep
//	         ────────────►           (CAS, under gate)        (CAS)
//	active                 parked ──────────► scoped ──────────► sweeping
//	         ◄────────────   ▲                  │                   │
//	         CGCTryResume    └──────────────────┴───────────────────┘
//	         (owner, CAS)       CGCRelease (collector: sweep done / abandon)
//
// The protocol's load-bearing property: a heap is scoped or sweeping ONLY
// while its owner is parked (or spinning in its resume loop), so the
// collector never races the owner's bump pointer, free-list carving, or
// merges. "LiveChildren > 0" alone would not give that — between a join
// completing and its merges running, the owner executes with live children
// still counted. Resume waits out the cycle rather than revoking the
// claim: the cycle always completes the sweep of a heap it claimed, which
// is what makes the collector productive on schedules where fork–join
// windows are shorter than its scheduling latency (a single-P runtime
// being the extreme case). The wait is safe: the owner keeps passing
// safepoints while it spins, so the mark phase never waits on it, and a
// waiting owner touches nothing the sweep restructures. Merges need no
// revocation hook at all: both sides of a merge have active owners (the
// child's task finished; the parent's is running the join), so neither can
// be scoped.
const (
	// cgcActive: the owner is (or may be) running in the heap. Never
	// claimable. The zero value, so heaps are born active.
	cgcActive uint32 = iota
	// cgcParked: the owner is suspended in a Par's ForkJoin and will not
	// touch the heap, its chunks, or its allocator until CGCResume. The
	// only claimable state.
	cgcParked
	// cgcScoped: the heap is in the current cycle's snapshot; the collector
	// is (or will be) marking it.
	cgcScoped
	// cgcSweeping: the collector is rebuilding the heap's chunk list and
	// free spans under the heap's gate.
	cgcSweeping
)

// CGCPark marks the heap's owner as suspended, opening the claim window.
// Owner-only, immediately before the ForkJoin of a Par; the owner
// must not touch the heap again until CGCResume returns.
func (h *Heap) CGCPark() { h.cgcStatus.Store(cgcParked) }

// CGCTryResume attempts to close the claim window: the owner's first act
// after its join completes. A false return means a cycle holds the heap
// (scoped or sweeping); the owner must wait for the collector's CGCRelease
// and retry rather than revoke the claim. The retry loop lives in the
// runtime layer (core.Task.cgcResumeHeap) because the owner must keep
// passing collection safepoints while it waits: the cycle may have claimed
// the heap before its barrier flip, in which case its ragged handshake is
// waiting on this very task, and blocking here without re-scanning would
// deadlock owner and collector against each other.
func (h *Heap) CGCTryResume() bool {
	return h.cgcStatus.CompareAndSwap(cgcParked, cgcActive)
}

// CGCClaimable reports whether a claim could currently succeed — the
// collector's cheap pre-filter before it takes the heap's gate.
func (h *Heap) CGCClaimable() bool { return h.cgcStatus.Load() == cgcParked }

// CGCClaim attempts to place the heap in a concurrent cycle's snapshot;
// it succeeds only while the owner is parked. Collector-only; called while
// holding the heap's gate so bitmap installation is ordered against
// readers and late merges.
func (h *Heap) CGCClaim() bool {
	return h.cgcStatus.CompareAndSwap(cgcParked, cgcScoped)
}

// CGCBeginSweep performs the scoped→sweeping transition. Collector-only.
// Under the park protocol the CAS cannot fail for a heap the cycle still
// holds; the result is kept so a future revocation path would be caught.
func (h *Heap) CGCBeginSweep() bool {
	return h.cgcStatus.CompareAndSwap(cgcScoped, cgcSweeping)
}

// CGCRelease hands the heap back at the end of a cycle (after its sweep,
// or when the cycle is abandoned). Collector-only. The heap returns to
// parked, not active: its owner is still suspended (or blocked in
// CGCResume, whose CAS this store enables) and a long park window may span
// several cycles.
func (h *Heap) CGCRelease() { h.cgcStatus.Store(cgcParked) }

// PushReusable hands a chunk whose free list the sweep just threaded back
// to the owner. Collector-only, called under the heap's gate; the owner
// drains at its next allocation safepoint.
func (h *Heap) PushReusable(c *mem.Chunk) { h.reuseBuf.push(c) }

// DrainReusable detaches and visits the swept-chunk handoff buffer.
// Owner-only. The local collector also calls it (discarding) at collection
// start: chunks it is about to evacuate must not linger as allocation
// targets.
func (h *Heap) DrainReusable(visit func(*mem.Chunk)) {
	h.reuseBuf.drain(func(c *mem.Chunk) {
		if visit != nil {
			visit(c)
		}
	})
}

// ForEachPinned visits every pinned object recorded against this heap —
// the owner-only view plus the lock-free publication buffer — without
// draining or mutating either. Collector root harvest; caller holds the
// heap's gate.
func (h *Heap) ForEachPinned(visit func(mem.Ref)) {
	h.Pinned.Each(visit)
	h.pinBuf.peek(visit)
}

// ForEachRemembered visits every remembered down-pointer entry targeting
// this heap — owner view plus publication buffer — without draining.
// Collector root harvest; caller holds the heap's gate.
func (h *Heap) ForEachRemembered(visit func(RememberedEntry)) {
	h.Remset.Each(visit)
	h.remBuf.peek(visit)
}

// ReplaceChunks installs the post-sweep chunk list. Collector-only, under
// the heap's gate with the owner parked.
func (h *Heap) ReplaceChunks(cs []*mem.Chunk) { h.Chunks = cs }
