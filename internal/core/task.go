package core

import (
	"sync/atomic"

	"mplgo/internal/chaos"
	"mplgo/internal/entangle"
	"mplgo/internal/gc"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/sched"
	"mplgo/internal/sim"
	"mplgo/internal/trace"
)

// Task is a strand of the fork–join computation. Tasks are not safe for
// concurrent use: each task belongs to the worker executing it. All heap
// access must go through the task so the entanglement barriers run.
//
// GC discipline: local collections move objects, and they happen only
// inside allocation calls. Any mem.Ref a program holds in Go variables
// across an allocation must be registered in a Frame (see NewFrame);
// arguments passed *to* allocation calls are protected automatically.
type Task struct {
	rt    *Runtime
	w     *sched.Worker
	heap  *hierarchy.Heap
	alloc *mem.Allocator
	node  *sim.Node // current recording segment (nil when not recording)

	// frames is the shadow stack: one independently-allocated slab per
	// Frame, visited by collections as roots. Slabs are deliberately NOT
	// windows into one contiguous slice: a Frame captured by a Par branch
	// closure may be read from a stolen strand while this task's own strand
	// keeps pushing frames, and a shared backing array would make every
	// such read race with append's reallocation. The spine itself is
	// owner-only (push/pop/roots all run on the owning strand).
	frames [][]mem.Value

	// spare recycles popped slabs: recursion pushes same-sized frames over
	// and over, and a popped slab is unreachable by other strands (its
	// frame's forks have joined), so reuse is safe and keeps NewFrame off
	// the Go allocator.
	spare [][]mem.Value

	// workAcc batches abstract work units task-locally. The access fast
	// paths bump this plain field instead of dereferencing the recording
	// node per access; flushWork drains it into the node at every point
	// where the task's current segment changes (forks, joins, finish), so
	// recorded traces carry exactly the per-segment sums they always did.
	workAcc int64

	// sinceGC counts the words allocated since the last collection; an
	// allocation polls once it reaches pollAt (see guardedGC and arm).
	sinceGC int64
	pollAt  int64

	// scope is the task's request-scoped fault domain (nil for the vast
	// majority of tasks — benchmarks and plain Par trees never set it).
	// uncharged counts the words allocated since the scope chain was last
	// charged for them (see chargeScope).
	scope     *Scope
	uncharged int64

	barriers bool // next to the flags below, keeping Task in its size class

	// Concurrent-collector handshake state (see cgc.go). cgcOn caches
	// rt.cgc != nil so every hook below is one branch when CGC is off;
	// cgcPark is the run/parked/claimed word the collector claims parked
	// tasks through; cgcEpoch is the last cycle epoch this task's frame
	// roots were published for; cgcDeferred records that a collection came
	// due while a cycle held local collections off (see Idle).
	cgcOn       bool
	cgcDeferred bool
	cgcPark     atomic.Uint32
	cgcEpoch    atomic.Uint64

	results [2]mem.Value // what the branches of the task's Par deliver (settle)
}

func (r *Runtime) newTask(w *sched.Worker, h *hierarchy.Heap, node *sim.Node, sc *Scope) *Task {
	t := &Task{
		rt:       r,
		w:        w,
		heap:     h,
		alloc:    mem.NewAllocator(r.space, h.ID),
		node:     node,
		barriers: r.cfg.Mode != entangle.Unsafe,
		scope:    sc,
	}
	if r.cgc != nil {
		t.cgcOn = true
		r.cgcRegister(t)
	}
	t.arm()
	// The heap is executed by this worker's strand from here until its
	// join, so the worker's ring is the heap's single-writer event ring
	// (nil when untraced). Heap-side instrumentation (merge, unpin,
	// entanglement slow paths hit through this leaf) emits into it. The
	// attribution sink rides along under the same ownership rule.
	h.TraceRing = w.Ring
	h.AttrSink = w.Attr
	h.AddRootSet(t)
	return t
}

// finish detaches the task from its heap at the end of its strand.
func (t *Task) finish() {
	t.flushWork()
	t.chargeScope()
	t.rt.ent.Drain(t.heap)
	t.syncChunks()
	t.heap.RemoveRootSet(t)
	if t.cgcOn {
		t.rt.cgcUnregister(t)
	}
}

// syncChunks adopts the allocator's chunks into the task's heap so
// collections and merges see them.
func (t *Task) syncChunks() {
	if len(t.alloc.Chunks) > 0 {
		t.heap.Chunks = append(t.heap.Chunks, t.alloc.Chunks...)
		t.alloc.Chunks = t.alloc.Chunks[:0]
	}
}

// Roots implements hierarchy.RootSet over the shadow stack and Par's results.
func (t *Task) Roots(visit func(*mem.Value)) {
	for _, slab := range t.frames {
		for i := range slab {
			visit(&slab[i])
		}
	}
	for i := range t.results {
		visit(&t.results[i])
	}
}

// Work records n units of abstract computational cost for the simulator's
// work/span accounting. Benchmark kernels call this for their arithmetic.
// The cost lands in a task-local accumulator; flushWork attributes it to
// the current recording segment at the next fork/join boundary.
func (t *Task) Work(n int64) { t.workAcc += n }

// EmitCounter samples an application-level gauge into the task's worker
// ring (the serve dispatcher emits its admission counters this way). The
// single-writer ring discipline is preserved because the emit runs on the
// strand currently executing this task. Free when untraced.
func (t *Task) EmitCounter(c trace.Counter, v uint64) {
	if r := t.w.Ring; r != nil && trace.Enabled() {
		r.Emit(trace.EvCounter, int32(t.heap.Depth()), uint64(c), v)
	}
}

// flushWork drains the batched work accumulator into the task's current
// recording segment. It must run before every reassignment of t.node so
// pending cost is attributed to the segment that incurred it.
func (t *Task) flushWork() {
	if t.node != nil {
		t.node.Work += t.workAcc
	}
	t.workAcc = 0
}

// Runtime returns the runtime this task belongs to.
func (t *Task) Runtime() *Runtime { return t.rt }

// Depth returns the task's heap depth.
func (t *Task) Depth() int { return t.heap.Depth() }

// needGC reports whether the allocation slow path should collect: the
// budget is spent, or the chaos layer forces a collection at this
// allocation. Never after cancellation — the unwind must not move objects
// out from under strands that skipped their pins.
func (t *Task) needGC() bool {
	if t.rt.cfg.DisableGC || t.rt.cancelled.Load() {
		return false
	}
	if t.sinceGC >= t.rt.cfg.HeapBudgetWords {
		return true
	}
	// Explicit nil check before the call: Should is nil-safe but too big to
	// inline, and this runs on every allocation.
	return t.rt.chaos != nil && t.rt.chaos.Should(chaos.GCTrigger)
}

// collectNow unconditionally attempts a local collection of the task's own
// leaf heap, the one heap gc.Collect takes.
//
// MPL's LGC may collect the whole exclusively-owned heap suffix because it
// can scan the ML stacks of suspended ancestor tasks. In this embedding a
// suspended ancestor's Go locals are invisible to the collector, so only
// the current task's heap — whose owner is provably at an allocation
// safepoint with its live references framed — is safe to move (DESIGN.md
// deviation D2). Joined children have already merged their chunks into
// this heap, so their garbage is still reclaimed here.
func (t *Task) collectNow() bool {
	t.syncChunks()
	if t.heap.LiveChildren() != 0 {
		// A live child's strand holds references into this heap that no
		// collection of it can see; retry after more allocation rather
		// than on every call.
		t.sinceGC = t.rt.cfg.HeapBudgetWords / 2
		return false
	}
	if t.cgcOn {
		// Defer — never block — while a concurrent cycle runs: the cycle
		// is waiting on safepoint handshakes, and a mutator blocked here
		// would never reach one.
		if !t.rt.cgcExcl.TryRLock() {
			t.sinceGC = t.rt.cfg.HeapBudgetWords / 2
			t.cgcDeferred = true
			return false
		}
		t.cgcDeferred = false
		defer t.rt.cgcExcl.RUnlock()
	}
	ring := t.w.Ring
	d := int32(t.heap.Depth())
	ring.Emit(trace.EvLGCBegin, d, uint64(t.heap.ID), 0)
	res := t.rt.col.Collect([]*hierarchy.Heap{t.heap})
	ring.Emit(trace.EvLGCEnd, d, uint64(res.CopiedWords), uint64(res.ReclaimedWords))
	// A long-lived task (a serve dispatcher) may never finish: its
	// collections are where its tally reaches the totals.
	t.rt.ent.Drain(t.heap)
	if ring != nil && trace.Enabled() {
		ring.Emit(trace.EvCounter, d, uint64(trace.CtrLiveWords), uint64(t.rt.space.LiveWords()))
		ring.Emit(trace.EvCounter, d, uint64(trace.CtrStaticRegions), uint64(t.rt.elRegions.Load()))
		t.rt.tree.Stats.Emit(ring, d)
		// Periodic attribution flush: this worker owns both the sink and
		// the ring, and a collection is a natural boundary where the
		// strand is already off its fast paths.
		t.w.Attr.EmitCounters(ring, d)
	}
	t.alloc.Retarget(t.heap.ID)
	t.Work(res.CopiedWords * costGCWord)
	t.sinceGC = 0
	if ch := t.rt.chaos; ch != nil && ch.Should(chaos.JoinCheck) {
		// Collection-end audit (relaxed: owner-owned structures only).
		if err := gc.CheckHeap(t.rt.space, t.heap, false); err != nil {
			t.rt.cancelWith(err)
		}
	}
	return true
}

// Par evaluates f and g in parallel and returns both results. Each branch
// runs as a fresh task in a child heap created under the task's heap at
// every fork, whether or not it is stolen. When a branch returns, its heap
// is released on the spot if nothing outside it can reach it, its memory
// handed back whole (see settle); the join merges back every other one.
//
// That makes a contract explicit: once a branch returns, its objects are
// reachable only through its result, through a down-pointer the write
// barrier recorded (a reference the branch stored into an ancestor object),
// or through a pin (a reference a concurrent strand acquired or was handed
// through the barriers). A reference a branch passes out any other way — a
// Go variable, a channel, a parent's Frame slot it sets — is dead as soon as
// the branch returns, not only after the join: the sibling may still be
// running and must not use it either. Results and stores into the heap are
// the way out; Go-side outputs carry immediates.
//
// Par is panic-safe: a panic in either branch is recovered, recorded as the
// runtime's error (see PanicError) and raised as cooperative cancellation,
// which the sibling observes at its own forks and allocation slow paths.
// The join still runs every merge and unpin step, so the heap hierarchy
// stays consistent while the computation unwinds; Run returns the error.
// Par is also a cancellation point: once the runtime is cancelled it skips
// both branches and returns (Nil, Nil) immediately, so deep fork trees
// unwind without doing further work. Request-scoped cancellation (scope.go)
// is checked at the same site — a task whose fault domain died (deadline,
// budget, explicit Cancel) skips its branches the same way, while sibling
// domains keep forking; its joins still run below, so every merge and unpin
// the subtree owes still happens on the way out.
//
// The returned values are safe to use until the task's next allocation;
// register references in a Frame before allocating.
func (t *Task) Par(f, g func(*Task) mem.Value) (mem.Value, mem.Value) {
	if t.rt.cancelled.Load() || t.scopeCancelled() {
		return mem.Nil, mem.Nil
	}
	if t.cgcOn {
		t.cgcSafepoint()
	}
	t.syncChunks()
	t.flushWork()
	var lnode, rnode, anode *sim.Node
	if t.node != nil {
		t.node.Work += costFork
		lnode, rnode, anode = t.node.Fork()
	}
	lheap := t.rt.tree.Fork(t.heap)
	rheap := t.rt.tree.Fork(t.heap)
	t.w.Ring.Emit(trace.EvFork, int32(t.heap.Depth()), uint64(lheap.ID), uint64(rheap.ID))
	// Park for the concurrent collector: from here to the unpark this
	// task runs no code of its own (the branches run as fresh tasks,
	// even on this worker), so its frames — and its fault domain, which
	// the branches inherit — are stable, and the collector may
	// claim-scan them and claim this heap, now suspended under live
	// children, for a concurrent cycle.
	t.cgcParkSelf()
	t.w.ForkJoin(
		func(w *sched.Worker) {
			lt := t.rt.newTask(w, lheap, lnode, t.scope)
			defer lt.finish()
			defer t.rt.guard()
			lt.settle(f(lt), &t.results[0])
		},
		func(w *sched.Worker, _ bool) {
			gt := t.rt.newTask(w, rheap, rnode, t.scope)
			defer gt.finish()
			defer t.rt.guard()
			gt.settle(g(gt), &t.results[1])
		},
	)
	t.cgcUnpark()
	if t.cgcOn {
		// If a concurrent cycle claimed this heap while we were parked,
		// wait for it to finish with the heap rather than revoking the
		// claim — the cycle then always gets to sweep what it marked.
		// Self-scan first: the cycle's mark fixpoint may be waiting for
		// this task's safepoint, which blocking here would never reach.
		// Then drop allocator references to chunks a sweep released:
		// the bump chunk and reuse-list entries may no longer belong to
		// this heap, and carving into them would mint references into
		// free (or recycled) memory.
		t.cgcSafepoint()
		t.cgcResumeHeap()
		t.alloc.Revalidate()
	}
	lv, rv := t.results[0], t.results[1]
	t.results = [2]mem.Value{}
	t.rt.ent.OnJoin(lheap, t.heap)
	t.rt.ent.OnJoin(rheap, t.heap)
	t.w.Ring.Emit(trace.EvJoin, int32(t.heap.Depth()), uint64(t.heap.ID), 0)
	if anode != nil {
		t.node = anode
	}
	if ch := t.rt.chaos; ch != nil && ch.Should(chaos.JoinCheck) {
		// Join audit (relaxed): the merged parent heap, owned by this
		// strand, must parse end to end with a well-formed remembered set.
		t.syncChunks()
		if err := gc.CheckHeap(t.rt.space, t.heap, false); err != nil {
			t.rt.cancelWith(err)
		}
	}
	return lv, rv
}

// settle is a branch's last act. It collects its heap with the result
// rooted, so that garbage is reclaimed here instead of merging into an
// ancestor that may not collect again, on any of three triggers: the words
// it overwrote of what it had published (Heap.Overwritten) pass half the
// allocation budget; the words its own strand allocated since the heap's
// last collection (sinceGC) pass half the budget and the heap outlives the
// branch (kept: a remembered down-pointer, a pin or the result reaches it);
// or those words plus what its joined children merged into it (Heap.Growth)
// pass half the budget and only the result keeps the heap. A merge sort's
// interior node allocates at most its own merge, yet holds its subtree's
// merged arrays: the third trigger collects them as the node returns. It
// leaves out a heap a remembered entry or a pin keeps: such a heap holds
// what other strands reach (a memo table), which a collection would copy
// only to find it live. A heap the release below drops is handed back whole,
// with no collection; what it grew by never reaches its parent. Each such
// collection follows half a budget of overwritten, allocated or merged
// words, as one the budget triggers follows a budget of allocated words.
//
// Then it stores the result into out, its slot in the parent, atomically (the
// parent's claim scan may read it), and shades it if a concurrent cycle
// marks: the branch may pass no safepoint, and the parent's claim scan may
// come first; the collector flips the phase before it scans, so one of the
// two sees the result. Last it releases the heap (hierarchy.Heap.Release) if
// nothing outside can reach it, or else gives back the unused tail of its
// bump chunk (mem.Allocator.GiveBack): the next branch's first refill takes
// it rather than a fresh chunk. The barriers record every way in but the
// result, tested here by one load, the owner of its chunk: a result pointing
// elsewhere (an ancestor, the sibling, which pinned it) keeps nothing alive.
// A non-empty owner-side remembered or pinned set keeps the heap without
// taking its gate. Neither the collection nor the release runs where the
// records may be incomplete: with the barriers off (Unsafe), after a
// runtime-wide cancel (the unwind skips its pins), or with collections off
// (DisableGC: tests pass raw references out of branches). Nor does the
// release run while a concurrent cycle marks, which may pass through objects
// the strand shaded to what they hold (DESIGN.md §6, decision 9): the heap
// merges at its join, which waits the cycle out.
func (t *Task) settle(result mem.Value, out *mem.Value) {
	vouch := t.barriers && !t.rt.cfg.DisableGC && !t.rt.cancelled.Load()
	half := t.rt.cfg.HeapBudgetWords / 2
	h := t.heap
	h.Growth += t.sinceGC
	grown := t.sinceGC > half ||
		h.Growth > half && h.Remset.Len() == 0 && h.Pinned.Len() == 0
	if vouch && (h.Overwritten > half || grown && t.kept(result)) {
		vs := [1]mem.Value{result}
		t.collectRooted(vs[:])
		result = vs[0]
	}
	atomic.StoreUint64((*uint64)(out), uint64(result))
	if t.cgcOn && t.rt.cgc.Marking() {
		if result.IsRef() {
			t.heap.Gate.EnterReader()
			t.rt.cgc.Shade(result.Ref())
			t.heap.Gate.ExitReader()
		}
		return
	}
	if vouch && !t.kept(result) {
		t.syncChunks()
		if t.heap.Release(t.rt.space) {
			return
		}
	}
	t.alloc.GiveBack()
}

// kept reports whether the heap outlives its branch by a record the owner
// sees without the gate: a remembered down-pointer, a pin, or the result.
// Entries still in the publication buffers are Release's to find.
func (t *Task) kept(result mem.Value) bool {
	return t.heap.Remset.Len() != 0 || t.heap.Pinned.Len() != 0 ||
		result.IsRef() && hierarchy.OwnerOf(t.rt.space.ChunkOf(result.Ref())) == t.heap
}

// ParFor runs body over [lo, hi) in parallel, splitting ranges in half
// until they are at most grain wide.
func (t *Task) ParFor(lo, hi, grain int, body func(t *Task, lo, hi int)) {
	if t.rt.cancelled.Load() || t.scopeCancelled() {
		return // cancellation point: skip remaining range while unwinding
	}
	if t.cgcOn {
		t.cgcSafepoint()
	}
	if grain < 1 {
		grain = 1
	}
	if hi-lo <= grain {
		body(t, lo, hi)
		return
	}
	mid := lo + (hi-lo)/2
	t.Par(
		func(t *Task) mem.Value { t.ParFor(lo, mid, grain, body); return mem.Nil },
		func(t *Task) mem.Value { t.ParFor(mid, hi, grain, body); return mem.Nil },
	)
}

// Frame is one slab of the task's shadow stack: the values placed in a
// frame are GC roots and are updated in place when collections move
// objects. Frames are strictly LIFO. A frame's slots live in their own
// allocation (see Task.frames), so a Frame captured by a branch closure
// stays readable from a concurrently-running stolen strand — its slab
// pointer never moves, and collections of the frame's heap cannot run
// while any such strand (a live child of the frame's task) exists.
// Frame is four words (a slice plus the task pointer) on purpose: the
// benchmark bodies call Get/Set/Ref through a generic frame type
// parameter, and a receiver this size still travels in registers; one
// more field pushes every such call into a stack spill.
type Frame struct {
	slab []mem.Value
	t    *Task
}

// NewFrame pushes a frame of n root slots (initialized to Nil).
func (t *Task) NewFrame(n int) Frame {
	var slab []mem.Value
	if k := len(t.spare) - 1; k >= 0 && cap(t.spare[k]) >= n {
		slab = t.spare[k][:n]
		t.spare = t.spare[:k]
		for i := range slab {
			slab[i] = mem.Nil
		}
	} else {
		slab = make([]mem.Value, n)
	}
	t.frames = append(t.frames, slab)
	return Frame{slab: slab, t: t}
}

// Set stores v in slot i.
func (f Frame) Set(i int, v mem.Value) {
	f.slab[i] = v
}

// Get returns the current value of slot i (updated by collections).
func (f Frame) Get(i int) mem.Value { return f.slab[i] }

// Ref returns slot i as a reference.
func (f Frame) Ref(i int) mem.Ref { return f.slab[i].Ref() }

// Pop releases the frame. Frames must be popped in LIFO order; the check
// is by slab identity against the top of the shadow stack.
func (f Frame) Pop() {
	k := len(f.t.frames) - 1
	if k < 0 || !sameSlab(f.t.frames[k], f.slab) {
		panic("core: non-LIFO frame pop")
	}
	f.t.frames = f.t.frames[:k]
	f.t.spare = append(f.t.spare, f.slab)
}

// sameSlab reports whether two slabs are the same allocation. Empty slabs
// share the runtime's zero base, so length alone identifies them; that is
// fine — popping one empty frame for another of the same (zero) size
// releases no roots.
func sameSlab(a, b []mem.Value) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ValidateHeaps traces the live object graph from every live heap's roots
// and checks heap integrity (see gc.Validate). A testing aid: call it at a
// quiescent point, e.g. at the end of a computation while frames still
// root the data of interest.
func (t *Task) ValidateHeaps() error {
	t.syncChunks()
	return gc.Validate(t.rt.space, t.rt.tree.Live())
}
