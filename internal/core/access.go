package core

import (
	"time"

	"mplgo/internal/attr"
	"mplgo/internal/chaos"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Allocation. Every allocating call may trigger a local collection first;
// reference arguments to these calls are protected automatically (they are
// parked in a transient frame around the collection), but any other live
// references the caller holds must be in Frames.

// pollQuantum is how far past sinceGC arm sets the next poll while
// something besides the collection budget wants a say at allocation time.
const pollQuantum = 256

// guardedGC is the allocation poll: one compare against the task's limit,
// and past it the slow poll, which keeps vs updated as roots.
func (t *Task) guardedGC(vs []mem.Value) {
	if t.sinceGC >= t.pollAt {
		t.poll(vs)
	}
}

// poll runs a pending collection while keeping vs updated as roots, and
// re-arms the limit. It is also the backpressure point: residency above
// Config.MaxHeapWords forces a collection, and if the forced collection
// cannot get back under the limit the computation is cancelled with
// ErrHeapLimit. After cancellation it does nothing — the unwind must not
// relocate objects.
// Attribution: the whole poll — cancel check, scope poll, CGC safepoint
// and reuse drain, residency and budget tests — is one BudgetPoll window,
// closed before a collection it triggers (LGC time is traced separately).
func (t *Task) poll(vs []mem.Value) {
	at := t.w.Attr.Begin()
	if t.rt.cancelled.Load() {
		t.w.Attr.End(attr.BudgetPoll, at)
		return
	}
	if s := t.scope; s != nil {
		// Charge the domain's budget and fold an expired deadline into its
		// cancel flag, so the next fork unwinds promptly even in
		// allocation-heavy stretches. Collection stays ON for
		// scope-cancelled tasks — sibling domains are still live and objects
		// still move, so none of the global-cancel shortcuts apply.
		t.chargeScope()
		s.poll(time.Now())
	}
	if t.cgcOn {
		// Allocation is the universal safepoint: publish frame roots to a
		// marking cycle (before the early-out — the cycle may be waiting
		// on exactly this task), and adopt chunks the concurrent sweep
		// left with threaded free spans for this heap.
		t.cgcSafepoint()
		if r := t.w.Ring; r != nil && trace.Enabled() {
			d := int32(t.heap.Depth())
			t.heap.DrainReusable(func(c *mem.Chunk) {
				r.Emit(trace.EvChunkReuse, d, uint64(c.ID), uint64(c.FreeWordCount()))
				t.alloc.AddReusable(c)
			})
		} else {
			t.heap.DrainReusable(t.alloc.AddReusable)
		}
	}
	over := t.overHeapLimit()
	need := over || t.needGC()
	t.w.Attr.End(attr.BudgetPoll, at)
	if need {
		collected := t.collectRooted(vs)
		if over && collected && t.overHeapLimit() {
			// Only a collection that actually ran proves the limit is real: a
			// collection deferred behind a concurrent cycle retries instead of
			// condemning the run.
			t.rt.cancelWith(ErrHeapLimit)
		}
	}
	t.arm()
}

// arm sets pollAt, the sinceGC at which the next allocation polls: the
// collection budget, so every collection fires where it is due; no more than
// pollQuantum ahead while a scope, the concurrent collector or the residency
// limit is polled; and 0, so every allocation polls, under chaos injection.
func (t *Task) arm() {
	t.pollAt = t.rt.cfg.HeapBudgetWords
	if t.rt.chaos != nil {
		t.pollAt = 0
	} else if t.scope != nil || t.cgcOn || t.rt.cfg.MaxHeapWords > 0 {
		t.pollAt = min(t.pollAt, t.sinceGC+pollQuantum)
	}
}

// collectRooted runs collectNow with vs rooted in a transient frame, updating
// them in place, and reports whether the collection ran.
func (t *Task) collectRooted(vs []mem.Value) bool {
	f := t.NewFrame(len(vs))
	for i, v := range vs {
		f.Set(i, v)
	}
	collected := t.collectNow()
	for i := range vs {
		vs[i] = f.Get(i)
	}
	f.Pop()
	return collected
}

// overHeapLimit reports whether total residency exceeds the configured
// backpressure limit.
func (t *Task) overHeapLimit() bool {
	lim := t.rt.cfg.MaxHeapWords
	return lim > 0 && t.rt.space.LiveWords() > lim
}

func (t *Task) bumpAlloc(words int64) {
	t.sinceGC += words
	t.uncharged += words
	t.Work(allocCost(words))
}

// allocCost is the abstract cost of an allocation for the simulator's
// work accounting. Small objects cost their size (header writes and
// initialization); large arrays cost far less than their size because
// chunk acquisition is O(1) and their fill is one plain store per word —
// charging the full size would put a spurious serial segment on the
// recorded critical path.
func allocCost(words int64) int64 {
	const linear = 256
	if words <= linear {
		return words
	}
	return linear + (words-linear)/32
}

// AllocTuple allocates an immutable tuple of vs.
func (t *Task) AllocTuple(vs ...mem.Value) mem.Ref {
	t.guardedGC(vs)
	r := t.alloc.AllocTuple(vs...)
	t.bumpAlloc(int64(len(vs)) + 1)
	return r
}

// AllocArray allocates a mutable array of n slots initialized to v.
func (t *Task) AllocArray(n int, v mem.Value) mem.Ref {
	vs := [1]mem.Value{v}
	t.guardedGC(vs[:])
	r := t.alloc.AllocArray(n, vs[0])
	t.bumpAlloc(int64(n) + 1)
	return r
}

// AllocRef allocates a mutable ref cell holding v (ML's `ref v`).
func (t *Task) AllocRef(v mem.Value) mem.Ref {
	vs := [1]mem.Value{v}
	t.guardedGC(vs[:])
	r := t.alloc.AllocRef(vs[0])
	t.bumpAlloc(2)
	return r
}

// AllocString allocates an immutable string object.
func (t *Task) AllocString(s string) mem.Ref {
	t.guardedGC(nil)
	r := t.alloc.AllocString(s)
	t.bumpAlloc(int64(2 + (len(s)+7)/8))
	return r
}

// StringOf decodes a string object.
func (t *Task) StringOf(r mem.Ref) string { return t.rt.space.LoadString(r) }

// ByteOf reads byte i of a string object without materializing the string.
func (t *Task) ByteOf(r mem.Ref, i int) byte {
	t.Work(costAccess)
	return byte(t.rt.space.LoadRaw(r, 1+i/8) >> (8 * (i % 8)))
}

// StrLen returns the byte length of a string object.
func (t *Task) StrLen(r mem.Ref) int { return int(t.rt.space.LoadRaw(r, 0)) }

// Length returns the payload length of the object at r: tuple arity, array
// length, 1 for ref cells.
func (t *Task) Length(r mem.Ref) int { return t.rt.space.Header(r).Len() }

// Read loads payload word i of o through the read barrier.
//
// Fast path: mem.LoadCandidate fuses the value load and the candidate test
// into one chunk resolution — for non-reference values the whole barrier
// is a single atomic load and bit test. If the holder is an entanglement
// candidate and the loaded value is a reference, the slow path classifies
// the edge and pins the target when it proves entangled; it is handed the
// holder's chunk, which it reads the field through again.
func (t *Task) Read(o mem.Ref, i int) mem.Value {
	t.workAcc += costAccess
	if !t.barriers {
		return t.rt.space.Load(o, i)
	}
	v, oc := t.rt.space.LoadCandidate(o, i)
	if oc != nil {
		if t.rt.cancelled.Load() {
			// Cancellation point: the computation is unwinding and no
			// further collections run (guardedGC is disabled), so objects
			// no longer move — skip the pin protocol and hand back the
			// loaded value. Results after cancellation are discarded.
			return v
		}
		if s := t.scope; s != nil {
			// Scope poll at the barrier slow path. Unlike the global case
			// above, a dead scope does NOT skip the pin protocol: sibling
			// domains are still collecting and moving objects, so the read
			// must pin-and-validate like any other — the join's merge will
			// unpin it. DeadlinePin chaos expires the deadline exactly
			// here, racing scoped cancellation against the pin in flight.
			if ch := t.rt.chaos; ch != nil && !s.deadline.IsZero() && ch.Should(chaos.DeadlinePin) {
				s.Cancel(ErrDeadlineExceeded)
			} else {
				t.scopeCancelled()
			}
		}
		nv, err := t.rt.ent.OnReadIn(t.heap, oc, o, i, v)
		if err != nil {
			t.rt.fail(err)
		}
		t.workAcc += costSlowRead
		return nv
	}
	return v
}

// writeBarrier performs the pre-store bookkeeping shared by Write and CAS
// for storing the reference x into payload word i of o, whose chunk oc the
// caller has resolved for the store itself. The callers skip it for a store
// into o's own chunk, which is same-heap and free. Here x's chunk is
// resolved once, and the two chunks' heap ids decide the rest of the
// same-heap fast path. A cross-heap store hands both chunks to the slow
// path, which records a down-pointer or pins a published object (see
// package entangle) without resolving either again. It must run before the
// raw store so the candidate bit is visible to any reader that can observe
// the new pointer.
func (t *Task) writeBarrier(oc *mem.Chunk, o mem.Ref, i int, x mem.Ref) {
	xc := t.rt.space.ChunkOf(x)
	if xc.HeapID() == oc.HeapID() {
		return
	}
	if err := t.rt.ent.OnWriteIn(t.heap, oc, o, i, xc, x); err != nil {
		t.rt.fail(err)
	}
}

// Write stores v into payload word i of o through the write barrier.
// When the concurrent collector is marking, the store also runs the SATB
// deletion barrier: the reference about to be overwritten is shaded before
// it becomes unreachable (entangle.ShadeOverwritten). o's chunk is resolved
// once, past the safepoint, and the shade, the barrier and the store all go
// through it.
func (t *Task) Write(o mem.Ref, i int, v mem.Value) {
	t.workAcc += costAccess
	if t.cgcOn {
		t.cgcSafepoint()
	}
	oc := t.rt.space.ChunkOf(o)
	if t.cgcOn {
		t.rt.ent.ShadeOverwritten(t.heap, oc, o, i)
	}
	if t.barriers && v.IsRef() && v.Ref().Chunk() != o.Chunk() {
		t.writeRef(oc, o, i, v)
		return
	}
	oc.Store(o, i, v)
}

// writeRef is Write's store of a reference through the barrier. It stores
// too, so that nothing of Write's is live across the call: Write's store of
// an immediate spills nothing ahead of its atomic exchange.
func (t *Task) writeRef(oc *mem.Chunk, o mem.Ref, i int, v mem.Value) {
	t.writeBarrier(oc, o, i, v.Ref())
	oc.Store(o, i, v)
}

// Deref reads a ref cell (ML's `!r`).
func (t *Task) Deref(cell mem.Ref) mem.Value { return t.Read(cell, 0) }

// Assign writes a ref cell (ML's `r := v`).
func (t *Task) Assign(cell mem.Ref, v mem.Value) { t.Write(cell, 0, v) }

// Unchecked accessors. These are the execution targets of statically
// proven disentangled accesses (mlang's barrier-elision compilation):
// raw space loads/stores with no entanglement barrier and allocation with
// no heap-limit polling. Their GC contract:
//
//   - ReadFast/DerefFast require the holder's heap to be on the reading
//     task's heap path and every reference stored in it to point up-or-
//     same on that path. LGC only moves objects of the collecting task's
//     own leaf, and only when it has no live descendants — so path
//     objects are stable under any concurrent collection, and the loaded
//     reference needs no pin.
//   - WriteFast/AssignFast additionally require any reference value being
//     stored to point up-or-same relative to the holder: an up-pointer is
//     exactly the class OnWrite classifies as free (no remembered-set
//     entry, no candidate bit, no pin), so skipping the barrier loses
//     nothing the collectors rely on. The SATB shade still runs when the
//     concurrent collector is marking — elision removes the
//     *entanglement* barrier, never a collector invariant.
//   - AllocRefFast/AllocArrayFast bump-allocate without the budget check;
//     they fall back to the managed path whenever the allocation should
//     observe collection triggers (budget spent, residency limit,
//     concurrent collector, chaos injection), so backpressure and
//     safepoint semantics are identical in both builds.
//
// All of them charge the same abstract work as their checked twins, so
// recorded work/span traces are comparable across builds; what changes is
// the real instruction count per access.

// ReadFast loads payload word i of o with no read barrier.
func (t *Task) ReadFast(o mem.Ref, i int) mem.Value {
	t.workAcc += costAccess
	t.heap.Tally[trace.ElidedLoads]++
	return t.rt.space.Load(o, i)
}

// WriteFast stores v into payload word i of o with no write barrier.
func (t *Task) WriteFast(o mem.Ref, i int, v mem.Value) {
	t.workAcc += costAccess
	if t.cgcOn {
		t.cgcSafepoint()
		t.rt.ent.ShadeOverwritten(t.heap, t.rt.space.ChunkOf(o), o, i)
	}
	t.heap.Tally[trace.ElidedStores]++
	t.rt.space.Store(o, i, v)
}

// DerefFast reads a ref cell with no read barrier.
func (t *Task) DerefFast(cell mem.Ref) mem.Value { return t.ReadFast(cell, 0) }

// AssignFast writes a ref cell with no write barrier.
func (t *Task) AssignFast(cell mem.Ref, v mem.Value) { t.WriteFast(cell, 0, v) }

// SubFast is ReadFast of element i of array o behind its bounds check, both
// on one chunk resolution. ok is false, and nothing is read or counted,
// when i is out of range.
func (t *Task) SubFast(o mem.Ref, i int64) (v mem.Value, ok bool) {
	w := t.rt.space.Payload(o)
	if uint64(i) >= uint64(len(w)) {
		return mem.Nil, false
	}
	t.workAcc += costAccess
	t.heap.Tally[trace.ElidedLoads]++
	return w.Load(int(i)), true
}

// UpdateFast is WriteFast of element i of array o behind its bounds check,
// both on one chunk resolution; it reports false, storing nothing, when i
// is out of range. While the concurrent collector is on it is WriteFast
// behind Length, so the safepoint and the SATB shade still run.
func (t *Task) UpdateFast(o mem.Ref, i int64, v mem.Value) bool {
	if t.cgcOn {
		if uint64(i) >= uint64(t.Length(o)) {
			return false
		}
		t.WriteFast(o, int(i), v)
		return true
	}
	w := t.rt.space.Payload(o)
	if uint64(i) >= uint64(len(w)) {
		return false
	}
	t.workAcc += costAccess
	t.heap.Tally[trace.ElidedStores]++
	w.Store(int(i), v)
	return true
}

// ElementsFast resolves array o once for a range of unchecked accesses
// that allocate nothing in between (a tabulate or reduce leaf at a proven
// site), and charges them up front: loads ReadFasts and stores WriteFasts.
// It returns nil, charging nothing, while the concurrent collector is on:
// each store must then pass its safepoint, so the caller uses the
// per-element accessors.
func (t *Task) ElementsFast(o mem.Ref, loads, stores int) mem.Words {
	if t.cgcOn {
		return nil
	}
	t.workAcc += int64(loads+stores) * costAccess
	t.heap.Tally[trace.ElidedLoads] += int64(loads)
	t.heap.Tally[trace.ElidedStores] += int64(stores)
	return t.rt.space.Payload(o)
}

// allocFastOK reports whether a proven allocation may skip the guarded
// slow path entirely. Anything that wants a say at allocation time —
// budget-triggered LGC, the residency limit, the concurrent collector's
// safepoints, chaos injection — forces the managed path instead.
func (t *Task) allocFastOK() bool {
	return !t.cgcOn && t.rt.cfg.MaxHeapWords == 0 && !t.needGC()
}

// AllocRefFast allocates a ref cell for a statically-proven region:
// straight bump allocation, no GC guard.
func (t *Task) AllocRefFast(v mem.Value) mem.Ref {
	if !t.allocFastOK() {
		return t.AllocRef(v)
	}
	r := t.alloc.AllocRef(v)
	t.heap.Tally[trace.ElidedAllocs]++
	t.bumpAlloc(2)
	return r
}

// AllocArrayFast allocates an array for a statically-proven region:
// straight bump allocation, no GC guard.
func (t *Task) AllocArrayFast(n int, v mem.Value) mem.Ref {
	if !t.allocFastOK() {
		return t.AllocArray(n, v)
	}
	r := t.alloc.AllocArray(n, v)
	t.heap.Tally[trace.ElidedAllocs]++
	t.bumpAlloc(int64(n) + 1)
	return r
}

// CAS performs an atomic compare-and-swap on payload word i of o, through
// the write barrier. It returns whether the swap happened. This backs the
// concurrent data structures of the entangled benchmarks.
func (t *Task) CAS(o mem.Ref, i int, old, new mem.Value) bool {
	t.workAcc += costAccess
	if t.cgcOn {
		t.cgcSafepoint()
	}
	oc := t.rt.space.ChunkOf(o)
	if t.cgcOn {
		// SATB: shade what the swap may displace. Shading the current
		// value is conservative even if the CAS then fails.
		t.rt.ent.ShadeOverwritten(t.heap, oc, o, i)
	}
	overwritten := t.heap.Overwritten
	if t.barriers && new.IsRef() && new.Ref().Chunk() != o.Chunk() {
		t.writeBarrier(oc, o, i, new.Ref())
	}
	if !oc.CAS(o, i, old, new) {
		t.heap.Overwritten = overwritten // the barrier counted a store that did not happen
		return false
	}
	return true
}
