package core

// The runtime side of the concurrent collector (gc.CGC): the background
// worker and trigger policy, the task registry, and the handshake/park
// protocol that gives the collector the mutator roots the gc package
// cannot see.
//
// Exclusion model. Local collections move objects; the concurrent cycle
// assumes nothing moves and no chunk changes hands outside its own gated
// windows. The two are serialized by cgcExcl: the CGC worker holds the
// write side across a whole cycle, and collectNow takes the read side with
// TryRLock — deferring, never blocking, because a mutator blocked inside
// an allocation could not reach the safepoint handshake the cycle's
// marking phase is waiting for.
//
// Handshake protocol. Each task carries (cgcPark, cgcEpoch):
//
//   - cgcPark is run/parked/claimed. A task parks around the ForkJoin of
//     every Par — the whole window in which it is suspended under live
//     children and its frames are stable, since both branches run as
//     fresh tasks — and unparks on resume, waiting out a collector claim.
//   - cgcEpoch is the last cycle epoch whose ragged safepoint this task
//     has passed. Running tasks self-scan at safepoints (allocation,
//     forks, the write barrier); parked tasks are claim-scanned by the
//     collector via the CAS parked→claimed. Tasks born during a cycle are
//     born scanned: their initial roots came from a parent that scans on
//     its own schedule, and their barrier is active from their first
//     write.

import (
	"runtime"
	"sync/atomic"
	"time"

	"mplgo/internal/gc"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Task park states (Task.cgcPark).
const (
	taskRun     uint32 = iota // executing; only the task itself may scan it
	taskParked                // suspended in ForkJoin; collector may claim
	taskClaimed               // collector is scanning the task's frames
)

// cgcRegister adds the task to the handshake registry. Only called when
// the concurrent collector is on (t.cgcOn), so runtimes without it pay
// nothing at task creation.
func (r *Runtime) cgcRegister(t *Task) {
	t.cgcEpoch.Store(r.cgc.Epoch())
	r.cgcMu.Lock()
	r.cgcTasks[t] = struct{}{}
	r.cgcMu.Unlock()
}

func (r *Runtime) cgcUnregister(t *Task) {
	r.cgcMu.Lock()
	delete(r.cgcTasks, t)
	r.cgcMu.Unlock()
}

// ScanTasks implements gc.Handshaker: it drives every registered task
// toward the given cycle epoch and reports whether all of them have
// arrived. Parked tasks are claimed and scanned here, on the collector's
// goroutine; running tasks are left to self-scan (cgcSafepoint) — program
// order then guarantees any store that raced the barrier flip completed
// before the scan that publishes their frames.
func (r *Runtime) ScanTasks(epoch uint64, grey func(mem.Value)) bool {
	r.cgcMu.Lock()
	tasks := make([]*Task, 0, len(r.cgcTasks))
	for t := range r.cgcTasks {
		tasks = append(tasks, t)
	}
	r.cgcMu.Unlock()

	all := true
	for _, t := range tasks {
		if t.cgcEpoch.Load() >= epoch {
			continue
		}
		if t.cgcPark.CompareAndSwap(taskParked, taskClaimed) {
			// The owner cannot resume past claimed (cgcUnpark spins): its
			// roots are stable but for the result slots its branches fill.
			if t.cgcEpoch.Load() < epoch {
				t.Roots(func(p *mem.Value) { grey(mem.Value(atomic.LoadUint64((*uint64)(p)))) })
				t.cgcEpoch.Store(epoch)
			}
			t.cgcPark.Store(taskParked)
			continue
		}
		// Running (or finishing). If it unregistered since the snapshot it
		// no longer holds roots; otherwise the cycle waits for its next
		// safepoint.
		r.cgcMu.Lock()
		_, live := r.cgcTasks[t]
		r.cgcMu.Unlock()
		if live {
			all = false
		}
	}
	return all
}

// cgcSafepoint is the mutator half of the handshake: when a cycle is
// marking and this task has not yet passed its ragged safepoint, publish
// every frame root through the shade queue. The pushes happen under the
// task's own reader gate so the collector's termination flush observes
// them. Called from allocation slow paths, forks, and the write barrier.
func (t *Task) cgcSafepoint() {
	g := t.rt.cgc
	if g == nil || !g.Marking() {
		return
	}
	e := g.Epoch()
	if t.cgcEpoch.Load() >= e {
		return
	}
	t.heap.Gate.EnterReader()
	if g.Marking() {
		t.Roots(func(p *mem.Value) {
			if v := *p; v.IsRef() {
				g.Shade(v.Ref())
			}
		})
	}
	t.heap.Gate.ExitReader()
	t.cgcEpoch.Store(e)
}

// Idle is for a task about to wait outside the runtime — serve's dispatcher
// between bursts — with every reference it holds in its frames. It passes
// the concurrent collector's safepoint, which a cycle would otherwise wait
// on until the task next allocates, and runs the collection a cycle
// deferred, if no cycle holds it off now: a deferred collection is
// otherwise retried only by the task's next allocation, so an idle task
// would hold the garbage of a whole burst. It reports whether the task owes
// no deferred collection. Without the concurrent collector nothing is ever
// deferred; after cancellation nothing is collected.
func (t *Task) Idle() bool {
	if t.cgcOn && !t.rt.cancelled.Load() {
		t.cgcSafepoint()
		if t.cgcDeferred {
			t.collectNow()
			t.arm()
		}
	}
	return !t.cgcDeferred
}

// cgcParkSelf marks the task claim-scannable and its heap claimable for
// the duration of a Par's ForkJoin. The caller must not touch its
// frames, allocator, or heap until cgcUnpark (and the heap's CGCResume)
// returns.
func (t *Task) cgcParkSelf() {
	if t.cgcOn {
		t.cgcPark.Store(taskParked)
		t.heap.CGCPark()
	}
}

// cgcUnpark resumes the task, waiting out an in-flight claim scan.
func (t *Task) cgcUnpark() {
	if !t.cgcOn {
		return
	}
	for !t.cgcPark.CompareAndSwap(taskParked, taskRun) {
		runtime.Gosched()
	}
}

// cgcResumeHeap closes the heap's claim window after a join, waiting out an
// in-flight concurrent cycle. The task keeps passing safepoints while it
// waits: the cycle may have claimed the heap before its barrier flip, in
// which case its ragged handshake is waiting on this very task — blocking
// without re-scanning would deadlock owner and collector against each
// other. The wait is timer-paced past the first few spins: the collector
// needs the processor to finish the very work being waited for, and on a
// single-P runtime a yield-spin would starve it of exactly that.
func (t *Task) cgcResumeHeap() {
	for i := 0; !t.heap.CGCTryResume(); i++ {
		t.cgcSafepoint()
		if i < 4 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// cgcLoop is the dedicated collector worker (sched.Pool.Aux): it polls the
// trigger policy and runs cycles until the pool shuts down or the runtime
// cancels. One cycle at a time, with the LGC exclusion held throughout.
func (r *Runtime) cgcLoop(stop func() bool) {
	halt := func() bool { return stop() || r.cancelled.Load() }
	for !halt() {
		if r.space.LiveWords() < r.cfg.CGCThresholdWords {
			// Below the floor there is nothing worth a cycle; idle gently
			// rather than spinning the gates of a small computation.
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if !r.cgc.Claimable() {
			// No parked heap: a cycle would claim nothing. Asked before
			// taking cgcExcl, whose write side defers every local collection
			// that falls inside it — across a walk over every heap id ever
			// forked, when the cycle found nothing.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		r.cgcExcl.Lock()
		var res gc.CGCResult
		if !halt() {
			res = r.cgc.RunCycle(r, halt)
		}
		r.cgcExcl.Unlock()
		if res.ScopeHeaps > 0 {
			// A window is open: go straight back for whatever it left.
			runtime.Gosched()
			continue
		}
		// No internal heap was claimable. Pace the polling with a timer
		// rather than Gosched: on a single-P runtime a yield-spinning
		// background goroutine is starved almost completely by CPU-bound
		// mutators (it only runs at preemption points, every ~10ms), while
		// timer wakeups are injected promptly. 100µs keeps the poll well
		// under the fork–join windows worth collecting.
		time.Sleep(100 * time.Microsecond)
	}
}

// CGCStats reports the concurrent collector's totals: completed cycles,
// words reclaimed in place, chunks released whole, chunks retained with
// live or pinned objects, and the live words observed by the last sweep.
// All zero when the concurrent collector is off.
func (r *Runtime) CGCStats() (cycles, freedWords, sweptChunks, retainedChunks, lastLiveWords int64) {
	t := r.tree.Stats
	if r.cgc != nil {
		lastLiveWords = r.cgc.LastLiveWords.Load()
	}
	return t.Load(trace.CGCCycles), t.Load(trace.CGCFreedWords), t.Load(trace.CGCSweptChunks),
		t.Load(trace.CGCRetainedChunks), lastLiveWords
}

// RetainedChunks totals chunks the local collector kept alive only for
// their pinned objects — the transient space cost of entanglement.
func (r *Runtime) RetainedChunks() int64 { return r.tree.Stats.Load(trace.GCRetainedChunks) }
