// Package sched implements the nested fork–join work-stealing scheduler
// the runtime executes on: per-worker lock-free Chase–Lev deques (deque.go),
// random victim selection, and helping joins (a worker whose join partner
// was stolen steals other work while it waits).
//
// The scheduler reports to its caller whether the right branch of a fork
// was stolen. MPL materializes heaps at steals on that hook; this runtime
// creates them at every fork (DESIGN.md §14, D5) and does not consult it.
package sched

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"mplgo/internal/attr"
	"mplgo/internal/chaos"
	"mplgo/internal/trace"
)

// item is a stealable unit of work: the right branch of a fork.
type item struct {
	run  func(w *Worker, stolen bool)
	done atomic.Bool
}

// xorshift64 is a tiny per-worker PRNG for victim selection: no locks, no
// interface indirection, no allocation — one word of state advanced by
// three shifts per draw (Marsaglia, "Xorshift RNGs").
type xorshift64 uint64

func (s *xorshift64) next() uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return uint64(x)
}

// Worker is one of the pool's P workers. Fork–join operations must be
// invoked from the worker's own goroutine (i.e. from inside work it runs).
type Worker struct {
	ID   int
	pool *Pool
	dq   deque
	rng  xorshift64

	// Steals counts items this worker stole from others.
	Steals int64

	// Ring is the worker's event ring (nil in untraced runtimes). Only
	// this worker's goroutine writes to it.
	Ring *trace.Ring

	// Attr is the worker's cost-attribution sink (nil when attribution
	// is off); same single-writer ownership as Ring.
	Attr *attr.Sink
}

// Pool is a work-stealing thread pool of P workers.
type Pool struct {
	workers []*Worker
	done    atomic.Bool
	wg      sync.WaitGroup

	// OnPanic, when set, receives panics recovered from work items instead
	// of letting them kill the worker goroutine. The pool guarantees that
	// a panicking item is still marked done, so the forker waiting at its
	// join always unblocks — a panic can no longer hang Run. The handler
	// runs on the panicking worker's goroutine and must not panic itself.
	// When nil, panics propagate as before (and Run still drains the pool
	// on its way out).
	OnPanic func(recovered any)

	// Chaos, when set, widens the steal window at forks
	// (chaos.StealDecision): the forking worker yields after publishing
	// the right branch, forcing steals — and hence concurrently running
	// siblings and entangled joins — that an unloaded run would rarely
	// perform.
	Chaos *chaos.Injector

	// Aux, when set, runs as a dedicated auxiliary goroutine alongside the
	// stealing workers for the duration of each Run — the concurrent
	// collector's worker. It is not a Worker: it never steals mutator
	// items, so collection latency cannot be hidden behind a borrowed
	// mutator slot. It must poll stop and return promptly once it reports
	// true; Run's shutdown waits for it like any worker.
	Aux func(stop func() bool)
}

// NewPool creates a pool with p workers. The seed makes victim selection
// deterministic across runs with the same interleaving.
func NewPool(p int, seed int64) *Pool {
	if p < 1 {
		p = 1
	}
	pool := &Pool{}
	for i := 0; i < p; i++ {
		rng := xorshift64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*7919)
		if rng == 0 {
			rng = 0x9E3779B97F4A7C15 // xorshift state must be nonzero
		}
		pool.workers = append(pool.workers, &Worker{
			ID:   i,
			pool: pool,
			rng:  rng,
		})
	}
	return pool
}

// P returns the number of workers.
func (p *Pool) P() int { return len(p.workers) }

// Workers exposes the workers for statistics collection.
func (p *Pool) Workers() []*Worker { return p.workers }

// TotalSteals sums steal counts across workers.
func (p *Pool) TotalSteals() int64 {
	var n int64
	for _, w := range p.workers {
		n += atomic.LoadInt64(&w.Steals)
	}
	return n
}

// Run executes root on worker 0, with workers 1..P-1 stealing, and returns
// when root has returned (fork–join structure guarantees no work outlives
// it). A pool can run multiple times, but not concurrently.
//
// The shutdown runs in a defer so that even a panic escaping root (no
// OnPanic handler installed) drains the stealing workers before
// propagating: the pool never leaks goroutines, whatever the outcome.
// Goroutines are labelled for runtime/pprof (mplgo_worker / mplgo_aux),
// so CPU profiles attribute samples to scheduler strands; labels are
// inherited by any goroutine a strand spawns.
func (p *Pool) Run(root func(*Worker)) {
	p.done.Store(false)
	for _, w := range p.workers[1:] {
		p.wg.Add(1)
		go func(w *Worker) {
			defer p.wg.Done()
			pprof.Do(context.Background(),
				pprof.Labels("mplgo_worker", strconv.Itoa(w.ID)),
				func(context.Context) { w.stealLoop() })
		}(w)
	}
	if p.Aux != nil {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("mplgo_aux", "collector"),
				func(context.Context) { p.Aux(func() bool { return p.done.Load() }) })
		}()
	}
	defer func() {
		p.done.Store(true)
		p.wg.Wait()
	}()
	pprof.Do(context.Background(), pprof.Labels("mplgo_worker", "0"),
		func(context.Context) { root(p.workers[0]) })
}

// runItem executes one work item, guaranteeing the done flag is set even
// if the item panics — the forker spinning at the join in ForkJoin depends
// on it. A recovered panic goes to OnPanic when installed and otherwise
// resumes propagation (after done is set, so the join still unblocks).
func (p *Pool) runItem(w *Worker, t *item, stolen bool) {
	defer func() {
		v := recover()
		t.done.Store(true)
		if v == nil {
			return
		}
		if p.OnPanic != nil {
			p.OnPanic(v)
			return
		}
		panic(v)
	}()
	t.run(w, stolen)
}

// stealLoop runs stolen work until the pool shuts down.
func (w *Worker) stealLoop() {
	for !w.pool.done.Load() {
		if t := w.trySteal(); t != nil {
			w.pool.runItem(w, t, true)
		} else {
			runtime.Gosched()
		}
	}
}

// trySteal attempts to steal one item, scanning every other worker once
// starting from a random victim. The scan itself lives in stealScan;
// this wrapper attributes each full scan to attr.StealLoop (one
// decrement and branch per scan when not sampling).
func (w *Worker) trySteal() *item {
	at := w.Attr.Begin()
	t := w.stealScan()
	w.Attr.End(attr.StealLoop, at)
	return t
}

// stealScan scans every other worker once starting from a random
// victim. The self-skipping index mapping draws from [0, P-1) and bumps
// indices at or past the worker's own, so no retry loop is needed to
// avoid selecting ourselves.
func (w *Worker) stealScan() *item {
	ws := w.pool.workers
	n := len(ws)
	if n < 2 {
		return nil
	}
	start := int(w.rng.next() % uint64(n-1))
	for i := 0; i < n-1; i++ {
		idx := start + i
		if idx >= n-1 {
			idx -= n - 1
		}
		if idx >= w.ID {
			idx++
		}
		if t := ws[idx].dq.stealTop(); t != nil {
			atomic.AddInt64(&w.Steals, 1)
			w.Ring.Emit(trace.EvSteal, 0, uint64(idx), 0)
			return t
		}
	}
	return nil
}

// ForkJoin evaluates f and g, potentially in parallel, returning when both
// have finished. g receives the worker executing it and whether it was
// stolen by a different worker than the one that forked it.
//
// A panic in f still joins g before propagating: the deferred join either
// pops the unstolen item back off the deque (discarding it — its branch
// never started) or waits for the thief to finish it, so no work item ever
// outlives its fork's stack frame and the deque discipline survives the
// unwind.
func (w *Worker) ForkJoin(f func(*Worker), g func(w *Worker, stolen bool)) {
	t := &item{run: g}
	w.dq.pushBottom(t)
	if c := w.pool.Chaos; c != nil && c.Should(chaos.StealDecision) {
		// Widen the steal window: give thieves a chance to take g before
		// this worker returns for it.
		for i := c.Spin(chaos.StealDecision); i > 0; i-- {
			runtime.Gosched()
		}
	}
	fDone := false
	defer func() {
		got := w.dq.popBottom()
		if got != nil {
			if got != t {
				// Fork–join nesting guarantees the bottom of the deque is
				// the item we pushed: inner forks pop their own items
				// before we return here.
				panic("sched: deque discipline violated")
			}
			if fDone {
				g(w, false)
			}
			// f panicked with g unstolen: discard g's item (the branch
			// never ran; the caller's recovery decides what that means)
			// and let the panic continue.
			return
		}
		// Our item was stolen; help by stealing other work until it
		// completes. runItem marks stolen items done even when they
		// panic, so this join cannot hang.
		for !t.done.Load() {
			if s := w.trySteal(); s != nil {
				w.pool.runItem(w, s, true)
			} else {
				runtime.Gosched()
			}
		}
	}()
	f(w)
	fDone = true
}
