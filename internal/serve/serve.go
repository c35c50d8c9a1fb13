// Package serve turns the runtime into a request-processing service with
// request-scoped fault domains (core.Scope): each admitted request runs as
// its own scoped task with its own leaf heap, under a per-request deadline
// and heap-word budget, and the service degrades by shedding — never by
// cancelling the runtime.
//
// The moving parts:
//
//   - Admission. Submit is the admission controller: a bounded queue is
//     the waiting room, the dispatcher's batch width (Config.MaxConcurrent)
//     is the concurrency-token pool, and watermark checks close the loop on
//     the runtime's own telemetry gauges (live words, pinned objects,
//     retained chunks) — the signals /metrics exports are the signals that
//     shed. A refused request fails fast with a typed *Overload wrapping
//     core.ErrShed, carrying a retry hint; nothing about it ever enters the
//     runtime.
//
//   - Dispatch. The dispatcher runs as a task inside Runtime.Run (Server.Run
//     is the root body). It drains the queue into batches and runs each
//     batch with ParFor at grain 1, so every request gets its own leaf heap,
//     forked under the dispatcher's heap and retired at the join — merged
//     back if the request stored into dispatcher state (or a concurrent
//     request pinned its objects), dropped whole if nothing outside it
//     reaches it. Shared caches the dispatcher allocated in its (ancestor)
//     heap are reached from request tasks through ordinary entangled reads.
//
//   - Fault isolation. Each request body runs under a core.Scope whose
//     deadline is measured from *arrival* (queueing counts against it) and
//     whose budget bounds the request's allocation. A request that dies —
//     deadline, budget, explicit cancel — unwinds through its joins like any
//     scoped subtree (pins released by the merges it owes) and reports its
//     typed cause through its Outcome, while the rest of the batch runs to
//     completion. Only a runtime-level error (panic, global heap limit)
//     fails the batch, and even then every waiter is answered.
//
// Chaos: with the injector enabled, Burst pads dispatch batches with
// synthetic churn requests, ShedStorm refuses admission with tokens free,
// and DeadlinePin (in core's read barrier) expires scoped deadlines at pin
// sites — the overload schedule space, explored deterministically.
package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mplgo/internal/chaos"
	"mplgo/internal/core"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// MaxConcurrent is the concurrency-token pool: the dispatcher runs at
	// most this many requests in one parallel batch. Default 4.
	MaxConcurrent int
	// QueueDepth bounds the waiting room; a full queue sheds. Default
	// 4 × MaxConcurrent.
	QueueDepth int
	// Deadline is the per-request deadline measured from arrival (0 = none).
	// A request that exceeds it — in queue or in flight — resolves with
	// core.ErrDeadlineExceeded.
	Deadline time.Duration
	// BudgetWords is the per-request heap-word budget (0 = unlimited). A
	// request that allocates past it resolves with core.ErrHeapLimit,
	// without touching the runtime-wide limit.
	BudgetWords int64
	// Watermarks: when a gauge is above its (positive) limit at admission
	// time, the request is shed until the gauge recovers. They mirror the
	// /metrics exposition: MaxLiveWords vs mplgo_live_words, MaxPinned vs
	// mplgo_ent_pinned_now, MaxRetainedChunks vs
	// mplgo_gc_retained_chunks_total.
	MaxLiveWords      int64
	MaxPinned         int64
	MaxRetainedChunks int64
	// RetryAfter is the hint carried by *Overload (default 10ms).
	RetryAfter time.Duration
}

func (c *Config) fill() {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 10 * time.Millisecond
	}
}

// Overload is the typed admission refusal: the service is over capacity
// (or a watermark tripped) and the caller should back off and retry.
// errors.Is(err, core.ErrShed) matches it.
type Overload struct {
	Reason     string        // which limit refused: "queue", "closing", a watermark, "chaos"
	RetryAfter time.Duration // backoff hint
}

func (o *Overload) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", o.Reason, o.RetryAfter)
}

func (o *Overload) Unwrap() error { return core.ErrShed }

// Outcome resolves one submitted request. V is the request body's reply,
// which must be an immediate: the request runs in a heap of its own, and a
// reference into it is dead once the request's branch returns
// (core.Task.Par's contract), which may be before the waiter reads it.
type Outcome struct {
	V   mem.Value
	Err error
}

// Counters are the service's own metrics, exported next to the runtime's:
// AppendMetrics satisfies telemetry.Source, and the dispatcher samples the
// same values into the trace rings (CtrRequestsAdmitted &c) per batch.
// All fields are atomics; read them freely from any goroutine.
type Counters struct {
	Admitted         atomic.Int64 // requests accepted into the queue
	Shed             atomic.Int64 // requests refused with *Overload
	Completed        atomic.Int64 // requests resolved without error
	DeadlineExceeded atomic.Int64 // requests resolved with ErrDeadlineExceeded
	BudgetExceeded   atomic.Int64 // requests resolved with a scope ErrHeapLimit
	Failed           atomic.Int64 // requests resolved with any other error
	BurstInjected    atomic.Int64 // synthetic chaos-burst requests dispatched
	TokensInUse      atomic.Int64 // width of the batch currently in flight
}

// AppendMetrics emits the service counters in the telemetry.Source shape.
func (c *Counters) AppendMetrics(emit func(name, help, typ string, val int64)) {
	emit("mplgo_requests_admitted_total", "Requests accepted by admission control", "counter", c.Admitted.Load())
	emit("mplgo_requests_shed_total", "Requests refused with a typed overload response", "counter", c.Shed.Load())
	emit("mplgo_requests_completed_total", "Requests resolved without error", "counter", c.Completed.Load())
	emit("mplgo_requests_deadline_exceeded_total", "Requests that exceeded their scoped deadline", "counter", c.DeadlineExceeded.Load())
	emit("mplgo_requests_budget_exceeded_total", "Requests that exceeded their scoped heap budget", "counter", c.BudgetExceeded.Load())
	emit("mplgo_requests_failed_total", "Requests resolved with any other error", "counter", c.Failed.Load())
	emit("mplgo_requests_burst_injected_total", "Synthetic chaos-burst requests dispatched", "counter", c.BurstInjected.Load())
	emit("mplgo_tokens_in_use", "Concurrency tokens held by the batch in flight", "gauge", c.TokensInUse.Load())
}

// request is one queued unit of work.
type request struct {
	fn        func(*core.Task) mem.Value
	done      chan Outcome
	enq       time.Time
	replied   atomic.Bool
	synthetic bool // chaos-burst filler: no waiter, not counted as admitted
}

// resolve answers the request exactly once (the batch sweep may race the
// per-request resolution when the runtime cancels mid-batch) and reports
// whether this call was the one that resolved it — the winner also owns
// bumping the outcome counters, so they balance Admitted exactly.
func (r *request) resolve(o Outcome) bool {
	if r.replied.CompareAndSwap(false, true) {
		r.done <- o
		return true
	}
	return false
}

// Server couples the admission controller with the scoped-batch dispatcher.
// Create with New, run the dispatcher as the runtime's root body
// (rt.Run(srv.Run) — or call srv.Run from a subtask), Submit from any
// goroutine, Close to drain.
type Server struct {
	cfg   Config
	rt    *core.Runtime
	Stats Counters

	queue chan *request

	// Shutdown protocol. closed refuses new admissions; subMu lets Close
	// flush Submit calls that already passed the closed check (they hold
	// the read side across their enqueue); quiesced, set by Close after
	// that flush, tells the dispatcher that a drained queue is final.
	closed   atomic.Bool
	subMu    sync.RWMutex
	quiesced atomic.Bool

	// settled counts the dispatcher's idle quanta at which it owed no
	// deferred collection (see nextBatch): one that follows a drained burst
	// is a point where the burst's garbage is gone.
	settled atomic.Int64
}

// New creates a Server over rt.
func New(rt *core.Runtime, cfg Config) *Server {
	cfg.fill()
	return &Server{cfg: cfg, rt: rt, queue: make(chan *request, cfg.QueueDepth)}
}

// Config returns the server's filled configuration.
func (s *Server) Config() Config { return s.cfg }

// shed refuses with a typed overload response.
func (s *Server) shed(reason string) error {
	s.Stats.Shed.Add(1)
	return &Overload{Reason: reason, RetryAfter: s.cfg.RetryAfter}
}

// overWatermark names the first tripped telemetry watermark, if any.
func (s *Server) overWatermark() (string, bool) {
	if m := s.cfg.MaxLiveWords; m > 0 && s.rt.Space().LiveWords() > m {
		return "live-words watermark", true
	}
	if m := s.cfg.MaxPinned; m > 0 && s.rt.EntStats().PinnedNow > m {
		return "pinned watermark", true
	}
	if m := s.cfg.MaxRetainedChunks; m > 0 && s.rt.RetainedChunks() > m {
		return "retained-chunks watermark", true
	}
	return "", false
}

// Submit runs fn as one request and blocks until its Outcome: admission
// (queue space, watermarks, chaos) happens here, execution happens on the
// dispatcher's next batch. Safe from any goroutine — Submit is the
// service's network edge. A shed returns (*Overload, wrapping
// core.ErrShed) without blocking; an admitted request's error is its
// scope's cause (core.ErrDeadlineExceeded, core.ErrHeapLimit, …) or a
// runtime-level error if the whole computation died. fn's reply must be an
// immediate (see Outcome); what a request publishes for later requests it
// stores into state the dispatcher allocated, through the barriers.
func (s *Server) Submit(fn func(*core.Task) mem.Value) (mem.Value, error) {
	r := &request{fn: fn, done: make(chan Outcome, 1), enq: time.Now()}

	s.subMu.RLock()
	if s.closed.Load() {
		s.subMu.RUnlock()
		return mem.Nil, s.shed("closing")
	}
	if reason, over := s.overWatermark(); over {
		s.subMu.RUnlock()
		return mem.Nil, s.shed(reason)
	}
	if ch := s.rt.Chaos(); ch != nil && ch.Should(chaos.ShedStorm) {
		s.subMu.RUnlock()
		return mem.Nil, s.shed("chaos")
	}
	select {
	case s.queue <- r:
		s.Stats.Admitted.Add(1)
		s.subMu.RUnlock()
	default:
		s.subMu.RUnlock()
		return mem.Nil, s.shed("queue")
	}

	out := <-r.done
	return out.V, out.Err
}

// Close drains the service: no further admissions, every request already
// admitted is still served, and the dispatcher's Run returns once the
// queue is empty. Safe to call more than once, from any goroutine.
func (s *Server) Close() {
	s.closed.Store(true)
	// Flush in-flight Submits: after the write lock, every Submit has
	// either enqueued or been refused, so "closed && queue empty" is a
	// final state the dispatcher can trust.
	s.subMu.Lock()
	s.subMu.Unlock() //nolint — the empty critical section IS the flush
	s.quiesced.Store(true)
}

// quantum is the dispatcher's idle poll interval while the queue is empty:
// long enough to stay invisible in profiles, short enough that Close and
// fresh arrivals are picked up promptly.
const quantum = 200 * time.Microsecond

// nextBatch blocks for the next batch of up to MaxConcurrent requests, or
// returns nil when the service has quiesced. Each quantum it waits, the
// dispatcher t is idle (core.Task.Idle): it runs the collection a
// concurrent cycle deferred, so a drained burst leaves no garbage behind,
// and counts the quantum in settled once it owes none. Burst chaos pads the
// batch with synthetic churn requests beyond the token limit — exactly the
// admission-window overshoot a real arrival spike would cause.
func (s *Server) nextBatch(t *core.Task) []*request {
	var first *request
	for first == nil {
		select {
		case first = <-s.queue:
		case <-time.After(quantum):
			if t.Idle() {
				s.settled.Add(1)
			}
			if s.quiesced.Load() {
				select {
				case first = <-s.queue:
				default:
					return nil
				}
			}
		}
	}
	batch := []*request{first}
collect:
	for len(batch) < s.cfg.MaxConcurrent {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		default:
			break collect
		}
	}
	if ch := s.rt.Chaos(); ch != nil && ch.Should(chaos.Burst) {
		for i, n := 0, ch.Spin(chaos.Burst); i < n; i++ {
			batch = append(batch, &request{
				fn:        burstChurn,
				done:      make(chan Outcome, 1),
				enq:       time.Now(),
				synthetic: true,
			})
			s.Stats.BurstInjected.Add(1)
		}
	}
	return batch
}

// burstChurn is the synthetic chaos-burst body: enough allocation and
// publication to stress the batch's heap fan-out, no result anyone reads.
func burstChurn(t *core.Task) mem.Value {
	f := t.NewFrame(1)
	defer f.Pop()
	f.Set(0, t.AllocArray(64, mem.Int(0)).Value())
	for i := 0; i < 64; i++ {
		t.Write(f.Ref(0), i, mem.Int(int64(i)))
	}
	return mem.Int(64)
}

// Run is the dispatcher: the root (or a dedicated) task's body. It drains
// admission batches until Close, running each batch as a grain-1 ParFor so
// every request owns a leaf heap under this task's heap — anything this
// task allocated before calling Run (caches, tables) is ancestor state the
// requests reach via entangled reads. Returns mem.Nil when drained.
//
// Liveness under panics: a panic that unwinds through the dispatcher (a
// single-request batch runs inline on this task, so a request panic can
// bypass the branch guards; so can a bug in serve itself) must not strand
// blocked Submits. Run closes the server, answers everything in flight
// with the *core.PanicError, and re-panics so the runtime's own guard
// still records the error and cancels — the Submit contract ("every
// admitted request is resolved exactly once") holds even then.
func (s *Server) Run(t *core.Task) mem.Value {
	defer func() {
		if v := recover(); v != nil {
			err := asPanicError(v)
			s.Close() // flushes in-flight Submits; later ones shed "closing"
			s.drainWith(err)
			panic(err)
		}
	}()
	for {
		batch := s.nextBatch(t)
		if batch == nil {
			s.emitCounters(t)
			return mem.Nil
		}
		s.runBatch(t, batch)
		s.emitCounters(t)
		if t.Runtime().Cancelled() {
			// The computation is unwinding; answer whoever is still queued
			// rather than stranding their Submits.
			s.failPending()
			return mem.Nil
		}
	}
}

// runBatch executes one admission batch in parallel, one leaf heap per
// request, and resolves every request exactly once — including when the
// runtime cancels mid-batch and ParFor unwinds early.
func (s *Server) runBatch(t *core.Task, batch []*request) {
	s.Stats.TokensInUse.Store(int64(len(batch)))
	defer func() {
		if v := recover(); v != nil {
			// A panic unwound through the batch (inline request execution,
			// or ParFor's own join path): answer the whole batch before the
			// panic continues, and release the tokens so a post-mortem
			// Audit still balances.
			err := asPanicError(v)
			for _, r := range batch {
				if r.resolve(Outcome{Err: err}) && !r.synthetic {
					s.Stats.Failed.Add(1)
				}
			}
			s.Stats.TokensInUse.Store(0)
			panic(err)
		}
	}()
	t.ParFor(0, len(batch), 1, func(ct *core.Task, lo, hi int) {
		for i := lo; i < hi; i++ {
			s.runOne(ct, batch[i])
		}
	})
	s.Stats.TokensInUse.Store(0)
	if err := s.batchError(); err != nil {
		for _, r := range batch {
			if r.resolve(Outcome{Err: err}) && !r.synthetic {
				s.Stats.Failed.Add(1)
			}
		}
	}
}

// runOne runs a single request under its own fault domain and resolves it.
func (s *Server) runOne(t *core.Task, r *request) {
	var deadline time.Time
	if s.cfg.Deadline > 0 {
		deadline = r.enq.Add(s.cfg.Deadline)
	}
	sc := core.NewScope(t.Scope(), deadline, s.cfg.BudgetWords)
	v, err := t.RunScoped(sc, r.fn)
	if r.resolve(Outcome{V: v, Err: err}) && !r.synthetic {
		switch {
		case err == nil:
			s.Stats.Completed.Add(1)
		case errors.Is(err, core.ErrDeadlineExceeded):
			s.Stats.DeadlineExceeded.Add(1)
		case errors.Is(err, core.ErrHeapLimit) && !s.rt.Cancelled():
			s.Stats.BudgetExceeded.Add(1)
		default:
			s.Stats.Failed.Add(1)
		}
	}
}

// batchError is the runtime-level error that aborted a batch, if any.
func (s *Server) batchError() error {
	if !s.rt.Cancelled() {
		return nil
	}
	if err := s.rt.Err(); err != nil {
		return err
	}
	return core.ErrCancelled
}

// failPending resolves everything still queued after a runtime-level
// abort.
func (s *Server) failPending() {
	s.drainWith(s.batchError())
}

// drainWith answers every request still in the queue with err.
func (s *Server) drainWith(err error) {
	for {
		select {
		case r := <-s.queue:
			if r.resolve(Outcome{Err: err}) && !r.synthetic {
				s.Stats.Failed.Add(1)
			}
		default:
			return
		}
	}
}

// asPanicError coerces a recovered panic value to the *core.PanicError the
// runtime's own guard would produce, preserving an already-wrapped one so
// the stack captured closest to the panic site survives the re-panic.
func asPanicError(v any) *core.PanicError {
	if pe, ok := v.(*core.PanicError); ok {
		return pe
	}
	return &core.PanicError{Value: v, Stack: debug.Stack()}
}

// emitCounters samples the service counters into the dispatcher strand's
// trace ring (single-writer: this runs on the task's own strand, between
// batches). Free when untraced.
func (s *Server) emitCounters(t *core.Task) {
	t.EmitCounter(trace.CtrRequestsAdmitted, uint64(s.Stats.Admitted.Load()))
	t.EmitCounter(trace.CtrRequestsShed, uint64(s.Stats.Shed.Load()))
	t.EmitCounter(trace.CtrDeadlineExceeded, uint64(s.Stats.DeadlineExceeded.Load()))
	t.EmitCounter(trace.CtrTokensInUse, uint64(s.Stats.TokensInUse.Load()))
}

// Audit checks the service's own post-drain invariants — call it after
// Close and after the runtime's Run has returned. It verifies no token is
// still held, no request is stranded in the queue, and the resolution
// counters balance the admission counter (every admitted request was
// resolved exactly once). The caller pairs it with the runtime-level
// audits (CheckInvariants, pins == unpins).
func (s *Server) Audit() error {
	if n := s.Stats.TokensInUse.Load(); n != 0 {
		return fmt.Errorf("serve: %d concurrency tokens leaked", n)
	}
	if n := len(s.queue); n != 0 {
		return fmt.Errorf("serve: %d requests stranded in queue", n)
	}
	adm := s.Stats.Admitted.Load()
	res := s.Stats.Completed.Load() + s.Stats.DeadlineExceeded.Load() +
		s.Stats.BudgetExceeded.Load() + s.Stats.Failed.Load()
	if adm != res {
		return fmt.Errorf("serve: admitted %d != resolved %d (completed+deadline+budget+failed)", adm, res)
	}
	return nil
}
