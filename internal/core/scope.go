package core

// Request-scoped fault domains. A Scope is a cancellation domain covering
// one subtree of the fork–join computation: a per-subtree cancel flag with
// a cause, an optional monotonic-clock deadline, and an optional heap-word
// budget. Where Runtime.Cancel tears down the whole computation, a scope
// cancels only the tasks running under it — sibling subtrees (concurrent
// requests of a server) keep running, and the scope's join reports *why*
// its subtree died.
//
// Poll model. Tasks check their scope at the same cooperative points that
// already check the runtime-wide flag — forks (Par/ParFor), the allocation
// poll, and the read-barrier slow path — so the disentangled fast paths
// gain at most one predictable nil test (t.scope is nil for every unscoped
// task, which includes all benchmark kernels). An allocation only compares
// the task's words since its last collection with a limit (Task.arm),
// armed no more than pollQuantum words ahead while the task has a scope;
// past it, the poll charges the words allocated since the last charge to
// the scope chain's budgets and evaluates the deadlines with the monotonic
// clock (time.Time's monotonic reading), so a compute-only subtree still
// observes its deadline without a clock read or an atomic add per
// allocation. The words are charged too at every scope switch, before
// RunScoped reads the cause, and when a task finishes, so a scope's
// AllocatedWords is exact once its RunScoped returns.
//
// Unwind model. Scoped cancellation is weaker than runtime cancellation on
// purpose: the rest of the computation keeps collecting, pinning, and
// merging, so a scope-cancelled task must NOT take the "nothing moves
// anymore" shortcuts the global unwind takes. It keeps running the full
// entanglement pin protocol on reads, keeps its GC safepoints, and keeps
// every join's merge — which is exactly what unpins the objects its
// entangled reads pinned (unpin on unwind is the ordinary merge unpin).
// Only control flow short-circuits: Par skips both branches, ParFor returns
// early, and the subtree drains through its joins. A task parked under a
// CGC-claimed heap unwinds through the same CGCTryResume wait as a healthy
// join; the collector always gets to finish with what it claimed.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mplgo/internal/mem"
)

// ErrDeadlineExceeded is the cancel cause recorded when a scope's deadline
// passes: the scoped join (ForkScoped/RunScoped) returns it while sibling
// scopes keep running.
var ErrDeadlineExceeded = errors.New("core: scope deadline exceeded")

// ErrShed is the typed overload refusal: admission control (internal/serve)
// refused the request before it ran, and the caller may retry. Defined here
// beside ErrCancelled/ErrHeapLimit/ErrDeadlineExceeded so the whole
// request-failure vocabulary is one package.
var ErrShed = errors.New("core: request shed by admission control")

// Scope is one request-scoped fault domain. Create one with Task.NewScope
// (or NewScope for a deadline computed from an arrival time), run a subtree
// under it with Task.RunScoped or Task.ForkScoped, and cancel it from any
// goroutine with Cancel. Scopes nest: cancelling a scope cancels every
// scope created under it (children observe ancestors through the parent
// chain — no child registry, no fan-out on Cancel).
type Scope struct {
	parent *Scope

	// done is the cancel flag, polled by every task in the domain.
	done atomic.Bool

	// deadline is the scope's monotonic deadline (zero = none). Immutable
	// after creation: polls read it with no synchronization.
	deadline time.Time

	// budget is the scope's heap-word allowance (0 = unlimited); words
	// counts the allocation charged against it by every task in the domain.
	// Exceeding the budget cancels the scope with ErrHeapLimit — the
	// per-request analogue of Config.MaxHeapWords.
	budget int64
	words  atomic.Int64

	mu    sync.Mutex
	cause error
}

// NewScope creates a fault domain with an absolute deadline (zero = none)
// and a heap-word budget (0 = unlimited), nested under parent (nil for a
// top-level domain). Servers pass a deadline computed from the request's
// arrival time so queueing delay counts against it.
func NewScope(parent *Scope, deadline time.Time, budgetWords int64) *Scope {
	return &Scope{parent: parent, deadline: deadline, budget: budgetWords}
}

// NewScope creates a fault domain nested under the task's current one,
// with a relative timeout (0 = no deadline) and a heap-word budget
// (0 = unlimited).
func (t *Task) NewScope(timeout time.Duration, budgetWords int64) *Scope {
	var d time.Time
	if timeout > 0 {
		d = time.Now().Add(timeout)
	}
	return NewScope(t.scope, d, budgetWords)
}

// Cancel cancels the scope with the given cause (first cause wins; nil
// records ErrCancelled). Safe from any goroutine. Tasks under the scope
// observe it at their next poll point and unwind cooperatively.
func (s *Scope) Cancel(cause error) {
	if cause == nil {
		cause = ErrCancelled
	}
	s.mu.Lock()
	if s.cause == nil {
		s.cause = cause
	}
	s.mu.Unlock()
	s.done.Store(true)
}

// Cancelled reports whether the scope — or any scope it is nested under —
// has been cancelled. One atomic load per chain link; the chain is as deep
// as the scope nesting (one for a plain server request).
func (s *Scope) Cancelled() bool {
	for x := s; x != nil; x = x.parent {
		if x.done.Load() {
			return true
		}
	}
	return false
}

// Err returns why the domain died: the nearest recorded cause walking
// outward (ErrDeadlineExceeded, ErrHeapLimit, an explicit Cancel cause), or
// nil if the domain is still live.
func (s *Scope) Err() error {
	for x := s; x != nil; x = x.parent {
		x.mu.Lock()
		c := x.cause
		x.mu.Unlock()
		if c != nil {
			return c
		}
		if x.done.Load() {
			return ErrCancelled
		}
	}
	return nil
}

// AllocatedWords returns the heap words charged against this scope so far.
func (s *Scope) AllocatedWords() int64 { return s.words.Load() }

// poll folds an expired deadline into cancellation and reports whether the
// domain is cancelled. The deadline comparison uses time.Time's monotonic
// reading, so wall-clock steps cannot fire (or suppress) it.
func (s *Scope) poll(now time.Time) bool {
	for x := s; x != nil; x = x.parent {
		if x.done.Load() {
			return true
		}
		if !x.deadline.IsZero() && now.After(x.deadline) {
			x.Cancel(ErrDeadlineExceeded)
			return true
		}
	}
	return false
}

// chargeScope charges the words the task allocated since its last charge
// to every budgeted scope on its chain; blowing a budget cancels that scope
// with ErrHeapLimit. Atomic adds — tasks of one domain run on many workers.
func (t *Task) chargeScope() {
	for x := t.scope; x != nil; x = x.parent {
		if x.budget != 0 && x.words.Add(t.uncharged) > x.budget {
			x.Cancel(ErrHeapLimit)
		}
	}
	t.uncharged = 0
}

// setScope charges the current scope and switches the task to sc.
func (t *Task) setScope(sc *Scope) {
	t.chargeScope()
	t.scope = sc
	t.arm()
}

// scopeCancelled is the task-side poll used at forks and barrier slow
// paths: full deadline evaluation. Unscoped tasks pay one nil test.
func (t *Task) scopeCancelled() bool {
	s := t.scope
	if s == nil {
		return false
	}
	return s.poll(time.Now())
}

// Scope returns the task's current fault domain (nil outside any scope).
func (t *Task) Scope() *Scope { return t.scope }

// ScopeErr returns why the task's domain died (nil when unscoped or live).
// Workload code uses it to stop retaining results the join will discard.
func (t *Task) ScopeErr() error {
	if t.scope == nil {
		return nil
	}
	return t.scope.Err()
}

// RunScoped runs body on this task under scope sc, restoring the previous
// domain afterwards, and returns body's value together with sc's cause
// (nil if the domain survived). If the domain is already dead — a request
// whose deadline passed while queued — body is skipped entirely.
//
// The runtime-wide flag still dominates: a global cancel unwinds scoped
// and unscoped tasks alike, and RunScoped reports the runtime's error.
func (t *Task) RunScoped(sc *Scope, body func(*Task) mem.Value) (mem.Value, error) {
	saved := t.scope
	t.setScope(sc)
	defer t.setScope(saved)
	if t.rt.cancelled.Load() {
		return mem.Nil, t.runErr()
	}
	if sc.poll(time.Now()) {
		return mem.Nil, sc.Err()
	}
	v := body(t)
	t.chargeScope()
	if t.rt.cancelled.Load() {
		return mem.Nil, t.runErr()
	}
	if err := sc.Err(); err != nil {
		return mem.Nil, err
	}
	return v, nil
}

// ForkScoped evaluates f and g in parallel like Par, with g running under
// scope sc while f stays in the caller's domain. It returns both values
// plus sc's cause: why g's subtree died (ErrDeadlineExceeded, ErrHeapLimit,
// an explicit Cancel cause), or nil if it completed. The join runs every
// merge and unpin step either way, so a dead domain leaves no pins and no
// half-merged heaps behind — and f's subtree, like any concurrent sibling
// domain, is unaffected.
func (t *Task) ForkScoped(sc *Scope, f, g func(*Task) mem.Value) (fv, gv mem.Value, gerr error) {
	fv, gv = t.Par(f, func(ct *Task) mem.Value {
		v, _ := ct.RunScoped(sc, g)
		return v
	})
	if t.rt.cancelled.Load() {
		return fv, gv, t.runErr()
	}
	return fv, gv, sc.Err()
}

// runErr returns the runtime's recorded error, defaulting to ErrCancelled
// when the flag is up but no cause was recorded yet (a racing canceller).
func (t *Task) runErr() error {
	if err := t.rt.Err(); err != nil {
		return err
	}
	return ErrCancelled
}
