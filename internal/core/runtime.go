// Package core assembles the runtime: the scheduler (sched), heap
// hierarchy (hierarchy), entanglement manager (entangle), and local
// collector (gc) behind a Task API with the barriers of the paper:
//
//   - Task.Read carries the read barrier: a single candidate-bit test on
//     the fast path, the entanglement slow path (pin/validate) otherwise.
//   - Task.Write carries the write barrier: same-heap stores are free;
//     cross-heap stores classify the edge (up/down/cross) and record
//     down-pointers or pin published objects.
//   - Task.Par forks child heaps mirroring the task tree and merges them
//     at joins, unpinning entangled objects whose unpin depth is reached.
//   - Allocation is per-task bump allocation; when a task's allocation
//     budget is exhausted it collects its exclusive heap suffix (LGC).
//
// Package mpl re-exports this API as the library's public surface.
package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mplgo/internal/attr"
	"mplgo/internal/chaos"
	"mplgo/internal/entangle"
	"mplgo/internal/gc"
	"mplgo/internal/hierarchy"
	"mplgo/internal/mem"
	"mplgo/internal/sched"
	"mplgo/internal/sim"
	"mplgo/internal/trace"
)

// ErrCancelled is returned by Run when the computation was aborted via
// Runtime.Cancel before completing.
var ErrCancelled = errors.New("core: computation cancelled")

// ErrHeapLimit is returned by Run when Config.MaxHeapWords was exceeded
// and a forced local collection could not bring residency back under it.
var ErrHeapLimit = errors.New("core: heap limit exceeded")

// PanicError wraps a panic recovered from a task branch. Run returns it
// instead of letting the panic kill a worker goroutine (which used to hang
// the pool). Unwrap exposes panics whose value was itself an error — the
// typed resource-exhaustion panics (mem.ErrChunkTableExhausted) surface
// through errors.Is this way.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack at recovery
}

func (e *PanicError) Error() string { return fmt.Sprintf("core: panic in task: %v", e.Value) }

func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Abstract cost constants for the simulator's work accounting.
const (
	costAccess   = 1  // one barriered read or write
	costSlowRead = 30 // entanglement slow path (lock, ancestry, pin)
	costGCWord   = 1  // per word copied by a collection
	costFork     = 40 // heap creation + scheduling at a fork
)

// Config parameterizes a Runtime.
type Config struct {
	// Procs is the number of scheduler workers. Default 1.
	Procs int
	// Mode selects entanglement handling (manage / detect / unsafe).
	Mode entangle.Mode
	// HeapBudgetWords triggers a local collection when a task has
	// allocated this many words since the last one. Default 1<<17.
	HeapBudgetWords int64
	// DisableGC turns off local collections (the heaps only grow).
	DisableGC bool
	// Record captures the fork–join DAG with abstract costs for the
	// simulator (package sim).
	Record bool
	// Seed makes scheduling decisions reproducible.
	Seed int64
	// MaxHeapWords, when positive, is a backpressure limit on total
	// simulated residency: an allocation that finds LiveWords above it
	// forces a local collection, and if residency is still above the
	// limit afterwards the computation is cancelled with ErrHeapLimit
	// instead of growing without bound.
	MaxHeapWords int64
	// Chaos, when non-nil, enables the deterministic fault-injection
	// layer (package chaos), seeded from Seed: forced collections,
	// widened steal windows, spurious gate contention and refused header
	// CASes, plus invariant audits at joins, collection ends, and the end
	// of Run. For testing only — never set in timing runs.
	Chaos *chaos.Options
	// CGC enables the concurrent collector (gc.CGC): a dedicated worker
	// that marks and sweeps internal heaps — heaps suspended under live
	// children, which local collections cannot reach — while the
	// computation runs. Off by default; timing runs keep it off so the
	// mutator fast paths carry no barrier cost (every CGC hook is gated on
	// a nil test).
	CGC bool
	// CGCThresholdWords is the trigger floor: the collector worker starts
	// a cycle only while total residency exceeds it. Default 1<<15.
	CGCThresholdWords int64
	// Tracer, when non-nil, installs per-worker event rings (package
	// trace): each scheduler worker and each task heap gets the ring of
	// the strand running it, and the concurrent collector gets the
	// tracer's extra ring. Installing a tracer does not start tracing —
	// events flow only while trace.Enable is in effect — and timing runs
	// leave Tracer nil so every instrumentation site stays a nil test.
	Tracer *trace.Tracer
	// Attr, when non-nil, installs the sampled cost-attribution profiler
	// (package attr): each scheduler worker and each task heap gets the
	// sink of the strand running it, and the concurrent collector gets the
	// profiler's extra sink. Installing a profiler does not start sampling
	// — windows open only while attr.Enable is in effect — and timing runs
	// leave Attr nil so every sampling site stays a nil test, exactly like
	// Tracer.
	Attr *attr.Profiler
}

func (c *Config) fill() {
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.HeapBudgetWords <= 0 {
		c.HeapBudgetWords = 1 << 17
	}
	if c.CGCThresholdWords <= 0 {
		c.CGCThresholdWords = 1 << 15
	}
}

// Runtime is one instance of the hierarchical-heap runtime. A Runtime
// executes one computation via Run; create a fresh Runtime per computation.
type Runtime struct {
	cfg   Config
	space *mem.Space
	tree  *hierarchy.Tree
	ent   *entangle.Manager
	col   *gc.Collector
	pool  *sched.Pool
	trace *sim.Node
	chaos *chaos.Injector

	// cgc is the concurrent collector, nil unless Config.CGC. cgcExcl
	// serializes its cycles against local collections (see cgc.go);
	// cgcTasks is the handshake registry, guarded by cgcMu.
	cgc      *gc.CGC
	cgcExcl  sync.RWMutex
	cgcMu    sync.Mutex
	cgcTasks map[*Task]struct{}

	// cancelled is the runtime-wide cooperative cancellation flag, set by
	// Cancel, by a recovered branch panic, and by unrecoverable resource
	// exhaustion. Tasks poll it at forks, allocation slow paths, and the
	// read-barrier slow path; once set, Par stops forking, ParFor returns,
	// and no further collections run, so the computation unwinds quickly
	// and Run returns the first recorded error.
	cancelled atomic.Bool

	// elRegions is the static-region count the language front end proved
	// (SetStaticRegions); the elided-access totals are the tree's.
	elRegions atomic.Int64

	errMu sync.Mutex
	err   error
}

// ElisionStats summarizes barrier elision for one runtime: how many
// unchecked loads/stores/allocations actually executed and how many static
// regions the front end proved disentangled.
type ElisionStats struct {
	StaticRegions int64
	ElidedLoads   int64
	ElidedStores  int64
	ElidedAllocs  int64
}

// New creates a runtime.
func New(cfg Config) *Runtime {
	cfg.fill()
	r := &Runtime{cfg: cfg, space: mem.NewSpace(), tree: hierarchy.New()}
	r.ent = entangle.New(r.space, r.tree, cfg.Mode)
	r.col = gc.New(r.space, r.tree)
	r.pool = sched.NewPool(cfg.Procs, cfg.Seed)
	// Safety net under the per-branch recovery in Task.Par: a panic that
	// escapes a branch's own guard (e.g. from the join bookkeeping itself)
	// is still converted to an error and the pool still drains.
	r.pool.OnPanic = func(v any) { r.cancelWith(recoveredError(v)) }
	if cfg.Chaos != nil {
		r.chaos = chaos.New(cfg.Seed, *cfg.Chaos)
		r.space.Chaos = r.chaos
		r.tree.SetChaos(r.chaos)
		r.pool.Chaos = r.chaos
	}
	if cfg.Tracer != nil {
		for i, w := range r.pool.Workers() {
			w.Ring = cfg.Tracer.Ring(i)
		}
	}
	if cfg.Attr != nil {
		for i, w := range r.pool.Workers() {
			w.Attr = cfg.Attr.Sink(i)
		}
	}
	if cfg.CGC {
		// After the chaos block: the collector inherits the injector so
		// the CGCMark/CGCSweep/CGCShade points fire in chaos runs.
		r.cgc = gc.NewCGC(r.space, r.tree, r.chaos)
		r.cgc.Ring = cfg.Tracer.CollectorRing()
		r.cgc.Attr = cfg.Attr.CollectorSink()
		r.ent.SATB = r.cgc
		r.cgcTasks = make(map[*Task]struct{})
		r.pool.Aux = r.cgcLoop
	}
	if cfg.Record {
		r.trace = sim.NewTrace()
	}
	return r
}

// Run executes f as the root task and returns its result. If the runtime
// is in Detect mode and the program entangled, the first entanglement error
// is returned (the paper's baseline MPL would abort here; we complete the
// run safely and surface the error).
//
// A panic in f or in any Par branch does not crash the process or hang the
// pool: it is recovered, converted to a *PanicError, and returned here with
// every worker drained and the heap hierarchy consistent. Likewise Cancel
// and resource exhaustion surface as ErrCancelled / ErrHeapLimit /
// the wrapped typed exhaustion errors.
func (r *Runtime) Run(f func(*Task) mem.Value) (mem.Value, error) {
	var out mem.Value
	r.pool.Run(func(w *sched.Worker) {
		t := r.newTask(w, r.tree.Root(), r.trace, nil)
		defer t.finish()
		defer r.guard()
		out = f(t)
	})
	if r.cfg.Attr != nil && r.cfg.Tracer != nil {
		// Final attribution flush: the pool has drained, so no worker
		// writes its ring or sink anymore and this goroutine may emit the
		// totals of every (sink, ring) pair without breaking the
		// single-writer contract.
		for i := 0; i < r.pool.P(); i++ {
			r.cfg.Attr.Sink(i).EmitCounters(r.cfg.Tracer.Ring(i), 0)
		}
		r.cfg.Attr.CollectorSink().EmitCounters(r.cfg.Tracer.CollectorRing(), 0)
	}
	if r.chaos != nil {
		// The pool has drained: the computation is quiescent, so the
		// strict audit (gates drained, pins balanced, no reachable
		// forwarding headers) must hold even after injected faults,
		// panics, or cancellation.
		if err := gc.CheckInvariants(r.space, r.tree, true); err != nil {
			r.fail(err)
		}
	}
	return out, r.Err()
}

// Cancel aborts the computation cooperatively: tasks observe the flag at
// forks, allocation slow paths and barrier slow paths, stop forking, and
// unwind. Run returns ErrCancelled (or an earlier recorded error). Safe to
// call from any goroutine, including outside the pool.
func (r *Runtime) Cancel() { r.cancelWith(ErrCancelled) }

// Cancelled reports whether the runtime's cancellation flag is set.
func (r *Runtime) Cancelled() bool { return r.cancelled.Load() }

// cancelWith records err (first error wins) and raises the cancellation
// flag.
func (r *Runtime) cancelWith(err error) {
	r.fail(err)
	r.cancelled.Store(true)
}

// guard is deferred around task branch bodies: it converts a panic into a
// recorded error plus runtime-wide cancellation, so the sibling branch
// unwinds cooperatively and the join's merge bookkeeping (deferred after
// guard) still runs, keeping the hierarchy consistent.
func (r *Runtime) guard() {
	if v := recover(); v != nil {
		r.cancelWith(recoveredError(v))
	}
}

// recoveredError converts a recovered panic value into the error Run
// reports.
func recoveredError(v any) error {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// CheckInvariants runs the strict (quiescent-point) invariant audit over
// the whole heap hierarchy: gate reader counts zero, per-chunk pin
// accounting balanced, headers parseable, remembered entries well-formed,
// and no live path reaching a forwarding header. Call it only when no
// computation is running (e.g. after Run returns).
func (r *Runtime) CheckInvariants() error {
	return gc.CheckInvariants(r.space, r.tree, true)
}

// ChaosReport renders per-point injection totals ("chaos: off" when the
// fault-injection layer is disabled), for failure dumps.
func (r *Runtime) ChaosReport() string { return r.chaos.Report() }

// Chaos exposes the fault-injection layer (nil when disabled) so host
// packages with their own injection points — the admission controller's
// shed-storm and burst sites (internal/serve) — draw decisions from the
// same seeded stream the runtime replays.
func (r *Runtime) Chaos() *chaos.Injector { return r.chaos }

// Err returns the first entanglement error recorded (Detect mode).
func (r *Runtime) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.err
}

func (r *Runtime) fail(err error) {
	if err == nil {
		return
	}
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
}

// Space exposes the simulated heap (for checkers and experiments).
func (r *Runtime) Space() *mem.Space { return r.space }

// Tree exposes the heap hierarchy (for experiments).
func (r *Runtime) Tree() *hierarchy.Tree { return r.tree }

// EntStats returns the entanglement cost metrics: the pinned gauge and its
// peaks live, the event totals as drained so far — exact once Run has
// returned, lagging by the running tasks' own counts before (see
// entangle.Stats).
func (r *Runtime) EntStats() entangle.StatsSnapshot { return r.ent.Stats.Snapshot() }

// SetStaticRegions records the number of statically-proven disentangled
// regions for the computation (reported by a language front end's
// analysis; zero when no elision is in play).
func (r *Runtime) SetStaticRegions(n int64) { r.elRegions.Store(n) }

// ElisionStats returns the barrier-elision totals: drained like EntStats'
// event totals, so exact once Run has returned.
func (r *Runtime) ElisionStats() ElisionStats {
	t := r.tree.Stats
	return ElisionStats{
		StaticRegions: r.elRegions.Load(),
		ElidedLoads:   t.Load(trace.ElidedLoads),
		ElidedStores:  t.Load(trace.ElidedStores),
		ElidedAllocs:  t.Load(trace.ElidedAllocs),
	}
}

// GCStats reports the local collections' totals, read from the tree's table.
func (r *Runtime) GCStats() (collections, copiedWords, reclaimedWords int64) {
	t := r.tree.Stats
	return t.Load(trace.GCCollections), t.Load(trace.GCCopiedWords), t.Load(trace.GCReclaimedWords)
}

// Trace returns the recorded DAG, or nil if recording was off.
func (r *Runtime) Trace() *sim.Node { return r.trace }

// Tracer returns the event tracer installed via Config.Tracer (nil when
// untraced).
func (r *Runtime) Tracer() *trace.Tracer { return r.cfg.Tracer }

// AttrProfiler returns the cost-attribution profiler installed via
// Config.Attr (nil when attribution is off).
func (r *Runtime) AttrProfiler() *attr.Profiler { return r.cfg.Attr }

// PinCASStats returns the pin CAS's outcome totals, drained like EntStats'.
func (r *Runtime) PinCASStats() mem.PinCASSnapshot { return r.ent.Stats.PinCAS() }

// Steals reports total scheduler steals.
func (r *Runtime) Steals() int64 { return r.pool.TotalSteals() }

// MaxLiveWords reports the space high-water mark (max residency).
func (r *Runtime) MaxLiveWords() int64 { return r.space.MaxLiveWords() }

// Mode returns the runtime's entanglement mode.
func (r *Runtime) Mode() entangle.Mode { return r.cfg.Mode }
