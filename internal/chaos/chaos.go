// Package chaos is the runtime's deterministic fault-injection layer.
//
// An Injector is threaded (as an optional pointer) through the scheduler,
// the space, the heap gates and the collector trigger. At each injection
// point the host code asks Should(point); when the answer is true it forces
// the rare transition that point guards — a collection at an allocation, a
// widened steal window at a fork, spurious gate contention, a refused
// header CAS — so that schedule-dependent states which ordinary runs almost
// never reach are visited systematically. Order-maintenance (DePa) and
// on-the-fly race-detection work showed that exactly these perturbed
// schedules are what expose broken lock-free protocols; this package makes
// them reproducible.
//
// Decisions are deterministic in the aggregate: each point keeps an atomic
// hit counter, and the decision for hit n is a pure hash of (seed, point,
// n). Two runs with the same seed inject the same multiset of faults per
// point, independent of thread interleaving — which is as reproducible as a
// parallel run can be — and a failing seed can be replayed from CI.
//
// A nil *Injector is valid and injects nothing: every method is nil-safe,
// so release paths pay one pointer test per site and nothing else.
package chaos

import (
	"fmt"
	"sync/atomic"
)

// Point identifies one injection site in the runtime.
type Point uint8

const (
	// GCTrigger fires inside the allocation slow path: a hit forces a
	// local collection even though the heap budget is not exhausted,
	// approximating "collect at every allocation" as the hit rate → 1.
	GCTrigger Point = iota
	// StealDecision fires at forks: a hit widens the steal window (the
	// forking worker yields after publishing the right branch), forcing
	// steals — and therefore concurrently running siblings and entangled
	// joins — that an unloaded run would almost never perform.
	StealDecision
	// GateAcquire fires in Gate.EnterReader: a hit makes the reader back
	// off once as if a collection were underway (spurious contention),
	// exercising the undo-and-reenter path.
	GateAcquire
	// HeaderCAS fires in Space.PinHeader: a hit refuses the pin once with
	// PinBusy, forcing the caller's back-off/re-resolve retry, exactly as
	// a racing copier in its BUSY window would.
	HeaderCAS
	// BusyWindow fires between BeginCopy and Forward in the collector:
	// a hit stretches the transient BUSY window so concurrent pinners
	// dwell in their retry loops.
	BusyWindow
	// JoinCheck fires after a join's merge: a hit runs the (relaxed)
	// invariant checker over the merged parent heap.
	JoinCheck
	// CGCMark fires per object greyed by the concurrent collector's mark
	// loop: a hit yields the CGC worker, stretching the marking phase so
	// mutator writes, joins, and steal-backs land mid-mark.
	CGCMark
	// CGCSweep fires per chunk in the concurrent sweep: a hit yields the
	// CGC worker inside its gated sweep window, dwelling merges and
	// resuming owners in their WaitBeginCollect/steal-back loops.
	CGCSweep
	// CGCShade fires in the SATB deletion barrier before an overwritten
	// reference is pushed to the shade queue: a hit yields the mutator
	// while it holds its heap's reader gate, widening the window the
	// marking-termination gate flush must close.
	CGCShade
	// PathSpill fires in Tree.Fork when the child's fork path is built: a
	// hit forces the inline→vector spill promotion of the DePa fork-path
	// representation even though the path would fit inline, so shallow
	// trees exercise the spilled comparison paths that otherwise need
	// depth > 64. (The legacy order list's rebalance/exhaustion fallback
	// needed no injection point of its own — exhaustion tests shrink the
	// label space directly — and is unreachable on the default fork-path
	// oracle, which has no label space at all.)
	PathSpill
	// Burst fires in the serve dispatcher's batch formation: a hit injects
	// a synthetic burst of no-op requests ahead of the real batch, driving
	// the admission window and the per-batch heap churn to their limits the
	// way a traffic spike would.
	Burst
	// DeadlinePin fires in the read-barrier slow path of a deadline-scoped
	// task, immediately before the entanglement pin protocol: a hit expires
	// the scope right there, racing scoped cancellation against an
	// in-flight pin — the window where a leaked pin would escape the
	// join-time unpin audit.
	DeadlinePin
	// ShedStorm fires in the admission controller's acquire path: a hit
	// refuses admission even though tokens are free, forcing shed/retry
	// traffic (and its token accounting) without needing real overload.
	ShedStorm
	numPoints int = iota
)

func (p Point) String() string {
	switch p {
	case GCTrigger:
		return "gc-trigger"
	case StealDecision:
		return "steal-decision"
	case GateAcquire:
		return "gate-acquire"
	case HeaderCAS:
		return "header-cas"
	case BusyWindow:
		return "busy-window"
	case JoinCheck:
		return "join-check"
	case CGCMark:
		return "cgc-mark"
	case CGCSweep:
		return "cgc-sweep"
	case CGCShade:
		return "cgc-shade"
	case PathSpill:
		return "path-spill"
	case Burst:
		return "burst"
	case DeadlinePin:
		return "deadline-pin"
	case ShedStorm:
		return "shed-storm"
	}
	return "invalid"
}

// Points lists every injection point, for catalogs and reports.
func Points() []Point {
	out := make([]Point, numPoints)
	for i := range out {
		out[i] = Point(i)
	}
	return out
}

// Options selects per-point injection rates. A rate is a numerator out of
// 1024: 0 disables the point, 1024 fires on every hit. HeaderCAS and
// GateAcquire are clamped below 1024 — a site that always refuses would
// turn a retry loop into a livelock rather than a schedule perturbation.
type Options struct {
	GCTrigger     uint32
	StealDecision uint32
	GateAcquire   uint32
	HeaderCAS     uint32
	BusyWindow    uint32
	JoinCheck     uint32
	CGCMark       uint32
	CGCSweep      uint32
	CGCShade      uint32
	PathSpill     uint32
	Burst         uint32
	DeadlinePin   uint32
	ShedStorm     uint32
}

// Soak is the default option set of the chaos soak suite: every point on,
// hot sites near their clamps, the GC trigger high enough that most
// allocations collect.
func Soak() Options {
	return Options{
		GCTrigger:     512,
		StealDecision: 768,
		GateAcquire:   512,
		HeaderCAS:     512,
		BusyWindow:    512,
		JoinCheck:     256,
		CGCMark:       256,
		CGCSweep:      512,
		CGCShade:      256,
		PathSpill:     256,
		Burst:         256,
		DeadlinePin:   256,
		ShedStorm:     256,
	}
}

// Injector makes seeded injection decisions. Safe for concurrent use; a
// nil Injector is valid and never injects.
type Injector struct {
	seed uint64
	rate [numPoints]uint32
	hits [numPoints]atomic.Uint64 // decisions taken at each point
	hot  [numPoints]atomic.Uint64 // decisions that injected
}

// retryClamp bounds the rates of points that sit inside retry loops.
const retryClamp = 1000

// New creates an injector with the given seed and rates.
func New(seed int64, o Options) *Injector {
	in := &Injector{seed: uint64(seed) * 0x9E3779B97F4A7C15}
	if in.seed == 0 {
		in.seed = 0x9E3779B97F4A7C15
	}
	clamp := func(r, max uint32) uint32 {
		if r > max {
			return max
		}
		return r
	}
	in.rate[GCTrigger] = clamp(o.GCTrigger, 1024)
	in.rate[StealDecision] = clamp(o.StealDecision, 1024)
	in.rate[GateAcquire] = clamp(o.GateAcquire, retryClamp)
	in.rate[HeaderCAS] = clamp(o.HeaderCAS, retryClamp)
	in.rate[BusyWindow] = clamp(o.BusyWindow, 1024)
	in.rate[JoinCheck] = clamp(o.JoinCheck, 1024)
	in.rate[CGCMark] = clamp(o.CGCMark, 1024)
	in.rate[CGCSweep] = clamp(o.CGCSweep, 1024)
	in.rate[CGCShade] = clamp(o.CGCShade, 1024)
	in.rate[PathSpill] = clamp(o.PathSpill, 1024)
	in.rate[Burst] = clamp(o.Burst, 1024)
	in.rate[DeadlinePin] = clamp(o.DeadlinePin, 1024)
	// ShedStorm sits inside the load generator's retry loop: a point that
	// always refuses would starve every request instead of perturbing the
	// admission schedule.
	in.rate[ShedStorm] = clamp(o.ShedStorm, retryClamp)
	return in
}

// splitmix64 is the finalizer of SplitMix64: a high-quality 64-bit mix used
// to turn (seed, point, counter) into an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Should reports whether to inject at point p for this hit. The decision
// for the n-th hit of a point is a pure function of (seed, p, n), so a run
// with a fixed seed injects a reproducible fault sequence per point.
func (in *Injector) Should(p Point) bool {
	if in == nil || in.rate[p] == 0 {
		return false
	}
	n := in.hits[p].Add(1)
	h := splitmix64(in.seed ^ uint64(p)<<56 ^ n)
	if uint32(h%1024) < in.rate[p] {
		in.hot[p].Add(1)
		return true
	}
	return false
}

// Spin returns a small deterministic iteration count (1..4) for stretching
// a window at point p, derived from the point's current hit count.
func (in *Injector) Spin(p Point) int {
	if in == nil {
		return 0
	}
	return int(splitmix64(in.seed^uint64(p)<<56^in.hits[p].Load())%4) + 1
}

// Injected returns how many times point p actually fired.
func (in *Injector) Injected(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.hot[p].Load()
}

// Hits returns how many times point p was consulted.
func (in *Injector) Hits(p Point) uint64 {
	if in == nil {
		return 0
	}
	return in.hits[p].Load()
}

// Report renders per-point injection totals, for failure dumps.
func (in *Injector) Report() string {
	if in == nil {
		return "chaos: off"
	}
	s := fmt.Sprintf("chaos: seed-mix=%#x", in.seed)
	for _, p := range Points() {
		s += fmt.Sprintf("\n  %-14s %8d / %8d hits (rate %d/1024)",
			p, in.hot[p].Load(), in.hits[p].Load(), in.rate[p])
	}
	return s
}
