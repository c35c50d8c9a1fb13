// Package attr is a sampled cycle-level cost-attribution profiler for
// the runtime's slow paths (DESIGN.md §10). It answers the question the
// trace counters cannot: of the measured T1−Tseq gap on an entangled
// benchmark, how many nanoseconds go to pin CAS vs gate traffic vs
// remset publication vs ancestry vs unpin-at-join?
//
// The design copies the trace package's discipline exactly:
//
//   - Instrumentation sites cost one nil test when no profiler is
//     installed, and one decrement + branch when installed but not
//     sampling this occurrence. Only 1-in-period occurrences pay for
//     two monotonic clock reads.
//   - Every Sink is single-writer: it is owned by exactly one strand
//     (a worker, or the collector), the same ownership rule as
//     trace.Ring. The sampling countdown is therefore a plain field.
//     The accumulated totals are atomics written only by the owner and
//     read by concurrent Snapshot callers (telemetry, tests).
//   - Results flush through the existing trace rings as counter
//     events, so the Chrome export, the summarizer, and the grid
//     runner all see attribution without a new transport.
//
// Sampling math: with period N, each recorded sample stands for N
// occurrences, so the estimated total cost of a component is
// (sum of sampled durations) × N. The per-sample timer bias (the cost
// of the two clock reads themselves) is calibrated once at profiler
// construction and subtracted from every sample, floored at zero.
// Known biases that remain: (1) the sampled windows include the
// instrumentation branches of *nested* sites, so components are
// measured as disjoint tiles of the slow path they cover, not as pure
// algorithmic cost; (2) countdown re-arm is jittered uniformly in
// [period/2, 3·period/2) to avoid phase-locking with loop strides, so
// the effective period is N in expectation, not exactly N per sample.
package attr

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Component is one named slot of the slow-path cost budget. The order
// here is load-bearing: trace counter ids (trace.CtrAttrPinCASNS and
// friends) are laid out in this order, two per component, and
// EmitCounters computes ids by offset. A test in this package pins the
// alignment.
type Component int32

const (
	PinCAS        Component = iota // object-header pin CAS (PinHeader + AddPinned publication)
	PinRetry                       // pin found BUSY/FORWARDED: forwarding chase + re-read
	GateEnter                      // per-heap reader-gate acquire (incl. collector waits)
	GateExit                       // reader-gate release + slow-path tail bookkeeping
	RemsetPublish                  // down-pointer remembered-set publication
	AncestryQuery                  // fork-path ancestry / LCA / unpin-depth computation
	UnpinAtJoin                    // unpin sweep over the child's pinned set at a join
	ShadeQueue                     // SATB shade push (mutator) / shade-stack drain (collector)
	BudgetPoll                     // allocation poll past the task's limit: scope, CGC, residency, GC
	StealLoop                      // one full victim scan of the steal loop
	MergeWait                      // waiting out collectors on both gates before a merge
	NumComponents
)

var componentSlugs = [NumComponents]string{
	PinCAS:        "pin_cas",
	PinRetry:      "pin_retry",
	GateEnter:     "gate_enter",
	GateExit:      "gate_exit",
	RemsetPublish: "remset_publish",
	AncestryQuery: "ancestry_query",
	UnpinAtJoin:   "unpin_at_join",
	ShadeQueue:    "shade_queue",
	BudgetPoll:    "budget_poll",
	StealLoop:     "steal_loop",
	MergeWait:     "merge_wait",
}

// Slug returns the snake_case name used in trace counter names
// ("attr_<slug>_ns" / "attr_<slug>_n") and report rows.
func (c Component) Slug() string {
	if c < 0 || c >= NumComponents {
		return "unknown"
	}
	return componentSlugs[c]
}

// ComponentFromSlug inverts Slug; ok is false for unknown names.
func ComponentFromSlug(s string) (Component, bool) {
	for c, slug := range componentSlugs {
		if slug == s {
			return Component(c), true
		}
	}
	return 0, false
}

// Buckets is the number of log2-ns histogram buckets per component:
// bucket i holds samples with duration in [2^(i−1), 2^i) ns (bucket 0
// holds zero-duration samples after bias subtraction).
const Buckets = 28

// DefaultPeriod is the default sampling period: 1 in 1024 occurrences
// pay for the clock reads. The enabled-overhead sanity test pins this
// at <3% on the entangled T1 suite.
const DefaultPeriod = 1024

// enabled is a refcount, exactly like trace.enabled: sites check it on
// the sampled (slow) path only, so flipping it never races with a
// sample in flight in a way that matters — a stale read means one
// sample is attributed to the old state.
var enabled atomic.Int32

// Enabled reports whether at least one attribution consumer is active.
func Enabled() bool { return enabled.Load() > 0 }

// Enable turns sampling on (refcounted).
func Enable() { enabled.Add(1) }

// Disable undoes one Enable.
func Disable() { enabled.Add(-1) }

// Sink accumulates samples for one strand. All mutation goes through
// the owning strand (single-writer); the atomic fields may be read
// concurrently by Profiler.Snapshot. The zero Sink is unusable — only
// NewProfiler hands them out.
type Sink struct {
	_ [64]byte // keep neighbouring allocations off this line

	// Owner-only plain state (hot: touched every instrumented
	// occurrence).
	countdown int64
	period    int64
	rng       uint64
	biasNS    int64
	start     time.Time

	_ [64]byte

	// Totals: owner-written, concurrently readable.
	samples   [NumComponents]atomic.Uint64
	sampledNS [NumComponents]atomic.Uint64
	hist      [NumComponents][Buckets]atomic.Uint64

	_ [64]byte
}

// Begin starts a sampled timing window. It returns 0 when this
// occurrence is not sampled (the overwhelmingly common case: one
// decrement and one branch) and a nonzero monotonic timestamp when it
// is. Nil-safe: a nil Sink always returns 0.
//
//go:nosplit
func (s *Sink) Begin() int64 {
	if s == nil {
		return 0
	}
	s.countdown--
	if s.countdown > 0 {
		return 0
	}
	return s.beginSlow()
}

// beginSlow re-arms the countdown and, if attribution is enabled,
// opens a timing window. Kept out of Begin so the common path inlines.
func (s *Sink) beginSlow() int64 {
	// Jittered re-arm in [period/2, 3·period/2): xorshift64.
	r := s.rng
	r ^= r << 13
	r ^= r >> 7
	r ^= r << 17
	s.rng = r
	s.countdown = s.period/2 + int64(r%uint64(s.period))
	if enabled.Load() <= 0 {
		return 0
	}
	now := time.Since(s.start).Nanoseconds()
	if now == 0 {
		now = 1 // 0 is the "not sampling" sentinel
	}
	return now
}

// End closes a timing window opened by Begin, attributing the elapsed
// time to component c. A zero t0 (not sampled, or nil sink) is a no-op
// and must be checked before touching the receiver.
func (s *Sink) End(c Component, t0 int64) {
	if t0 != 0 {
		s.lap(c, t0)
	}
}

// Lap attributes the segment since t0 to component c and returns a
// fresh timestamp, letting consecutive Lap calls tile a slow path into
// disjoint component windows with one clock read per boundary. Returns
// 0 (propagating "not sampled") when t0 is 0.
func (s *Sink) Lap(c Component, t0 int64) int64 {
	if t0 == 0 {
		return 0
	}
	return s.lap(c, t0)
}

// lap is the sampled half of Lap and End, kept out of them so the
// unsampled test inlines into the barriers.
//
//go:nosplit
func (s *Sink) lap(c Component, t0 int64) int64 {
	now := time.Since(s.start).Nanoseconds()
	s.record(c, now-t0)
	if now == 0 {
		now = 1
	}
	return now
}

func (s *Sink) record(c Component, d int64) {
	d -= s.biasNS
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d))
	if b >= Buckets {
		b = Buckets - 1
	}
	// Owner-only writes: Load+Store is race-free here and keeps the
	// fields atomically readable for concurrent Snapshot callers.
	s.samples[c].Store(s.samples[c].Load() + 1)
	s.sampledNS[c].Store(s.sampledNS[c].Load() + uint64(d))
	s.hist[c][b].Store(s.hist[c][b].Load() + 1)
}

// Profiler owns one Sink per worker plus one for the collector, the
// same layout as trace.Tracer's rings. A nil *Profiler is a valid
// "attribution off" value everywhere: Sink() returns nil sinks, whose
// Begin returns 0.
type Profiler struct {
	sinks  []*Sink
	period int64
	biasNS int64
	start  time.Time
}

// NewProfiler builds a profiler for procs workers (plus the collector
// sink) sampling 1 in period occurrences; period <= 0 selects
// DefaultPeriod. The timer bias is calibrated here, once.
func NewProfiler(procs int, period int64) *Profiler {
	if period <= 0 {
		period = DefaultPeriod
	}
	p := &Profiler{period: period, start: time.Now()}
	p.biasNS = calibrateBias(p.start)
	p.sinks = make([]*Sink, procs+1)
	for i := range p.sinks {
		p.sinks[i] = &Sink{
			period: period,
			// Stagger initial countdowns so workers don't sample in
			// lockstep at startup.
			countdown: period/2 + int64(i)*(period/int64(len(p.sinks))+1),
			rng:       uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
			biasNS:    p.biasNS,
			start:     p.start,
		}
	}
	return p
}

// calibrateBias measures the cost of the Begin/End clock-read pair by
// taking the minimum over a burst of back-to-back reads (minimum, not
// mean: interrupts only ever inflate).
func calibrateBias(start time.Time) int64 {
	best := int64(1 << 30)
	for i := 0; i < 256; i++ {
		t0 := time.Since(start).Nanoseconds()
		t1 := time.Since(start).Nanoseconds()
		if d := t1 - t0; d < best {
			best = d
		}
	}
	if best < 0 || best == 1<<30 {
		best = 0
	}
	return best
}

// Period returns the sampling period.
func (p *Profiler) Period() int64 {
	if p == nil {
		return 0
	}
	return p.period
}

// BiasNS returns the calibrated per-sample timer bias.
func (p *Profiler) BiasNS() int64 {
	if p == nil {
		return 0
	}
	return p.biasNS
}

// Sink returns worker i's sink, or nil when the profiler is nil or i
// is out of range — callers store the result unconditionally.
func (p *Profiler) Sink(i int) *Sink {
	if p == nil || i < 0 || i >= len(p.sinks)-1 {
		return nil
	}
	return p.sinks[i]
}

// CollectorSink returns the sink owned by the concurrent collector.
func (p *Profiler) CollectorSink() *Sink {
	if p == nil {
		return nil
	}
	return p.sinks[len(p.sinks)-1]
}

// Snapshot is one coherent-enough aggregate view of all sinks: totals
// are summed with atomic loads, so a snapshot taken mid-run can be mid
// sample on some strand but never torn within a field.
type Snapshot struct {
	Period  int64                          `json:"period"`
	BiasNS  int64                          `json:"bias_ns"`
	Samples [NumComponents]uint64          `json:"-"`
	NS      [NumComponents]uint64          `json:"-"`
	Hist    [NumComponents][Buckets]uint64 `json:"-"`

	// Components is the JSON-facing view: slug → {samples, sampled
	// ns, estimated total ns}, populated by Snapshot.
	Components map[string]ComponentStats `json:"components"`
}

// ComponentStats is one component's aggregate in a Snapshot.
type ComponentStats struct {
	Samples   uint64   `json:"samples"`
	SampledNS uint64   `json:"sampled_ns"`
	EstNS     uint64   `json:"est_ns"` // SampledNS × period
	Hist      []uint64 `json:"hist,omitempty"`
}

// Snapshot aggregates all sinks. Safe to call concurrently with
// sampling (this is the read side of the single-writer discipline).
func (p *Profiler) Snapshot() *Snapshot {
	if p == nil {
		return nil
	}
	snap := &Snapshot{Period: p.period, BiasNS: p.biasNS, Components: map[string]ComponentStats{}}
	for _, s := range p.sinks {
		for c := Component(0); c < NumComponents; c++ {
			snap.Samples[c] += s.samples[c].Load()
			snap.NS[c] += s.sampledNS[c].Load()
			for b := 0; b < Buckets; b++ {
				snap.Hist[c][b] += s.hist[c][b].Load()
			}
		}
	}
	for c := Component(0); c < NumComponents; c++ {
		if snap.Samples[c] == 0 {
			continue
		}
		cs := ComponentStats{
			Samples:   snap.Samples[c],
			SampledNS: snap.NS[c],
			EstNS:     snap.NS[c] * uint64(p.period),
		}
		for b := Buckets - 1; b >= 0; b-- {
			if snap.Hist[c][b] != 0 {
				cs.Hist = append([]uint64{}, snap.Hist[c][:b+1]...)
				break
			}
		}
		snap.Components[c.Slug()] = cs
	}
	return snap
}

// EstNS returns the estimated total cost of component c in snap
// (sampled ns scaled by the period).
func (snap *Snapshot) EstNS(c Component) uint64 {
	return snap.NS[c] * uint64(snap.Period)
}

// TotalEstNS sums the estimated cost over every component.
func (snap *Snapshot) TotalEstNS() uint64 {
	var t uint64
	for c := Component(0); c < NumComponents; c++ {
		t += snap.EstNS(c)
	}
	return t
}
