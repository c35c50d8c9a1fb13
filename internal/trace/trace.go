// Package trace is the runtime's observability spine: per-worker
// lock-free event rings recording fixed-size binary events — forks,
// joins, steals, collection phases, entanglement slow paths, pins and
// unpins, heap merges, chunk release/reuse — each stamped with a worker
// id, a task depth, and a monotonic timestamp.
//
// The design constraints mirror internal/chaos: the disabled path must
// cost nothing measurable and must never require a nil check the caller
// cannot afford. Every instrumentation site is written
//
//	if r := t.ring; r != nil { r.Emit(...) }
//
// so an untraced runtime (nil rings everywhere) pays one pointer test,
// and a runtime with rings installed but tracing off pays one additional
// atomic load inside Emit (the global enabled gate). Timing experiments
// install no tracer at all, so their fast paths are byte-identical to the
// pre-trace runtime.
//
// Concurrency model. Each ring has exactly one writer: the worker
// goroutine it was handed to (tasks never migrate between workers, and a
// helping join runs stolen items on the helper's own goroutine, against
// the helper's own ring). The concurrent-collector worker gets a ring of
// its own (index P). Readers (Snapshot) may run at any time, including
// mid-write: every slot word is an atomic uint64 and the ring's sequence
// counter is published after the slot words, so a reader can detect and
// drop the (at most one lap of) slots a concurrent writer may be
// overwriting — see Ring.Snapshot.
package trace

import (
	"sync/atomic"
	"time"
)

// Kind identifies one event type. The zero value is reserved so a torn
// or never-written slot can never alias a real event kind.
type Kind uint8

const (
	EvNone          Kind = iota
	EvFork               // arg1 = left child heap id, arg2 = right child heap id
	EvJoin               // arg1 = merged-into heap id
	EvSteal              // arg1 = victim worker id
	EvLGCBegin           // arg1 = heap id
	EvLGCEnd             // arg1 = copied words, arg2 = reclaimed words
	EvCGCCycleBegin      // arg1 = heaps in scope
	EvCGCCycleEnd        // arg1 = freed words, arg2 = 1 when the cycle was abandoned
	EvCGCMarkBegin       // (no args)
	EvCGCMarkEnd         // arg1 = objects marked
	EvCGCSweepBegin      // (no args)
	EvCGCSweepEnd        // arg1 = chunks released, arg2 = chunks retained
	EvSlowRead           // arg1 = holder ref bits
	EvEntangledRead      // arg1 = target ref bits, arg2 = unpin depth
	EvPin                // arg1 = target ref bits, arg2 = unpin depth
	EvUnpin              // arg1 = target ref bits
	EvHeapMerge          // arg1 = child heap id, arg2 = parent heap id
	EvChunkRelease       // arg1 = chunk id, arg2 = chunk words
	EvChunkReuse         // arg1 = chunk id, arg2 = free-list words handed back
	EvCounter            // arg1 = Counter id, arg2 = sampled value
	evKinds              // sentinel: number of kinds
)

var kindNames = [evKinds]string{
	EvNone:          "none",
	EvFork:          "fork",
	EvJoin:          "join",
	EvSteal:         "steal",
	EvLGCBegin:      "lgc_begin",
	EvLGCEnd:        "lgc_end",
	EvCGCCycleBegin: "cgc_cycle_begin",
	EvCGCCycleEnd:   "cgc_cycle_end",
	EvCGCMarkBegin:  "cgc_mark_begin",
	EvCGCMarkEnd:    "cgc_mark_end",
	EvCGCSweepBegin: "cgc_sweep_begin",
	EvCGCSweepEnd:   "cgc_sweep_end",
	EvSlowRead:      "slow_read",
	EvEntangledRead: "entangled_read",
	EvPin:           "pin",
	EvUnpin:         "unpin",
	EvHeapMerge:     "heap_merge",
	EvChunkRelease:  "chunk_release",
	EvChunkReuse:    "chunk_reuse",
	EvCounter:       "counter",
}

func (k Kind) String() string {
	if k < evKinds {
		return kindNames[k]
	}
	return "invalid"
}

// KindFromName resolves an event name back to its Kind (the summarizer
// round-trips events through the exporter's JSON). Returns EvNone, false
// for unknown names.
func KindFromName(name string) (Kind, bool) {
	for k := Kind(1); k < evKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return EvNone, false
}

// Count is one of the runtime's event counts, a row of Counts: tallied on
// the running leaf (hierarchy.Tally) and drained into one shared total
// (hierarchy.Totals), which /metrics, the trace and mplgo -stats read by
// looping over the table. A new count is a constant, its row and its
// increment site.
type Count uint8

const (
	// Queries that reached the ancestry oracle (Relate misses, a third-party
	// writer's LCADepth); child heaps released whole when their branches
	// returned, and their words.
	AncestryQueries Count = iota
	HeapsDropped
	DroppedWords
	DownPointers
	Candidates
	EntangledReads
	EntangledWrites
	SlowReads
	// PinHeader's outcomes in mem.PinStatus order from PinNew (a fresh pin),
	// so outcome st counts at Pins+Count(st); then the CASes it lost.
	Pins
	PinDepthLowered
	PinAlready
	PinBusy
	PinForwarded
	PinRetries
	ElidedLoads // accesses and allocations through core's *Fast accessors
	ElidedStores
	ElidedAllocs
	NumCounts
)

// CountRow describes a count: its layer (the package whose event it counts,
// which groups /metrics and mplgo -stats), its name (its trace counter
// track, and the stem of its /metrics name), its /metrics help text (a row
// without one is not exported; every count is a monotone total, so a
// Prometheus counter) and whether collections and joins trace it.
type CountRow struct {
	Layer, Name, Help string
	Traced            bool
}

// Counts is the table of the runtime's event counts, indexed by Count.
var Counts = [NumCounts]CountRow{
	AncestryQueries: {Layer: "hierarchy", Name: "ancestry_queries", Traced: true},
	HeapsDropped:    {Layer: "hierarchy", Name: "heaps_dropped", Help: "Child heaps released whole when their branches returned", Traced: true},
	DroppedWords:    {Layer: "hierarchy", Name: "dropped_words", Help: "Chunk words released by dropped child heaps", Traced: true},
	DownPointers:    {Layer: "entangle", Name: "down_pointers", Help: "Down-pointer stores seen by the write barrier, recorded or already remembered"},
	Candidates:      {Layer: "entangle", Name: "candidates", Help: "Objects marked as entanglement candidates"},
	EntangledReads:  {Layer: "entangle", Name: "entangled_reads", Help: "Reads proven entangled"},
	EntangledWrites: {Layer: "entangle", Name: "entangled_writes", Help: "Writes proven entangled"},
	SlowReads:       {Layer: "entangle", Name: "slow_reads", Help: "Read-barrier slow paths taken"},
	Pins:            {Layer: "entangle", Name: "pins", Help: "Objects pinned"},
	PinDepthLowered: {Layer: "mem", Name: "pin_cas_depth_lowered"},
	PinAlready:      {Layer: "mem", Name: "pin_cas_already"},
	PinBusy:         {Layer: "mem", Name: "pin_cas_busy"},
	PinForwarded:    {Layer: "mem", Name: "pin_cas_forwarded"},
	PinRetries:      {Layer: "mem", Name: "pin_cas_retries"},
	ElidedLoads:     {Layer: "core", Name: "elided_loads", Traced: true},
	ElidedStores:    {Layer: "core", Name: "elided_stores", Traced: true},
	ElidedAllocs:    {Layer: "core", Name: "elided_allocs"},
}

// Counter returns the count's counter-track id.
func (c Count) Counter() Counter { return CtrCountFirst + Counter(c) }

// Counter identifies one sampled gauge carried by EvCounter events. The
// exporter renders each as its own Chrome counter track.
type Counter uint8

const (
	CtrPinnedBytes Counter = iota
	CtrPinnedPeakBytes
	CtrLiveWords
	CtrRetainedChunks
	// The number of statically-proven disentangled regions (constant over a
	// run), beside the elided-access counts.
	CtrStaticRegions
	// Serving telemetry (internal/serve): cumulative admission outcomes
	// and the concurrency-token gauge, sampled per dispatch batch so a
	// trace of an overloaded run shows shed storms and deadline clusters
	// on the same timeline as the GC and entanglement events.
	CtrRequestsAdmitted
	CtrRequestsShed
	CtrDeadlineExceeded
	CtrTokensInUse
	// Experiment-grid identity (cmd/mplgo-paper): a traced grid-cell run
	// emits one event of each at the root task's start — the cell's id
	// hash and its per-experiment seed — so a Chrome export of a paper
	// run is attributable to the exact grid cell that produced it.
	CtrGridCell
	CtrGridSeed
	// Cost-attribution flush (internal/attr): per-component estimated
	// total ns and raw sample count, two counters per component laid out
	// in attr.Component order starting at CtrAttrFirst — attr computes
	// the ids by offset (CtrAttrFirst + 2·component [+1 for the sample
	// count]) and a test over there pins the alignment. CtrAttrPeriod
	// carries the sampling period; CtrAttrRunWallNS/CtrAttrSeqWallNS
	// carry the attributed run's wall time and the sequential baseline
	// so the summarizer can express components as a share of the
	// T1−Tseq gap without re-running anything.
	CtrAttrPinCASNS
	CtrAttrPinCASN
	CtrAttrPinRetryNS
	CtrAttrPinRetryN
	CtrAttrGateEnterNS
	CtrAttrGateEnterN
	CtrAttrGateExitNS
	CtrAttrGateExitN
	CtrAttrRemsetPublishNS
	CtrAttrRemsetPublishN
	CtrAttrAncestryQueryNS
	CtrAttrAncestryQueryN
	CtrAttrUnpinAtJoinNS
	CtrAttrUnpinAtJoinN
	CtrAttrShadeQueueNS
	CtrAttrShadeQueueN
	CtrAttrBudgetPollNS
	CtrAttrBudgetPollN
	CtrAttrStealLoopNS
	CtrAttrStealLoopN
	CtrAttrMergeWaitNS
	CtrAttrMergeWaitN
	CtrAttrPeriod
	CtrAttrRunWallNS
	CtrAttrSeqWallNS
	// The event counts, one track per Count in Count order (Count.Counter),
	// named by their rows.
	CtrCountFirst
)

// ctrCounters is the number of counter ids.
const ctrCounters = CtrCountFirst + Counter(NumCounts)

// CtrAttrFirst is the base of the attribution counter block (see the
// comment above CtrAttrPinCASNS).
const CtrAttrFirst = CtrAttrPinCASNS

var counterNames = [CtrCountFirst]string{
	CtrPinnedBytes:      "pinned_bytes",
	CtrPinnedPeakBytes:  "pinned_peak_bytes",
	CtrLiveWords:        "live_words",
	CtrRetainedChunks:   "retained_chunks",
	CtrStaticRegions:    "static_regions",
	CtrRequestsAdmitted: "requests_admitted",
	CtrRequestsShed:     "requests_shed",
	CtrDeadlineExceeded: "requests_deadline_exceeded",
	CtrTokensInUse:      "tokens_in_use",
	CtrGridCell:         "grid_cell",
	CtrGridSeed:         "grid_seed",

	CtrAttrPinCASNS:        "attr_pin_cas_ns",
	CtrAttrPinCASN:         "attr_pin_cas_n",
	CtrAttrPinRetryNS:      "attr_pin_retry_ns",
	CtrAttrPinRetryN:       "attr_pin_retry_n",
	CtrAttrGateEnterNS:     "attr_gate_enter_ns",
	CtrAttrGateEnterN:      "attr_gate_enter_n",
	CtrAttrGateExitNS:      "attr_gate_exit_ns",
	CtrAttrGateExitN:       "attr_gate_exit_n",
	CtrAttrRemsetPublishNS: "attr_remset_publish_ns",
	CtrAttrRemsetPublishN:  "attr_remset_publish_n",
	CtrAttrAncestryQueryNS: "attr_ancestry_query_ns",
	CtrAttrAncestryQueryN:  "attr_ancestry_query_n",
	CtrAttrUnpinAtJoinNS:   "attr_unpin_at_join_ns",
	CtrAttrUnpinAtJoinN:    "attr_unpin_at_join_n",
	CtrAttrShadeQueueNS:    "attr_shade_queue_ns",
	CtrAttrShadeQueueN:     "attr_shade_queue_n",
	CtrAttrBudgetPollNS:    "attr_budget_poll_ns",
	CtrAttrBudgetPollN:     "attr_budget_poll_n",
	CtrAttrStealLoopNS:     "attr_steal_loop_ns",
	CtrAttrStealLoopN:      "attr_steal_loop_n",
	CtrAttrMergeWaitNS:     "attr_merge_wait_ns",
	CtrAttrMergeWaitN:      "attr_merge_wait_n",
	CtrAttrPeriod:          "attr_period",
	CtrAttrRunWallNS:       "attr_run_wall_ns",
	CtrAttrSeqWallNS:       "attr_seq_wall_ns",
}

func (c Counter) String() string {
	switch {
	case c < CtrCountFirst:
		return counterNames[c]
	case c < ctrCounters:
		return Counts[c-CtrCountFirst].Name
	}
	return "invalid"
}

// CounterFromName resolves a counter-track name back to its id.
func CounterFromName(name string) (Counter, bool) {
	for c := Counter(0); c < ctrCounters; c++ {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// Event is one decoded ring entry.
type Event struct {
	TS     int64 // nanoseconds since the tracer's start
	Arg1   uint64
	Arg2   uint64
	Kind   Kind
	Worker int32 // ring index: worker id, or P for the collector ring
	Depth  int32 // task heap depth at the emit site (0 when unknown)
}

// Ring slot geometry: each event is four atomic uint64 words —
// timestamp, arg1, arg2, and a packed kind|worker|depth word — so a
// snapshot racing a writer reads individually-consistent words and the
// sequence check below rejects the (rare) slot whose words span two
// events.
const slotWords = 4

// enabled is the global trace gate, checked with a single atomic load at
// the top of Emit. It is a refcount, not a flag: Enable/Disable nest, so
// a traced run inside a larger process (the bench harness's counter-
// series run) brackets itself without clobbering another tracer's state,
// and — more importantly — a *disabled* tracer left installed after a
// traced run costs exactly the same one load-and-branch as never tracing.
var enabled atomic.Int32

// Enabled reports whether tracing is globally on. Instrumentation sites
// reach this through Ring.Emit; it is exported for code that wants to
// skip building event arguments entirely when off.
func Enabled() bool { return enabled.Load() != 0 }

// Enable turns tracing on (refcounted; pair with Disable).
func Enable() { enabled.Add(1) }

// Disable undoes one Enable.
func Disable() {
	if enabled.Add(-1) < 0 {
		panic("trace: Disable without matching Enable")
	}
}

// Ring is one single-writer event ring. The pads keep the write-hot seq
// word and the slot array off any cache line shared with another ring in
// the tracer's slice (the same false-sharing discipline as
// entangle.Stats: every worker bumps its own seq on every traced event).
type Ring struct {
	_      [64]byte
	seq    atomic.Uint64 // events ever emitted; slot = (seq % slots) * slotWords
	_      [56]byte
	slots  []uint64 // len = slots*slotWords, every word accessed atomically
	mask   uint64   // slots - 1
	worker int32
	start  time.Time
}

// newRing creates a ring with the given power-of-two slot count.
func newRing(worker int32, slots int, start time.Time) *Ring {
	if slots&(slots-1) != 0 || slots == 0 {
		panic("trace: ring slots must be a power of two")
	}
	return &Ring{
		slots:  make([]uint64, slots*slotWords),
		mask:   uint64(slots - 1),
		worker: worker,
		start:  start,
	}
}

// packMeta packs kind, worker and depth into one word. Depth is clamped
// to 24 bits (a fork tree 16M deep would long since have overflowed the
// Go stack).
func packMeta(k Kind, worker int32, depth int32) uint64 {
	if depth < 0 {
		depth = 0
	}
	if depth >= 1<<24 {
		depth = 1<<24 - 1
	}
	return uint64(k) | uint64(uint32(worker))<<8 | uint64(depth)<<40
}

func unpackMeta(m uint64) (k Kind, worker int32, depth int32) {
	return Kind(m & 0xFF), int32(uint32(m>>8) & 0xFFFFFFFF), int32(m >> 40)
}

// Emit records one event. Nil-safe and gate-checked: a nil ring returns
// immediately (untraced runtime), and a non-nil ring with tracing off
// pays one atomic load. Must only be called from the ring's owning
// goroutine — the single-writer contract is what keeps the hot path at
// four plain-ordered atomic stores and one release store, with no CAS
// and no contention ever.
func (r *Ring) Emit(k Kind, depth int32, arg1, arg2 uint64) {
	if r == nil || enabled.Load() == 0 {
		return
	}
	ts := time.Since(r.start).Nanoseconds()
	s := r.seq.Load() // no other writer: a plain read of our own last store
	base := (s & r.mask) * slotWords
	atomic.StoreUint64(&r.slots[base+0], uint64(ts))
	atomic.StoreUint64(&r.slots[base+1], arg1)
	atomic.StoreUint64(&r.slots[base+2], arg2)
	atomic.StoreUint64(&r.slots[base+3], packMeta(k, r.worker, depth))
	r.seq.Store(s + 1) // publish: readers trust slots strictly below seq
}

// Len reports how many events have ever been emitted (not how many the
// ring still holds).
func (r *Ring) Len() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot decodes the ring's current contents, oldest first, without
// stopping the writer. At most slots-1 events are returned: slot j
// (event index j) is overwritten while the writer emits event j+slots,
// and the writer only publishes seq = j+slots *before* starting those
// stores — so a reader can trust a copied slot only while seq stays
// below j+slots. The oldest slot of a full ring can never satisfy that
// (seq == hi == j+slots leaves the writer possibly mid-overwrite), so
// the window starts one event later; slots lapped during the copy are
// likewise dropped rather than returned torn.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	n := uint64(len(r.slots)) / slotWords
	hi := r.seq.Load()
	lo := uint64(0)
	if hi >= n {
		lo = hi - n + 1
	}
	out := make([]Event, 0, hi-lo)
	for j := lo; j < hi; j++ {
		base := (j & r.mask) * slotWords
		ts := atomic.LoadUint64(&r.slots[base+0])
		a1 := atomic.LoadUint64(&r.slots[base+1])
		a2 := atomic.LoadUint64(&r.slots[base+2])
		meta := atomic.LoadUint64(&r.slots[base+3])
		if r.seq.Load() >= j+n {
			continue // the writer lapped this slot mid-copy; words may be torn
		}
		k, worker, depth := unpackMeta(meta)
		if k == EvNone || k >= evKinds {
			continue // slot never written (enable raced the run's first events)
		}
		out = append(out, Event{
			TS:     int64(ts),
			Arg1:   a1,
			Arg2:   a2,
			Kind:   k,
			Worker: worker,
			Depth:  depth,
		})
	}
	return out
}

// DefaultSlots is the per-ring capacity Tracers are built with unless
// the caller chooses otherwise: 64K events × 32 bytes = 2 MiB per worker,
// enough for several seconds of heavily entangled execution.
const DefaultSlots = 1 << 16

// Tracer owns the rings of one runtime instance: one per scheduler
// worker plus one (index P) for the concurrent-collector goroutine.
type Tracer struct {
	rings []*Ring
	start time.Time
}

// NewTracer creates a tracer for p workers (p+1 rings) with the given
// per-ring slot count (rounded down to a power of two; 0 means
// DefaultSlots). The tracer records relative timestamps from this call.
func NewTracer(p, slots int) *Tracer {
	if p < 1 {
		p = 1
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	for slots&(slots-1) != 0 {
		slots &= slots - 1 // clear lowest set bit until power of two...
	}
	if slots == 0 {
		slots = DefaultSlots
	}
	t := &Tracer{start: time.Now()}
	for i := 0; i <= p; i++ {
		t.rings = append(t.rings, newRing(int32(i), slots, t.start))
	}
	return t
}

// Workers returns the number of worker rings (excluding the collector
// ring).
func (t *Tracer) Workers() int {
	if t == nil {
		return 0
	}
	return len(t.rings) - 1
}

// Ring returns ring i: worker rings for i < Workers(), the collector
// ring at i == Workers(). Nil-safe and range-safe (nil result), so
// wiring code can hand rings out unconditionally.
func (t *Tracer) Ring(i int) *Ring {
	if t == nil || i < 0 || i >= len(t.rings) {
		return nil
	}
	return t.rings[i]
}

// CollectorRing returns the ring reserved for the concurrent collector.
func (t *Tracer) CollectorRing() *Ring { return t.Ring(t.Workers()) }

// Snapshot decodes every ring, indexed by ring number.
func (t *Tracer) Snapshot() [][]Event {
	if t == nil {
		return nil
	}
	out := make([][]Event, len(t.rings))
	for i, r := range t.rings {
		out[i] = r.Snapshot()
	}
	return out
}
