package hierarchy

import (
	"runtime"
	"sync/atomic"

	"mplgo/internal/chaos"
)

// Gate is the per-heap collection gate that replaced Heap.Mu: a seqlock-
// style collection epoch fused with a reader count in one atomic word.
//
//	bit   0       collecting — odd epoch: an LGC (or merge) is relocating
//	              or re-owning this heap's objects right now
//	bits  2..31   readers — entanglement slow paths currently pinning or
//	              validating objects of this heap (bit 1 spare)
//	bits 32..63   epoch — completed collections/merges of this heap
//
// Readers never block each other: entering is one atomic add (plus an undo
// add in the rare case a collection is underway). A collector publishes the
// odd epoch and waits for the reader count to drain; reader critical
// sections are a handful of instructions, so the wait is bounded and short.
// This reproduces MPL's lock-free pin/collect coordination: the per-object
// decisions are made by single-CAS header transitions (package mem), and
// the gate only orders the bulk phases — chunk release and ownership flips
// — against in-flight pins.
type Gate struct {
	state atomic.Uint64

	// Chaos, when set, injects spurious contention at EnterReader
	// (chaos.GateAcquire): the reader backs off once as if a collection
	// were underway, exercising the undo-and-reenter path that real runs
	// take only when a collection races the entanglement slow path.
	Chaos *chaos.Injector
}

const (
	gateCollecting = uint64(1) << 0
	gateReader     = uint64(1) << 2
	gateReaderMask = uint64(1)<<32 - 1 - 3 // bits 2..31
	gateEpoch      = uint64(1) << 32
)

// EnterReader announces an entanglement slow path against this heap and
// returns once no collection is relocating it. While the caller holds the
// gate (until ExitReader), the heap's chunks cannot change ownership and
// its objects cannot be relocated or reclaimed.
func (g *Gate) EnterReader() {
	spurious := g.Chaos != nil && g.Chaos.Should(chaos.GateAcquire)
	for {
		s := g.state.Add(gateReader)
		if s&gateCollecting == 0 {
			if spurious {
				// Injected contention: undo the announcement, yield, and
				// re-enter, exactly as if a collection had flashed by.
				spurious = false
				g.state.Add(^(gateReader - 1))
				runtime.Gosched()
				continue
			}
			return
		}
		// A collection is underway: undo the announcement and wait for the
		// epoch to turn even. Gosched rather than spinning hard: on small
		// GOMAXPROCS the collector may need this very thread to progress.
		g.state.Add(^(gateReader - 1))
		for g.state.Load()&gateCollecting != 0 {
			runtime.Gosched()
		}
	}
}

// ExitReader ends the announcement made by EnterReader.
func (g *Gate) ExitReader() {
	g.state.Add(^(gateReader - 1))
}

// TryBeginCollect publishes the odd epoch (collection in progress) and
// waits for announced readers to drain, or returns false at once if another
// collector holds the gate. The concurrent collector (gc.CGC) uses it: its
// cycles are opportunistic, and a heap whose gate is busy (a merge retiring
// it, say) is simply skipped this cycle. After it returns true, no
// entanglement slow path can pin, publish, or validate against this heap
// until EndCollect.
func (g *Gate) TryBeginCollect() bool {
	for {
		s := g.state.Load()
		if s&gateCollecting != 0 {
			return false
		}
		if g.state.CompareAndSwap(s, s|gateCollecting) {
			break
		}
	}
	// Drain announced readers. New arrivals see the collecting bit and
	// back off, so the count is monotonically draining.
	for g.state.Load()&gateReaderMask != 0 {
		runtime.Gosched()
	}
	return true
}

// WaitBeginCollect acquires the gate like TryBeginCollect but waits out a
// concurrent holder. Local collections and merges use it: only the heap's
// owning task collects or merges it, but the concurrent collector may
// briefly hold the gate (root harvest, sweep), and the owner waits that
// bounded critical section out.
func (g *Gate) WaitBeginCollect() {
	for !g.TryBeginCollect() {
		runtime.Gosched()
	}
}

// EndCollect publishes the next even epoch, re-admitting readers. The
// single add clears the collecting bit (set by the Begin call, so the -1
// cannot borrow) and the carry increments the epoch field; transient
// reader announcements that are about to back off are preserved exactly.
func (g *Gate) EndCollect() {
	if g.state.Load()&gateCollecting == 0 {
		panic("hierarchy: EndCollect on a gate no collector holds")
	}
	g.state.Add(gateEpoch - 1)
}

// Epoch returns the number of completed collections/merges of this heap.
func (g *Gate) Epoch() uint64 { return g.state.Load() >> 32 }

// Readers returns the number of announced readers currently inside the
// gate. Used by the invariant checker: at quiescent points it must be zero.
func (g *Gate) Readers() int { return int((g.state.Load() & gateReaderMask) >> 2) }

// Collecting reports whether the heap is currently being relocated.
func (g *Gate) Collecting() bool { return g.state.Load()&gateCollecting != 0 }
