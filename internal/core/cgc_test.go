package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/internal/gc"
	"mplgo/internal/mem"
	"mplgo/internal/trace"
)

// Tests for the concurrent collector (gc.CGC) wired through the runtime:
// the server-style churn workload whose footprint the issue's acceptance
// criterion is stated over, the chaos soak with the CGC injection points
// armed, and the off-switch guard.

// cgcChurn is the server-style workload: a long-lived array in the root
// heap is repeatedly refreshed (the displaced tuples become root-heap
// garbage) while fork–join rounds run underneath it. Because the root task
// is parked under live children for the whole branch phase of every round,
// the root heap is internal exactly then — the only collector that can
// touch the accumulated garbage is the concurrent one. Returns a checksum
// of the live array for integrity checking. A non-nil live receives the
// residency at the start of each round.
func cgcChurn(t *Task, rounds, keep, garbage, branchWork int, live []int64) mem.Value {
	f := t.NewFrame(1)
	defer f.Pop()
	f.Set(0, t.AllocArray(keep, mem.Nil).Value())
	for r := 0; r < rounds; r++ {
		if live != nil {
			live[r] = t.rt.space.LiveWords()
		}
		// Refresh one slot: the overwritten tuple dies in the root heap.
		// During a marking cycle this store runs the SATB deletion barrier.
		slot := r % keep
		tup := t.AllocTuple(mem.Int(int64(r)), mem.Int(int64(slot)))
		t.Write(f.Ref(0), slot, tup.Value())
		// Per-round garbage in the root heap, dead before the fork below.
		for i := 0; i < garbage; i++ {
			t.AllocTuple(mem.Int(int64(i)), mem.Int(int64(r)))
		}
		// The fork–join round: branches allocate in child heaps; their
		// results are discarded, so the merged chunks are garbage the next
		// round's concurrent cycle can reclaim.
		t.Par(
			func(t *Task) mem.Value {
				var last mem.Ref
				for i := 0; i < branchWork; i++ {
					last = t.AllocTuple(mem.Int(int64(i)), mem.Int(1))
				}
				return last.Value()
			},
			func(t *Task) mem.Value {
				var last mem.Ref
				for i := 0; i < branchWork; i++ {
					last = t.AllocTuple(mem.Int(int64(i)), mem.Int(2))
				}
				return last.Value()
			},
		)
	}
	// Checksum the live state: every slot must still hold the tuple from
	// the round that last wrote it, concurrent sweeps notwithstanding. A
	// slot a sweep wrongly reclaimed shows up as a checksum mismatch
	// (never-written slots are Nil by construction when rounds < keep).
	var sum int64
	for i := 0; i < keep; i++ {
		if v := t.Read(f.Ref(0), i); v.IsRef() {
			sum += t.Read(v.Ref(), 0).AsInt()*int64(keep) + t.Read(v.Ref(), 1).AsInt()
		}
	}
	return mem.Int(sum)
}

// cgcChurnWant computes the expected checksum without running the runtime.
func cgcChurnWant(rounds, keep int) int64 {
	var sum int64
	last := make([]int, keep)
	for i := range last {
		last[i] = -1
	}
	for r := 0; r < rounds; r++ {
		last[r%keep] = r
	}
	for i, r := range last {
		if r >= 0 {
			sum += int64(r)*int64(keep) + int64(i)
		}
	}
	return sum
}

// TestCGCBoundedFootprint is the issue's acceptance soak: >=100 fork–join
// rounds against shared root-heap state with local collections disabled.
// Without CGC the footprint grows linearly in the number of rounds; with
// CGC on, concurrent cycles reclaim the internal root heap's garbage while
// the rounds run, and the residency stays well below the unreclaimed total.
// The statistic is the median of the residency sampled as each round starts,
// not the high-water mark: that records the single worst collector lag of a
// run (see TestCGCSteadyStateFootprint), and on a loaded machine one stall
// of the collector's goroutine drove it past half the CGC-off total in about
// one run in seven. A collector that sweeps nothing leaves every sample where
// the CGC-off run has it, so the median check still fails then. The checksum
// proves the live state survived the concurrent sweeps intact.
func TestCGCBoundedFootprint(t *testing.T) {
	const (
		rounds     = 120
		keep       = 64
		garbage    = 400
		branchWork = 20000
	)
	want := cgcChurnWant(rounds, keep)

	run := func(cgcOn bool) (median int64, rt *Runtime) {
		cfg := Config{Procs: 4, DisableGC: true, Seed: 11}
		if cgcOn {
			cfg.CGC = true
			cfg.CGCThresholdWords = 1 // collect whenever there is anything at all
		}
		rt = New(cfg)
		live := make([]int64, rounds)
		v, err := rt.Run(func(tk *Task) mem.Value {
			return cgcChurn(tk, rounds, keep, garbage, branchWork, live)
		})
		if err != nil {
			t.Fatalf("cgc=%v: %v", cgcOn, err)
		}
		if got := v.AsInt(); got != want {
			t.Fatalf("cgc=%v: checksum %d, want %d", cgcOn, got, want)
		}
		slices.Sort(live)
		return live[rounds/2], rt
	}

	offMedian, _ := run(false)
	onMedian, rt := run(true)

	cycles, freed, swept, retained, lastLive := rt.CGCStats()
	t.Logf("median residency: off=%d on=%d words; high-water on=%d; cycles=%d freed=%d swept=%d retained=%d lastLive=%d",
		offMedian, onMedian, rt.MaxLiveWords(), cycles, freed, swept, retained, lastLive)
	if cycles == 0 {
		t.Fatal("no concurrent cycles ran over 120 internal windows")
	}
	if freed == 0 && swept == 0 {
		t.Fatal("concurrent cycles reclaimed nothing (no freed words, no swept chunks)")
	}
	if onMedian*2 > offMedian {
		t.Fatalf("footprint not bounded: median residency %d words with CGC on vs %d off (want <= half)",
			onMedian, offMedian)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent collection: %v", err)
	}
}

// TestCGCSteadyStateFootprint is the CI footprint soak: the churn's max
// residency with CGC on must reach a steady state rather than grow with
// uptime. The CGC-off run at the same round count measures the linear
// baseline directly (footprint = accumulated garbage, deterministic, no
// collector pacing in it); the CGC-on run must stay at half of it or
// less, at a round count where the baseline is ~7x the steady state. If
// concurrent cycles silently stop claiming or fall behind, on converges
// to off and the check fails unambiguously. The off runs also validate
// the detector itself: without CGC the footprint really is linear in the
// rounds, so "on stays flat" is a property of the collector, not of the
// workload. A raw on(60)-vs-on(240) ratio was tried first and flaked:
// the high-water mark records the single worst collector lag of a run,
// and longer runs have more chances to hit one.
func TestCGCSteadyStateFootprint(t *testing.T) {
	const (
		keep       = 32
		garbage    = 300
		branchWork = 6000
	)
	run := func(rounds int, cgcOn bool) int64 {
		cfg := Config{Procs: 4, DisableGC: true, Seed: 17}
		if cgcOn {
			cfg.CGC = true
			cfg.CGCThresholdWords = 1
		}
		rt := New(cfg)
		want := cgcChurnWant(rounds, keep)
		v, err := rt.Run(func(tk *Task) mem.Value {
			return cgcChurn(tk, rounds, keep, garbage, branchWork, nil)
		})
		if err != nil {
			t.Fatalf("rounds=%d cgc=%v: %v", rounds, cgcOn, err)
		}
		if got := v.AsInt(); got != want {
			t.Fatalf("rounds=%d cgc=%v: checksum %d, want %d", rounds, cgcOn, got, want)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Fatalf("rounds=%d cgc=%v: invariants: %v", rounds, cgcOn, err)
		}
		return rt.MaxLiveWords()
	}
	offShort := run(60, false)
	offLong := run(240, false)
	onLong := run(240, true)
	t.Logf("footprint: off(60)=%d off(240)=%d on(240)=%d words", offShort, offLong, onLong)
	if offLong < offShort*2 {
		t.Fatalf("workload no longer grows without CGC (off: %d at 60 rounds, %d at 240); "+
			"the steady-state check below would be vacuous", offShort, offLong)
	}
	if onLong*2 > offLong {
		t.Fatalf("footprint grows with uptime: %d words at 240 rounds with CGC on vs %d off "+
			"(want <= half)", onLong, offLong)
	}
}

// TestCGCOffIsFree: with Config.CGC unset no collector is allocated, no
// aux worker runs, and the per-task hooks stay behind one cached branch.
func TestCGCOffIsFree(t *testing.T) {
	rt := New(Config{Procs: 2})
	if rt.cgc != nil {
		t.Fatal("concurrent collector allocated with CGC unset")
	}
	if rt.pool.Aux != nil {
		t.Fatal("aux worker installed with CGC unset")
	}
	if _, err := rt.Run(func(tk *Task) mem.Value {
		return cgcChurn(tk, 10, 8, 50, 50, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if c, f, s, r, l := rt.CGCStats(); c|f|s|r|l != 0 {
		t.Fatalf("CGCStats nonzero with CGC off: %d %d %d %d %d", c, f, s, r, l)
	}
}

// TestCGCWithLocalGC runs the churn with both collectors enabled: local
// collections of leaf heaps defer behind concurrent cycles (cgcExcl) and
// vice versa, and both must agree on the surviving state.
func TestCGCWithLocalGC(t *testing.T) {
	const rounds, keep = 100, 32
	want := cgcChurnWant(rounds, keep)
	rt := New(Config{
		Procs:             4,
		HeapBudgetWords:   1024, // frequent local collections
		CGC:               true,
		CGCThresholdWords: 1,
		Seed:              7,
	})
	v, err := rt.Run(func(tk *Task) mem.Value {
		return cgcChurn(tk, rounds, keep, 200, 400, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.AsInt(); got != want {
		t.Fatalf("checksum %d, want %d", got, want)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestChaosCGCSoak layers the fault-injection preset — now including the
// CGCMark / CGCSweep / CGCShade points — over the entangled random
// workloads with the concurrent collector on. Named TestChaos* so the CI
// chaos job's -run filter picks it up. Correctness is checked against an
// injection-free P=1 run, and Run's strict audit (enabled by Chaos) must
// pass with concurrent cycles having run underneath the workload.
func TestChaosCGCSoak(t *testing.T) {
	const depth = 7
	opts := chaos.Soak()
	for _, seed := range chaosSeeds(t) {
		prog := randomProgram(uint64(seed)+300, depth, true)
		var want int64
		{
			rt := New(Config{Procs: 1})
			v, err := rt.Run(prog)
			if err != nil {
				t.Fatalf("seed %d: baseline run failed: %v", seed, err)
			}
			want = v.AsInt()
		}
		cfg := Config{Procs: 4, HeapBudgetWords: 2048, Seed: seed, Chaos: &opts,
			CGC: true, CGCThresholdWords: 1}
		rt := New(cfg)
		v, err := rt.Run(prog)
		if err != nil {
			dumpChaosFailure(t, rt, seed, cfg, err)
			t.Fatalf("seed %d %+v: %v\n%s", seed, cfg, err, rt.ChaosReport())
		}
		if v.AsInt() != want {
			dumpChaosFailure(t, rt, seed, cfg,
				fmt.Errorf("result %d, want %d", v.AsInt(), want))
			t.Fatalf("seed %d %+v: result %d, want %d\n%s",
				seed, cfg, v.AsInt(), want, rt.ChaosReport())
		}
		if s := rt.EntStats(); s.Pins != s.Unpins {
			dumpChaosFailure(t, rt, seed, cfg,
				fmt.Errorf("pins %d != unpins %d", s.Pins, s.Unpins))
			t.Fatalf("seed %d %+v: pins %d != unpins %d", seed, cfg, s.Pins, s.Unpins)
		}
	}
}

// TestChaosCGCChurn puts the deterministic-footprint workload itself under
// chaos with CGC on: SATB shades, mark steps, and sweep steps all yield at
// injected points while the checksum must still come out right.
func TestChaosCGCChurn(t *testing.T) {
	const rounds, keep = 60, 16
	want := cgcChurnWant(rounds, keep)
	opts := chaos.Soak()
	for _, seed := range chaosSeeds(t) {
		cfg := Config{
			Procs: 4, HeapBudgetWords: 1024, Seed: seed, Chaos: &opts,
			CGC: true, CGCThresholdWords: 1,
		}
		rt := New(cfg)
		v, err := rt.Run(func(tk *Task) mem.Value {
			return cgcChurn(tk, rounds, keep, 100, 200, nil)
		})
		if err != nil {
			dumpChaosFailure(t, rt, seed, cfg, err)
			t.Fatalf("seed %d: %v\n%s", seed, err, rt.ChaosReport())
		}
		if got := v.AsInt(); got != want {
			dumpChaosFailure(t, rt, seed, cfg, fmt.Errorf("checksum %d, want %d", got, want))
			t.Fatalf("seed %d: checksum %d, want %d\n%s", seed, got, want, rt.ChaosReport())
		}
	}
}

// TestCollectorTotalsSumTheirResults: GCStats and CGCStats, which read the
// tree's table, are the sums of what each local collection and each
// concurrent cycle reported over a run. The local collections' results are
// read off their trace events (lgc_end carries the copied and reclaimed
// words); the cycles are run by hand, with the root parked in a Par, while
// the left branch passes safepoints, and the right branch collects with a
// live list framed. Each round leaves a dropped list in the root heap for
// the next cycle to sweep, beside a live tuple that keeps its chunk.
func TestCollectorTotalsSumTheirResults(t *testing.T) {
	const slots = 1 << 16
	tracer := trace.NewTracer(1, slots)
	rt := New(Config{Procs: 1, HeapBudgetWords: 1 << 14, CGC: true, CGCThresholdWords: 1 << 40, Tracer: tracer})
	var want gc.CGCResult
	var cycles int64
	trace.Enable()
	_, err := rt.Run(func(tk *Task) mem.Value {
		f := tk.NewFrame(2)
		defer f.Pop()
		for round := 0; round < 4; round++ {
			for i := 0; i < 1000; i++ {
				f.Set(0, tk.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
			}
			f.Set(0, mem.Nil)
			f.Set(1, tk.AllocTuple(mem.Int(int64(round)), f.Get(1)).Value())
			tk.Par(
				func(t *Task) mem.Value {
					done := make(chan gc.CGCResult, 1)
					go func() {
						rt.cgcExcl.Lock()
						defer rt.cgcExcl.Unlock()
						done <- rt.cgc.RunCycle(rt, func() bool { return false })
					}()
					for {
						select {
						case res := <-done:
							if res.ScopeHeaps > 0 && !res.Aborted {
								cycles++
								want.FreedWords += res.FreedWords
								want.SweptChunks += res.SweptChunks
								want.RetainedChunks += res.RetainedChunks
							}
							return mem.Nil
						default:
							t.cgcSafepoint()
							runtime.Gosched()
						}
					}
				},
				func(t *Task) mem.Value {
					rf := t.NewFrame(1)
					defer rf.Pop()
					for i := 0; i < 100; i++ {
						rf.Set(0, t.AllocTuple(mem.Int(int64(i)), rf.Get(0)).Value())
					}
					churn(t, 1<<13)
					return mem.Nil
				},
			)
		}
		return mem.Nil
	})
	trace.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if n := tracer.Ring(0).Len(); n >= slots {
		t.Fatalf("the worker's ring lapped: %d events in %d slots", n, slots)
	}
	var collections, copied, reclaimed int64
	for _, ev := range tracer.Ring(0).Snapshot() {
		if ev.Kind == trace.EvLGCEnd {
			collections++
			copied += int64(ev.Arg1)
			reclaimed += int64(ev.Arg2)
		}
	}
	if c, cw, rw := rt.GCStats(); c != collections || cw != copied || rw != reclaimed {
		t.Errorf("GCStats = %d collections, %d copied, %d reclaimed; the collections reported %d, %d, %d",
			c, cw, rw, collections, copied, reclaimed)
	}
	c, freed, swept, retained, _ := rt.CGCStats()
	if c != cycles || freed != want.FreedWords || swept != int64(want.SweptChunks) || retained != int64(want.RetainedChunks) {
		t.Errorf("CGCStats = %d cycles, %d freed, %d swept, %d retained; the cycles reported %d, %d, %d, %d",
			c, freed, swept, retained, cycles, want.FreedWords, want.SweptChunks, want.RetainedChunks)
	}
	if collections == 0 || copied == 0 || reclaimed == 0 || cycles == 0 || want.FreedWords == 0 ||
		want.SweptChunks == 0 || want.RetainedChunks == 0 {
		t.Errorf("the run moved too little to compare: %d collections, %d copied, %d reclaimed, %d cycles, %+v",
			collections, copied, reclaimed, cycles, want)
	}
}

// TestSweptChunkIsNotTenured: a chunk the concurrent sweep threads a free
// list through is no longer dense, so it is not kept as a survivor. The
// root heap's collection leaves two interleaved lists in Tenured chunks, one
// list dies, and a cycle run while the root is parked under a fork sweeps
// the holes into free lists. Every swept chunk comes out of the cycle
// without tenure, and the root's next collection copies the live list out
// of it and releases it.
func TestSweptChunkIsNotTenured(t *testing.T) {
	rt := New(Config{Procs: 1, HeapBudgetWords: 1 << 20, CGC: true, CGCThresholdWords: 1 << 40})
	const cells = 1000
	_, err := rt.Run(func(tk *Task) mem.Value {
		f := tk.NewFrame(2)
		defer f.Pop()
		for i := 0; i < cells; i++ {
			f.Set(0, tk.AllocTuple(mem.Int(int64(i)), f.Get(0)).Value())
			f.Set(1, tk.AllocTuple(mem.Int(-int64(i)), f.Get(1)).Value())
		}
		tk.collectNow()
		var tenured []*mem.Chunk
		for _, c := range tk.heap.Chunks {
			if c.Tenured {
				tenured = append(tenured, c)
			}
		}
		f.Set(1, mem.Nil) // every other cell of the Tenured chunks dies
		tk.Par(
			func(t *Task) mem.Value {
				done := make(chan gc.CGCResult, 1)
				go func() {
					rt.cgcExcl.Lock()
					defer rt.cgcExcl.Unlock()
					done <- rt.cgc.RunCycle(rt, func() bool { return false })
				}()
				for {
					select {
					case <-done:
						return mem.Nil
					default:
						t.cgcSafepoint()
						runtime.Gosched()
					}
				}
			},
			func(t *Task) mem.Value { return mem.Nil },
		)
		var swept []*mem.Chunk
		for _, c := range tenured {
			if c.HeapID() == tk.heap.ID && c.FreeWordCount() != 0 {
				swept = append(swept, c)
				if c.Tenured {
					t.Errorf("chunk %d holds %d free words and is still Tenured", c.ID, c.FreeWordCount())
				}
			}
		}
		if len(swept) == 0 {
			t.Fatalf("the cycle threaded no free list through the %d Tenured chunks", len(tenured))
		}
		tk.collectNow()
		for _, c := range swept {
			if slices.Contains(tk.heap.Chunks, c) {
				t.Errorf("swept chunk %d was kept by the next collection", c.ID)
			}
		}
		if err := gc.CheckHeap(rt.space, tk.heap, false); err != nil {
			t.Error(err)
		}
		n, want := 0, int64(cells-1)
		for v := f.Get(0); v.IsRef(); v = tk.Read(v.Ref(), 1) {
			if got := tk.Read(v.Ref(), 0).AsInt(); got != want {
				t.Fatalf("cell %d holds %d, want %d", n, got, want)
			}
			n, want = n+1, want-1
		}
		if n != cells {
			t.Fatalf("the live list has %d cells, want %d", n, cells)
		}
		return mem.Nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
