package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/internal/mem"
)

// The chaos soak: the entangled stress workloads run to completion under
// the full fault-injection preset — forced collections at random
// allocations, widened steal windows, spurious gate contention, refused
// header CASes, busy-window stalls inside the copier — across a seed
// matrix, with invariant audits at joins, collection ends, and the end of
// Run. The injected faults are all "legal" perturbations (they exercise
// retry paths, never corrupt state), so every run must still produce the
// correct result and a clean strict audit.
//
// CI runs this under -race with the default seed matrix; override with
// CHAOS_SEEDS (comma-separated). On failure the failing seed, config,
// error, injection report, and invariant dump are written to
// $CHAOS_DUMP_DIR (if set) so the CI job can upload them as an artifact.

func chaosSeeds(t *testing.T) []int64 {
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		var seeds []int64
		for _, s := range strings.Split(env, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEEDS: bad seed %q: %v", s, err)
			}
			seeds = append(seeds, n)
		}
		return seeds
	}
	return []int64{1, 2, 3, 5, 8, 13, 21, 42}
}

// dumpChaosFailure writes a reproduction bundle for a failing chaos run.
func dumpChaosFailure(t *testing.T, rt *Runtime, seed int64, cfg Config, runErr error) {
	dir := os.Getenv("CHAOS_DUMP_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos dump: %v", err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "test: %s\nseed: %d\nconfig: %+v\nerror: %v\n\n%s\n",
		t.Name(), seed, cfg, runErr, rt.ChaosReport())
	if ierr := rt.CheckInvariants(); ierr != nil {
		fmt.Fprintf(&b, "\ninvariant dump:\n%v\n", ierr)
	}
	name := filepath.Join(dir, fmt.Sprintf("chaos-seed-%d-%s.txt",
		seed, strings.ReplaceAll(t.Name(), "/", "_")))
	if err := os.WriteFile(name, []byte(b.String()), 0o644); err != nil {
		t.Logf("chaos dump: %v", err)
	} else {
		t.Logf("chaos failure dumped to %s", name)
	}
}

// TestChaosSoakEntangled runs the random entangled workload under the full
// injection preset across the seed matrix. Result correctness is checked
// against an injection-free P=1 run of the same program.
func TestChaosSoakEntangled(t *testing.T) {
	const depth = 7
	opts := chaos.Soak()
	for _, seed := range chaosSeeds(t) {
		prog := randomProgram(uint64(seed)+100, depth, true)
		var want int64
		{
			rt := New(Config{Procs: 1})
			v, err := rt.Run(prog)
			if err != nil {
				t.Fatalf("seed %d: baseline run failed: %v", seed, err)
			}
			want = v.AsInt()
		}
		cfg := Config{Procs: 4, HeapBudgetWords: 2048, Seed: seed, Chaos: &opts}
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
		var injected uint64
		for _, p := range chaos.Points() {
			injected += rt.chaos.Injected(p)
		}
		if injected == 0 {
			t.Fatalf("seed %d %+v: soak injected no faults — rates wired wrong?", seed, cfg)
		}
	}
}

// spineProgram builds a fork spine of the given depth: each level forks one
// recursing branch and one leaf that churns allocations. The heap tree
// grows a path of `depth` edges, pushing the fork-path words
// past their 128-bit inline width so the spilled representation carries the
// ancestry queries of real collections and joins (not just unit tests).
func spineProgram(depth int) func(t *Task) mem.Value {
	var rec func(t *Task, d int) int64
	rec = func(t *Task, d int) int64 {
		if d == 0 {
			return 1
		}
		a, b := t.Par(
			func(t *Task) mem.Value { return mem.Int(rec(t, d-1)) },
			func(t *Task) mem.Value {
				t.AllocArray(32, mem.Int(int64(d))) // churn to trigger LGCs
				return mem.Int(int64(d))
			},
		)
		return a.AsInt() + b.AsInt()
	}
	return func(t *Task) mem.Value { return mem.Int(rec(t, depth)) }
}

// TestChaosDeepSpineSpill soaks the fork-path spill: a depth-160 spine
// under the full injection preset (which includes PathSpill, forcing the
// inline→vector promotion even at shallow depths). Every run must have
// produced at least one naturally spilled path; the PathSpill point must
// have fired somewhere across the matrix. (The legacy
// label-space rebalance needed no chaos point and is unreachable on the
// default oracle — this is its replacement as the ancestry stress.)
func TestChaosDeepSpineSpill(t *testing.T) {
	const depth = 160
	want := int64(1 + depth*(depth+1)/2)
	opts := chaos.Soak()
	var pathSpills uint64
	for _, seed := range chaosSeeds(t) {
		cfg := Config{Procs: 4, HeapBudgetWords: 1024, Seed: seed, Chaos: &opts}
		rt := New(cfg)
		v, err := rt.Run(spineProgram(depth))
		if err != nil {
			dumpChaosFailure(t, rt, seed, cfg, err)
			t.Fatalf("seed %d %+v: %v\n%s", seed, cfg, err, rt.ChaosReport())
		}
		if v.AsInt() != want {
			dumpChaosFailure(t, rt, seed, cfg,
				fmt.Errorf("result %d, want %d", v.AsInt(), want))
			t.Fatalf("seed %d %+v: result %d, want %d", seed, cfg, v.AsInt(), want)
		}
		pathSpills += rt.chaos.Injected(chaos.PathSpill)
		// A heap per spine level: some path must have outgrown the inline
		// words regardless of injection.
		spilled := false
		for id := uint32(1); !spilled; id++ {
			h := rt.tree.Get(id)
			if h == nil {
				break
			}
			spilled = h.Path().Spilled()
		}
		if !spilled {
			t.Fatalf("seed %d: depth-%d spine produced no spilled fork path", seed, depth)
		}
	}
	if pathSpills == 0 {
		t.Fatal("PathSpill injection never fired across the seed matrix — rate wired wrong?")
	}
}

// TestChaosSoakWithPanics layers branch panics on top of fault injection:
// the unwind must stay clean even while the chaos layer is forcing
// collections and refusing CASes underneath it.
func TestChaosSoakWithPanics(t *testing.T) {
	opts := chaos.Soak()
	for _, seed := range chaosSeeds(t) {
		cfg := Config{Procs: 4, HeapBudgetWords: 1024, Seed: seed, Chaos: &opts}
		rt := New(cfg)
		_, err := rt.Run(panickyProgram(uint64(seed), 6, 8))
		if err != nil {
			var pe *PanicError
			if !errors.As(err, &pe) {
				dumpChaosFailure(t, rt, seed, cfg, err)
				t.Fatalf("seed %d: non-panic error under chaos: %v\n%s",
					seed, err, rt.ChaosReport())
			}
		}
		if ierr := rt.CheckInvariants(); ierr != nil {
			dumpChaosFailure(t, rt, seed, cfg, ierr)
			t.Fatalf("seed %d: invariants after chaotic unwind: %v\n%s",
				seed, ierr, rt.ChaosReport())
		}
	}
}

// TestChaosDeterministicInjection: the same seed must inject the same
// faults — same per-point hit totals — when the schedule is deterministic
// (P=1). This is what makes a failing CI seed reproducible locally.
func TestChaosDeterministicInjection(t *testing.T) {
	opts := chaos.Soak()
	var first string
	for i := 0; i < 3; i++ {
		rt := New(Config{Procs: 1, HeapBudgetWords: 2048, Seed: 7, Chaos: &opts})
		if _, err := rt.Run(randomProgram(7, 6, true)); err != nil {
			t.Fatal(err)
		}
		rep := rt.ChaosReport()
		if i == 0 {
			first = rep
		} else if rep != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, rep, first)
		}
	}
}

// TestChaosOffIsFree: with Chaos nil, no injector is allocated and the
// runtime takes the identical code paths as before this layer existed (the
// hooks are nil checks). Guard against accidental always-on injection.
func TestChaosOffIsFree(t *testing.T) {
	rt := New(Config{Procs: 2})
	if rt.chaos != nil {
		t.Fatal("injector allocated with Chaos unset")
	}
	if got := rt.ChaosReport(); got != "chaos: off" {
		t.Fatalf("ChaosReport() = %q with chaos off", got)
	}
	if _, err := rt.Run(randomProgram(3, 5, true)); err != nil {
		t.Fatal(err)
	}
}

// TestMPLSurface exercises the failure model through the public API shape:
// exhaustion panics recovered into PanicError unwrap via errors.Is.
func TestPanicErrorUnwrapsTypedExhaustion(t *testing.T) {
	sentinel := errors.New("typed resource error")
	rt := New(Config{Procs: 2})
	_, err := rt.Run(func(tk *Task) mem.Value {
		tk.Par(
			func(t *Task) mem.Value { return mem.Nil },
			func(t *Task) mem.Value { panic(sentinel) },
		)
		return mem.Nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is(err, sentinel) = false for %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}
