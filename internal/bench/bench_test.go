package bench

import (
	"testing"

	"mplgo/internal/entangle"
	"mplgo/internal/globalrt"
	"mplgo/mpl"
)

// small test sizes per benchmark (the defaults are for the experiments).
var testSizes = map[string]int{
	"fib":       20,
	"mcss":      20_000,
	"primes":    8_000,
	"integrate": 50_000,
	"nqueens":   7,
	"msort":     6_000,
	"quickhull": 4_000,
	"tokens":    40_000,
	"wc":        40_000,
	"spmv":      200,
	"dedup":     5_000,
	"bfs":       4_000,
	"counter":   4_000,
	"memoize":   10_000,
	"pipeline":  5_000,
	"grep":      30_000,
	"histogram": 10_000,
	"filter":    30_000,
	"treesum":   10,
	"matmul":    24,
}

func TestRegistryComplete(t *testing.T) {
	if len(All) != 20 {
		t.Fatalf("suite has %d benchmarks", len(All))
	}
	seen := map[string]bool{}
	entangled := 0
	for _, b := range All {
		if b.Name == "" || b.MPL == nil || b.Global == nil || b.Native == nil || b.DefaultN <= 0 {
			t.Fatalf("benchmark %q incomplete", b.Name)
		}
		if seen[b.Name] {
			t.Fatalf("duplicate name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Entangled {
			entangled++
		}
		if _, ok := testSizes[b.Name]; !ok {
			t.Fatalf("no test size for %q", b.Name)
		}
	}
	if entangled != 5 {
		t.Fatalf("expected 5 entangled benchmarks, got %d", entangled)
	}
	if _, ok := ByName("fib"); !ok {
		t.Fatal("ByName broken")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("ByName found a ghost")
	}
	if len(Names()) != len(All) {
		t.Fatal("Names broken")
	}
}

// TestImplementationsAgree is the suite's central correctness check: for
// every benchmark, the native, global-heap, and hierarchical (several
// configurations) implementations must produce identical checksums.
func TestImplementationsAgree(t *testing.T) {
	type run struct {
		b    Benchmark
		name string
		n    int
	}
	var runs []run
	for _, b := range All {
		runs = append(runs, run{b, b.Name, testSizes[b.Name]})
	}
	// mcss again with an input of 6 000 words, which sits in a class chunk
	// (at most 2^13 words) that a collection releases and recycles: an input
	// carried as a bare reference across an allocation then reads the
	// recycled chunk's zeros. (At 20 000 words it is an oversize chunk,
	// never reused, and the stale copy reads as if intact.)
	if b, ok := ByName("mcss"); ok {
		runs = append(runs, run{b, "mcss-class-chunk", 6_000})
	}
	for _, r := range runs {
		b, n := r.b, r.n
		t.Run(r.name, func(t *testing.T) {
			want := b.Native(n)

			// The small budgets collect often enough that released chunks
			// are recycled under the program: a reference held unrooted
			// across an allocation then reads what the chunk's next tenant
			// wrote over it, not a stale copy that happens to be intact.
			for _, budget := range []int64{1 << 14, 1 << 10} {
				if got := b.Global(globalrt.New(budget), n); got != want {
					t.Fatalf("global budget %d = %d, native = %d", budget, got, want)
				}
			}

			cfgs := []mpl.Config{
				{Procs: 1},
				{Procs: 1, HeapBudgetWords: 4096},
				{Procs: 1, HeapBudgetWords: 256},
				{Procs: 4, HeapBudgetWords: 1 << 14},
			}
			if !b.Entangled {
				cfgs = append(cfgs, mpl.Config{Procs: 2, Mode: mpl.Detect})
			}
			for _, cfg := range cfgs {
				rt := mpl.New(cfg)
				var got int64
				_, err := rt.Run(func(tk *mpl.Task) mpl.Value {
					got = b.MPL(tk, n)
					return mpl.Int(got)
				})
				if err != nil {
					t.Fatalf("cfg %+v: %v", cfg, err)
				}
				if got != want {
					t.Fatalf("cfg %+v: mpl = %d, native = %d", cfg, got, want)
				}
			}
		})
	}
}

// TestEntangledBenchmarksEntangle checks the suite's labeling: entangled
// benchmarks must produce entangled reads under parallel execution, and
// detect mode must reject them; disentangled ones must run clean.
func TestEntangledBenchmarksEntangle(t *testing.T) {
	for _, b := range All {
		b := b
		n := testSizes[b.Name]
		t.Run(b.Name, func(t *testing.T) {
			// Procs=1 with fork-time heaps: entanglement shows even
			// without real parallelism because heap boundaries exist.
			rt := mpl.New(mpl.Config{Procs: 2})
			_, err := rt.Run(func(tk *mpl.Task) mpl.Value { return mpl.Int(b.MPL(tk, n)) })
			if err != nil {
				t.Fatal(err)
			}
			s := rt.EntStats()
			if b.Entangled && s.EntangledReads == 0 {
				t.Fatalf("%s labeled entangled but produced no entangled reads (%+v)", b.Name, s)
			}
			if !b.Entangled && s.EntangledReads != 0 {
				t.Fatalf("%s labeled disentangled but entangled: %+v", b.Name, s)
			}
		})
	}
}

func TestDetectAbortsEntangledSuite(t *testing.T) {
	for _, b := range All {
		if !b.Entangled {
			continue
		}
		n := testSizes[b.Name]
		rt := mpl.New(mpl.Config{Procs: 1, Mode: mpl.Detect})
		_, err := rt.Run(func(tk *mpl.Task) mpl.Value { return mpl.Int(b.MPL(tk, n)) })
		if err == nil {
			t.Fatalf("%s: detect mode accepted an entangled program", b.Name)
		}
	}
	_ = entangle.ErrEntangled
}
