package mlang

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/mpl"
)

// The differential suite: every program runs twice — checked (managed
// barriers everywhere) and elided (unchecked accessors at proven sites) —
// and the two runs must agree on rendered value and printed output. For
// programs whose analysis proves every site, the elided run must also
// report a completely cold entanglement slow path: zero SlowReads means
// entangle.OnRead was never invoked, not merely that nothing was
// entangled.

// diffCorpus collects the self-contained programs of the unit tests plus
// elision-specific shapes (clean region reads, unclean regions, branch
// allocation, escaping cells). fullyElided marks programs the analysis
// must prove at every site — asserted via the verdict counts and the
// zero-slow-path check.
var diffCorpus = []struct {
	name        string
	src         string
	fullyElided bool
}{
	{"refseq", `let val r = ref 0 in (r := !r + 1; r := !r + 1; !r) end`, true},
	{"arrays", `
		let val a = array (10, 0) in
		let fun fill i = if i >= length a then () else (update (a, i, i * i); fill (i + 1)) in
		let fun sum i = if i >= length a then 0 else sub (a, i) + sum (i + 1) in
		(fill 0; sum 0)
		end end end`, true},
	{"parfib", parFibSrc, true},
	{"gcpressure", gcPressureSrc(3000), true},
	{"tabreduce", `reduce (tabulate (5000, fn i => i * i), 0, fn a => fn b => a + b)`, true},
	// A clean boxed region: refs allocated at the root scope, stored and
	// read in the same scope — the region-local read rule, not the
	// immediate rule, proves the derefs of the outer cell.
	{"cleanboxed", `
		let val inner = ref 3 in
		let val outer = ref inner in
		(outer := inner; ! (!outer))
		end end`, true},
	// Branch-allocated cells read at the join scope: the branch scopes are
	// ancestry-below the join (heaps merge upward), so the allocs stay
	// proven and the immediate derefs elide.
	{"branchref", `
		let val p = par (ref 1, ref 2) in
		! (#1 p) + ! (#2 p)
		end`, true},
	// Entangled handoff: per-expression fallback keeps the managed
	// entanglement protocol for the cell while the polling arithmetic
	// still elides.
	{"entangled", `
		let val shared = ref (ref 0) in
		let val p = par (
		    (shared := ref 42; 1),
		    let fun spin u =
		      let val v = ! (!shared) in
		      if v = 42 then v else spin ()
		      end
		    in spin () end)
		in #2 p end end`, false},
	// Print interleaving with par is nondeterministic, so keep print
	// programs sequential.
	{"print", `(print 1; print 2; print (3 * 4); ())`, true},
}

// chaosSrc is what TestDifferentialUnderChaos runs in place of a corpus
// program's src. Under chaos nearly every allocation collects, and each
// collection copies gcpressure's one live tuple per open activation and
// then audits the heap: the cost is quadratic in the depth (10 s a run at
// 3000, whatever the engine), so the chaos run takes the same path 600
// deep — 590 collections inside recursion.
var chaosSrc = map[string]string{"gcpressure": gcPressureSrc(600)}

// gcPressureSrc keeps one live tuple per activation, depth deep.
func gcPressureSrc(depth int) string {
	return fmt.Sprintf(`
		let fun loop n =
		  if n = 0 then 0
		  else let val p = (n, n * 2, (n, n)) in #1 (#3 p) - n + loop (n - 1) end
		in loop %d end`, depth)
}

func runBoth(t *testing.T, name, src string, cfg mpl.Config) (*Result, *Result) {
	t.Helper()
	checked, err := RunChecked(src, cfg)
	if err != nil {
		t.Fatalf("%s: checked: %v", name, err)
	}
	elided, err := Run(src, cfg)
	if err != nil {
		t.Fatalf("%s: elided: %v", name, err)
	}
	if checked.Rendered != elided.Rendered {
		t.Errorf("%s: rendered diverges: checked %q, elided %q", name, checked.Rendered, elided.Rendered)
	}
	if checked.Output != elided.Output {
		t.Errorf("%s: output diverges: checked %q, elided %q", name, checked.Output, elided.Output)
	}
	return checked, elided
}

// assertCold asserts a fully-elided run never entered the entanglement
// slow path and actually exercised the unchecked accessors (when the
// program has any proven access at all).
func assertCold(t *testing.T, name string, res *Result) {
	t.Helper()
	if res.Analysis == nil {
		t.Fatalf("%s: elided run carries no analysis", name)
	}
	if res.Analysis.Fallback != 0 {
		t.Errorf("%s: expected full elision, got %d fallback sites:\n%s",
			name, res.Analysis.Fallback, res.Analysis.Report())
	}
	s := res.Runtime.EntStats()
	if s.SlowReads != 0 || s.EntangledReads != 0 {
		t.Errorf("%s: elided run hit the slow path: %d slow reads, %d entangled",
			name, s.SlowReads, s.EntangledReads)
	}
	es := res.Runtime.ElisionStats()
	if res.Analysis.Proven > 0 && es.ElidedLoads+es.ElidedStores+es.ElidedAllocs == 0 {
		t.Errorf("%s: %d proven sites but no unchecked access executed", name, res.Analysis.Proven)
	}
}

func TestDifferentialCorpus(t *testing.T) {
	for _, c := range diffCorpus {
		for _, procs := range []int{1, 2} {
			_, elided := runBoth(t, c.name, c.src, mpl.Config{Procs: procs})
			if c.fullyElided {
				assertCold(t, c.name, elided)
			}
		}
	}
}

func TestDifferentialExamplePrograms(t *testing.T) {
	dir := "../../examples/mlang/programs"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".mpl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, elided := runBoth(t, e.Name(), string(src), mpl.Config{Procs: 2})
		// Every shipped example except the deliberately entangled handoff
		// is fully disentangled and must run completely cold.
		if e.Name() != "handoff.mpl" {
			assertCold(t, e.Name(), elided)
		} else if elided.Analysis.Fallback == 0 {
			t.Error("handoff.mpl: entangled program reported no fallback sites")
		}
	}
}

// TestDifferentialUnderChaos repeats the comparison under chaos
// injection with a small heap budget: forced collections at most
// allocations, perturbed steals, and join-time heap audits. Elision must
// not change results even when the fast-alloc path is constantly forced
// into its managed fallback.
func TestDifferentialUnderChaos(t *testing.T) {
	opts := chaos.Soak()
	for _, c := range diffCorpus {
		if src, ok := chaosSrc[c.name]; ok {
			c.src = src
		}
		for _, seed := range []int64{3, 11} {
			cfg := mpl.Config{Procs: 2, HeapBudgetWords: 1024, Seed: seed, Chaos: &opts}
			runBoth(t, c.name, c.src, cfg)
		}
	}
}

// TestElisionFallbackSemantics pins behaviors the fallback boundary must
// preserve: GC keeps running when every alloc is fast (budget fallback),
// and detect mode still aborts entangled programs under elision.
func TestElisionFallbackSemantics(t *testing.T) {
	res, err := Run(`
		let fun loop n =
		  if n = 0 then 0
		  else let val r = ref (n * 2) in !r - n + loop (n - 1) end
		in loop 3000 end`, mpl.Config{Procs: 1, HeapBudgetWords: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.AsInt() != 3000*3001/2 {
		t.Fatalf("ref loop = %d", res.Value.AsInt())
	}
	if c, _, _ := res.Runtime.GCStats(); c == 0 {
		t.Fatal("fast allocation starved the collector: no collections under a 512-word budget")
	}

	for _, c := range diffCorpus {
		if c.name != "entangled" {
			continue
		}
		if _, err := Run(c.src, mpl.Config{Procs: 1, Mode: mpl.Detect}); err == nil {
			t.Fatal("detect mode accepted an entangled program under elision")
		}
	}
}
