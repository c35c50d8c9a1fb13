package mlang

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/mpl"
)

// examplePrograms returns the shipped example programs, by file name.
func examplePrograms(t *testing.T) (names, srcs []string) {
	t.Helper()
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
		names, srcs = append(names, e.Name()), append(srcs, string(src))
	}
	return names, srcs
}

// TestEngineGolden compares the execution engine with the recorded
// behaviour of the bytecode VM it replaced (testdata/engine.golden was
// written by the VM at the commit before its deletion): result, rendered
// value, printed output and the entanglement slow-path counts, for the
// checked and the elided build of every corpus and example program, at
// Procs: 1 where all of them are deterministic. Regenerate (only when the
// language itself changes) with UPDATE_GOLDEN=1.
func TestEngineGolden(t *testing.T) {
	var names, srcs []string
	for _, c := range diffCorpus {
		names, srcs = append(names, c.name), append(srcs, c.src)
	}
	exNames, exSrcs := examplePrograms(t)
	names, srcs = append(names, exNames...), append(srcs, exSrcs...)
	var b strings.Builder
	for i, name := range names {
		for _, build := range []struct {
			tag string
			run func(string, mpl.Config) (*Result, error)
		}{{"checked", RunChecked}, {"elided", Run}} {
			res, err := build.run(srcs[i], mpl.Config{Procs: 1})
			if err != nil {
				t.Fatalf("%s (%s): %v", name, build.tag, err)
			}
			s := res.Runtime.EntStats()
			fmt.Fprintf(&b, "%s %s value=%v rendered=%q output=%q slow_reads=%d entangled_reads=%d\n",
				name, build.tag, res.Value, res.Rendered, res.Output, s.SlowReads, s.EntangledReads)
		}
	}
	golden := filepath.Join("testdata", "engine.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if b.String() != string(want) {
		t.Errorf("engine diverges from the recorded VM behaviour:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// mk n allocates 2n objects and returns a fresh cell holding n, so that
// evaluating it collects several times under a 256-word budget. (Boxed
// values are cells where a lambda must take them apart: #i needs its
// operand's type before inference reaches the call.)
const mkSrc = `let fun mk n = if n = 0 then ref 0 else (mk (n - 1); (n, n); ref n) in `

// TestRootPrecision drives every path that runs without a heap closure
// under a 256-word budget and chaos: whatever boxed value such a path
// holds across a collection must sit in a frame slot, or it dangles.
func TestRootPrecision(t *testing.T) {
	cases := []struct {
		name, src string
		want      int64
	}{
		// The first argument of a saturated curried call is boxed and waits
		// in the callee's frame while the second evaluates and collects.
		{"curried-call", mkSrc + `
			let fun add a = fn b => !a + !b in
			add (ref 40) (mk 300) end end`, 340},
		// A par branch reads, through its static link, boxed locals of the
		// parent that the parent's collections moved before the fork; the
		// branches then collect in heaps of their own.
		{"par-branch", mkSrc + `
			let val big = (7, (8, 9)) in
			let val junk = mk 300 in
			let val p = par ((mk 200; #1 big + !junk), (mk 200; #2 (#2 big))) in
			#1 p + #2 p end end end end`, 316},
		// tabulate's body and reduce's combiner allocate and read a boxed
		// capture of the caller; boxed elements and a boxed accumulator.
		{"loop-captures", mkSrc + `
			let val k = (3, 4) in
			! (reduce (tabulate (600, fn i => (mk 2; ref (i + #1 k))), ref 0,
			           fn a => fn b => (mk 2; ref (!a + !b + #2 k - 4))))
			end end`, 599*600/2 + 3*600},
		// The same through functions that are closure values.
		{"loop-closure", mkSrc + `
			let val k = (3, 4) in
			let val fs = (fn i => (mk 2; i + #1 k), fn a => fn b => (mk 2; a + b + #2 k - 4)) in
			reduce (tabulate (600, #1 fs), 0, #2 fs)
			end end end`, 599*600/2 + 3*600},
		// Operands of a tuple, an update and an assignment wait in parked
		// slots while later operands collect.
		{"operands", mkSrc + `
			let val a = array (2, ref 0) in
			let val r = ref (ref 0) in
			let val tup = ((1, 2), mk 100, (3, 4)) in
			(update (if ! (mk 50) > 0 then a else a, 1, mk 100);
			 (if ! (mk 50) > 0 then r else r) := mk 70;
			 #1 (#1 tup) + #2 (#3 tup) + ! (#2 tup) + ! (sub (a, 1)) + ! (!r))
			end end end end`, 1 + 4 + 100 + 100 + 70},
	}
	opts := chaos.Soak()
	for _, c := range cases {
		for _, cfg := range []mpl.Config{
			{Procs: 1, HeapBudgetWords: 256},
			{Procs: 1, HeapBudgetWords: 256, Seed: 3, Chaos: &opts},
			{Procs: 2, HeapBudgetWords: 256, Seed: 11, Chaos: &opts},
		} {
			checked, elided := runBoth(t, c.name, c.src, cfg)
			for _, res := range []*Result{checked, elided} {
				if res.Value.AsInt() != c.want {
					t.Errorf("%s (procs=%d seed=%d elided=%v) = %d, want %d",
						c.name, cfg.Procs, cfg.Seed, res.Elided, res.Value.AsInt(), c.want)
				}
				if n, _, _ := res.Runtime.GCStats(); n == 0 {
					t.Errorf("%s: no collection ran", c.name)
				}
			}
		}
	}
}

// TestEscapingFunctions: a function that is not called saturated, by
// name, from code that dies before its definer's frame, must still work —
// as a heap closure — and everything else about it (recursion, shadowing,
// captures of captures) with it.
func TestEscapingFunctions(t *testing.T) {
	cases := map[string]int64{
		// Partial application, bound and called later.
		`let fun add a = fn b => a + b in let val inc = add 1 in inc 41 end end`: 42,
		`let fun add3 a = fn b => fn c => a + b + c in
		 let val g = add3 1 2 in g 3 + add3 1 2 3 end end`: 12,
		// Stored in a ref, an array, a tuple.
		`let val r = ref (fn x => x + 1) in (r := (fn x => x * 2); (!r) 21) end`:                  42,
		`let val a = array (2, fn x => x) in (update (a, 1, fn x => x + 40); (sub (a, 1)) 2) end`: 42,
		`let val p = (fn x => x + 1, 5) in (#1 p) 41 end`:                                         42,
		// Returned from an if; passed to a callee that does not know it.
		`let val f = if 1 < 2 then fn x => x + 2 else fn x => x in f 40 end`:   42,
		`let fun apply f = f 10 in let fun inc x = x + 1 in apply inc end end`: 11,
		`let fun twice f = fn x => f (f x) in twice (fn x => x * 3) 2 end`:     18,
		// Shadowing: of a captured variable after the definition, and of a
		// direct function by a value.
		`let fun f x = x + 1 in let val a = 10 in let fun g y = f y + a in
		 let val a = 100 in g 1 + a end end end end`: 112,
		`let fun f x = x + 1 in let val f = 5 in f + 1 end end`: 6,
		`let fun f f = f + 1 in f 1 end`:                        2,
		// A let fun called from a closure that outlives its frame, and one
		// that escapes as a value while also recursing.
		`let fun f x = x * 2 in let val h = (fn y => f y + 1, 0) in (#1 h) 20 end end`: 41,
		`let fun fact n = if n = 0 then 1 else n * fact (n - 1) in
		 let val t = (fact, 0) in (#1 t) 5 end end`: 120,
		`let fun mk a = let fun get u = a in get end in (mk 7) () end`: 7,
		// Called directly and passed to tabulate: direct both times.
		`let fun sq x = x * x in sq 3 + reduce (tabulate (4, sq), 0, fn a => fn b => a + b) end`: 23,
		// A captured capture.
		`let val a = 1 in (fn x => (fn y => (fn z => a + x + y + z) 1000) 100) 10 end`: 1111,
		// An unboxed par pair that turns out to be needed as a value.
		`let val p = par (1, 2) in let val q = p in #1 q + #2 p end end`: 3,
		`let val p = par (1, 2) in (fn x => x + #2 p) 1 end`:             3,
		// Tail self calls re-bind all parameters at once, and take no stack.
		`let fun loop a = fn b => fn n => if n = 0 then a else loop b (a + b) (n - 1)
		 in loop 0 1 10 end`: 55,
		`let fun count n = if n = 0 then 0 else count (n - 1) in count 3000000 end`: 0,
	}
	for src, want := range cases {
		for _, run := range []func(string, mpl.Config) (*Result, error){Run, RunChecked} {
			res, err := run(src, mpl.Config{Procs: 1, HeapBudgetWords: 64})
			if err != nil {
				t.Errorf("%q: %v", src, err)
			} else if res.Value.AsInt() != want {
				t.Errorf("%q = %d, want %d", src, res.Value.AsInt(), want)
			}
		}
	}
}

// TestLeavesAllocateNothing pins "a disentangled leaf allocates nothing":
// psum's only object is its array, on the fork tree the VM had (63 forks
// for tabulate, 63 for reduce; the VM allocated 40 196 words here).
func TestLeavesAllocateNothing(t *testing.T) {
	const n = 10000
	res, err := Run(fmt.Sprintf(`reduce (tabulate (%d, fn i => i * i), 0, fn a => fn b => a + b)`, n),
		mpl.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Runtime.Space().TotalAllocWords(); got > n+64 {
		t.Errorf("psum %d allocated %d words, want at most %d", n, got, n+64)
	}
	if got := res.Runtime.Tree().Count(); got != 253 {
		t.Errorf("psum %d ran on %d heaps, want 253 (126 forks)", n, got)
	}
}

// TestCallsAllocateNothing pins that an activation costs no Go allocation:
// a call runs in the activation after its caller's, recycled, and a par,
// tabulate or reduce reuses the record its activation keeps. A run then
// allocates what the runtime's set-up does, however many calls it makes,
// and a par what the runtime's Par does (two tasks and their heaps: 11).
// Go's collector is off while counting, as in the benchmark: it would
// empty the activation pool between runs.
func TestCallsAllocateNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(src string, n int) float64 {
		ast, err := Parse(fmt.Sprintf(src, n))
		if err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(ast)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := CompileWith(ast, an)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(prog, nil)
		return testing.AllocsPerRun(10, func() {
			mpl.New(mpl.Config{Procs: 1}).Run(func(t *mpl.Task) mpl.Value { v, _ := m.Run(t); return v })
		})
	}
	for name, src := range map[string]string{
		// A function defined in the calling activation, called 10 000 times
		// from a loop and from a recursion 10 000 deep.
		"loop": `let fun loop i = fn acc => if i = 0 then acc else
		           let fun f x = x + i in loop (i - 1) (acc + f 1) end in loop %d 0 end`,
		"recursion": `let fun down i = if i = 0 then 0 else
		                let fun f x = x + i in f 1 + down (i - 1) end in down %d end`,
		// A reduce whose leaf needs no fork, from a loop: its activation
		// has a root slot (the array), and the runtime's frames cost a Go
		// allocation each while none has been popped on the task yet.
		"reduce": `let val a = array (4, 1) in
		           let fun go i = fn acc => if i = 0 then acc else go (i - 1) (acc + reduce (a, 0, fn x => fn y => x + y))
		           in go %d 0 end end`,
	} {
		if few, many := allocs(src, 10), allocs(src, 10000); many > few {
			t.Errorf("%s: %v allocations for 10 000 calls, %v for 10", name, many, few)
		}
	}
	const pars = `let fun go i = if i = 0 then 0 else let val p = par (i, 1) in #1 p + go (i - 1) end in go %d end`
	perPar := (allocs(pars, 1000) - allocs(pars, 10)) / 990
	raw := func(n int) float64 {
		f := func(t *mpl.Task) mpl.Value { return mpl.Int(1) }
		return testing.AllocsPerRun(10, func() {
			mpl.New(mpl.Config{Procs: 1}).Run(func(t *mpl.Task) mpl.Value {
				for i := 0; i < n; i++ {
					t.Par(f, f)
				}
				return mpl.Nil
			})
		})
	}
	if rawPar := (raw(1000) - raw(10)) / 990; perPar > rawPar+0.01 || perPar > 11.01 {
		t.Errorf("a par allocates %.2f times, the runtime's Par %.2f", perPar, rawPar)
	}
}
