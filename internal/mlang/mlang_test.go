package mlang

import (
	"os"
	"path/filepath"
	"testing"

	"mplgo/mpl"
)

func evalInt(t *testing.T, src string) int64 {
	t.Helper()
	res, err := Run(src, mpl.Config{Procs: 1})
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	if !res.Value.IsInt() {
		t.Fatalf("Run(%q): non-int result %v", src, res.Value)
	}
	return res.Value.AsInt()
}

func evalErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Run(src, mpl.Config{Procs: 1})
	if err == nil {
		t.Fatalf("Run(%q): expected error", src)
	}
	return err
}

func TestLexer(t *testing.T) {
	toks, err := lexAll(`let val x = 42 in x + 1 end (* comment (* nested *) *) <> <= => := "hi"`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []kind{LET, VAL, IDENT, EQ, INT, IN, IDENT, PLUS, INT, END, NEQ, LE, DARROW, ASSIGN, STRING, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d (%v)", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `(* open`, `@`, `:`} {
		if _, err := lexAll(src); err == nil {
			t.Fatalf("lexAll(%q): expected error", src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]int64{
		`1 + 2 * 3`:   7,
		`(1 + 2) * 3`: 9,
		`10 div 3`:    3,
		`10 mod 3`:    1,
		// div rounds toward negative infinity and mod takes the divisor's
		// sign, as in ML (not Go's truncation).
		`~7 div 2`:                            -4,
		`7 div ~2`:                            -4,
		`~7 div ~2`:                           3,
		`~6 div 2`:                            -3,
		`~7 mod 2`:                            1,
		`7 mod ~2`:                            -1,
		`~7 mod ~2`:                           -1,
		`~6 mod 2`:                            0,
		`~5 + 2`:                              -3,
		`100 - 42`:                            58,
		`if 1 < 2 then 7 else 8`:              7,
		`if 2 <= 1 then 7 else 8`:             8,
		`if 3 = 3 then 1 else 0`:              1,
		`if 3 <> 3 then 1 else 0`:             0,
		`if true andalso false then 1 else 0`: 0,
		`if true orelse false then 1 else 0`:  1,
		`if not false then 1 else 0`:          1,
	}
	for src, want := range cases {
		if got := evalInt(t, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand must not evaluate when the left decides: a
	// division by zero there would fault.
	if got := evalInt(t, `if false andalso (1 div 0 = 0) then 1 else 2`); got != 2 {
		t.Fatal("andalso not short-circuit")
	}
	if got := evalInt(t, `if true orelse (1 div 0 = 0) then 1 else 2`); got != 1 {
		t.Fatal("orelse not short-circuit")
	}
}

func TestLetAndFunctions(t *testing.T) {
	cases := map[string]int64{
		`let val x = 21 in x + x end`:                                                  42,
		`let val x = 1 in let val x = 2 in x end end`:                                  2,
		`(fn x => x + 1) 41`:                                                           42,
		`let val f = fn x => x * 2 in f (f 10) end`:                                    40,
		`let fun fact n = if n = 0 then 1 else n * fact (n - 1) in fact 6 end`:         720,
		`let fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in fib 15 end`: 610,
		// Closures capture their environment.
		`let val a = 10 in let val add = fn x => x + a in add 5 end end`: 15,
		// Nested capture through two lambda levels.
		`let val a = 1 in (fn x => (fn y => a + x + y) 10) 100 end`: 111,
		// Currying.
		`let val add = fn x => fn y => x + y in add 3 4 end`: 7,
		// Recursion referencing an outer binding.
		`let val step = 2 in let fun down n = if n <= 0 then 0 else down (n - step) + 1 in down 10 end end`: 5,
	}
	for src, want := range cases {
		if got := evalInt(t, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestTuples(t *testing.T) {
	cases := map[string]int64{
		`#1 (5, 6)`:    5,
		`#2 (5, 6)`:    6,
		`#3 (1, 2, 3)`: 3,
		`let val p = (1 + 1, 2 * 3) in #1 p * #2 p end`: 12,
	}
	for src, want := range cases {
		if got := evalInt(t, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestRefsAndSequencing(t *testing.T) {
	cases := map[string]int64{
		`let val r = ref 5 in !r end`:                             5,
		`let val r = ref 5 in (r := 7; !r) end`:                   7,
		`let val r = ref 0 in (r := !r + 1; r := !r + 1; !r) end`: 2,
	}
	for src, want := range cases {
		if got := evalInt(t, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestArrays(t *testing.T) {
	src := `
	let val a = array (10, 0) in
	let fun fill i = if i >= length a then () else (update (a, i, i * i); fill (i + 1)) in
	let fun sum i = if i >= length a then 0 else sub (a, i) + sum (i + 1) in
	(fill 0; sum 0)
	end end end`
	if got := evalInt(t, src); got != 285 {
		t.Fatalf("array program = %d, want 285", got)
	}
}

func TestPar(t *testing.T) {
	cases := map[string]int64{
		`#1 (par (1 + 1, 2 + 2)) + #2 (par (1 + 1, 2 + 2))`:     6,
		`let val p = par (10 * 10, 20 * 20) in #1 p + #2 p end`: 500,
	}
	for src, want := range cases {
		if got := evalInt(t, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

const parFibSrc = `
let fun fib n =
  if n < 2 then n
  else if n < 10 then fib (n - 1) + fib (n - 2)
  else let val p = par (fib (n - 1), fib (n - 2)) in #1 p + #2 p end
in fib 18 end`

func TestParFib(t *testing.T) {
	for _, procs := range []int{1, 4} {
		res, err := Run(parFibSrc, mpl.Config{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value.AsInt() != 2584 {
			t.Fatalf("procs=%d: fib 18 = %d", procs, res.Value.AsInt())
		}
	}
}

func TestEntangledProgram(t *testing.T) {
	// The left branch publishes a ref of a ref into shared state; the
	// right branch reads through it: entanglement, managed transparently.
	src := `
	let val shared = ref (ref 0) in
	let val p = par (
	    (shared := ref 42; 1),
	    let fun spin u =
	      let val v = ! (!shared) in
	      if v = 42 then v else spin ()
	      end
	    in spin () end)
	in #2 p end end`
	res, err := Run(src, mpl.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.AsInt() != 42 {
		t.Fatalf("entangled program = %d", res.Value.AsInt())
	}
	if res.Runtime.EntStats().EntangledReads == 0 {
		t.Fatal("expected entangled reads")
	}
	// Under detect-and-abort the same program is rejected.
	if _, err := Run(src, mpl.Config{Procs: 1, Mode: mpl.Detect}); err == nil {
		t.Fatal("detect mode accepted an entangled program")
	}
}

func TestGCPressure(t *testing.T) {
	// Build and discard tuples in a loop under a small budget: the
	// activations' frames must keep everything precise across collections.
	src := `
	let fun loop n =
	  if n = 0 then 0
	  else let val p = (n, n * 2, (n, n)) in #1 (#3 p) - n + loop (n - 1) end
	in loop 3000 end`
	res, err := Run(src, mpl.Config{Procs: 1, HeapBudgetWords: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.AsInt() != 0 {
		t.Fatalf("GC pressure program = %d, want 0", res.Value.AsInt())
	}
	if c, _, _ := res.Runtime.GCStats(); c == 0 {
		t.Fatal("expected collections")
	}
}

func TestPrintOutput(t *testing.T) {
	res, err := Run(`(print 1; print 2; print (3 * 4); ())`, mpl.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "1\n2\n12\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestRendered(t *testing.T) {
	cases := map[string]string{
		`42`:              "42",
		`true`:            "true",
		`()`:              "()",
		`(1, (true, ()))`: "(1, (true, ()))",
		`ref 7`:           "ref 7",
		`array (3, 9)`:    "[|9, 9, 9|]",
		`fn x => x + 1`:   "fn",
		`"hello"`:         `"hello"`,
	}
	for src, want := range cases {
		res, err := Run(src, mpl.Config{Procs: 1})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if res.Rendered != want {
			t.Errorf("%q rendered %q, want %q", src, res.Rendered, want)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []string{
		`1 + true`,
		`if 1 then 2 else 3`,
		`if true then 1 else false`,
		`(fn x => x + 1) true`,
		`#1 5`,
		`#3 (1, 2)`,
		`!5`,
		`5 := 6`,
		`sub (5, 0)`,
		`update (array (1, 1), 0, true)`,
		`unboundvar`,
		`print true`,
		`let fun f x = f in f end`, // infinite type
	}
	for _, src := range cases {
		_, err := Parse(src)
		if err != nil {
			continue // parse errors also count as rejection
		}
		ast, _ := Parse(src)
		if _, err := Check(ast); err == nil {
			t.Errorf("Check(%q): expected type error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`let val x = 1 in x`, // missing end
		`if 1 then 2`,        // missing else
		`(1, 2`,              // unclosed paren
		`fn => 1`,            // missing param
		`let x = 1 in x end`, // missing val
		`#0 (1,2)`,           // bad index
		`1 2 3 +`,            // trailing operator
		``,                   // empty
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	for _, src := range []string{
		`1 div 0`,
		`1 mod 0`,
		`sub (array (3, 0), 5)`,
		`sub (array (3, 0), ~1)`,
		`update (array (3, 0), 3, 1)`,
		`array (~1, 0)`,
		// Raised in a strand, re-raised after the join, still typed.
		`#1 (par (1 div 0, 2))`,
		`tabulate (100, fn i => 1 div (i - 50))`,
		`reduce (tabulate (600, fn i => i), 0, fn a => fn b => a div (b - 300))`,
	} {
		err := evalErr(t, src)
		if _, ok := err.(*RuntimeError); !ok {
			t.Errorf("%q: error %v is not a RuntimeError", src, err)
		}
	}
}

func TestTypeString(t *testing.T) {
	res, err := Run(`(1, fn x => x + 1, ref true)`, mpl.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := "(int * (int -> int) * bool ref)"
	if got := res.Type.String(); got != want {
		t.Fatalf("type = %q, want %q", got, want)
	}
}

func TestDeepRecursionStack(t *testing.T) {
	// Many nested activations: frames must nest and pop LIFO.
	src := `let fun down n = if n = 0 then 0 else 1 + down (n - 1) in down 5000 end`
	if got := evalInt(t, src); got != 5000 {
		t.Fatalf("down 5000 = %d", got)
	}
}

func TestTabulate(t *testing.T) {
	cases := map[string]int64{
		`sub (tabulate (10, fn i => i * i), 7)`:                         49,
		`length (tabulate (100, fn i => 0))`:                            100,
		`sub (tabulate (5, fn i => (i, i * 2)), 3)` + ` ; 0`:            0, // tuple elements allocate
		`#2 (sub (tabulate (5, fn i => (i, i * 2)), 3))`:                6,
		`reduce (tabulate (1000, fn i => i), 0, fn a => fn b => a + b)`: 499500,
		`reduce (tabulate (20, fn i => i + 1), 1, fn a => fn b => a * b) mod 1000003`: func() int64 {
			m := int64(1)
			for i := int64(1); i <= 20; i++ {
				m = m * i // 20! fits in int64
			}
			return m % 1000003
		}(),
	}
	for src, want := range cases {
		if got := evalInt(t, src); got != want {
			t.Errorf("%q = %d, want %d", src, got, want)
		}
	}
}

func TestTabulateParallelAndGC(t *testing.T) {
	// Boxed elements under a tiny budget and multiple workers: the frames
	// and the array barriers must keep everything alive and exact.
	src := `
	let val a = tabulate (2000, fn i => (i, i + 1)) in
	reduce (tabulate (2000, fn i => #2 (sub (a, i)) - #1 (sub (a, i))), 0,
	        fn x => fn y => x + y)
	end`
	for _, cfg := range []mpl.Config{
		{Procs: 1, HeapBudgetWords: 2048},
		{Procs: 4, HeapBudgetWords: 4096},
	} {
		res, err := Run(src, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Value.AsInt() != 2000 {
			t.Fatalf("%+v: got %d", cfg, res.Value.AsInt())
		}
	}
}

func TestTabulateTypeErrors(t *testing.T) {
	for _, src := range []string{
		`tabulate (true, fn i => i)`,
		`tabulate (3, 5)`,
		`reduce (tabulate (3, fn i => i), true, fn a => fn b => a + b)`,
		`reduce (5, 0, fn a => fn b => a + b)`,
	} {
		ast, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Check(ast); err == nil {
			t.Errorf("Check(%q): expected type error", src)
		}
	}
}

func TestTabulateRuntimeError(t *testing.T) {
	if err := evalErr(t, `tabulate (~3, fn i => i)`); err == nil {
		t.Fatal("negative tabulate must fail")
	}
	// A fault inside a parallel leaf propagates out.
	if err := evalErr(t, `tabulate (100, fn i => 1 div (i - 50))`); err == nil {
		t.Fatal("leaf fault must propagate")
	}
}

func TestExamplePrograms(t *testing.T) {
	dir := "../../examples/mlang/programs"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"fib.mpl":       75025,
		"psum.mpl":      333283335000,
		"sieve.mpl":     669,
		"handoff.mpl":   42,
		"histogram.mpl": 50000,
	}
	ran := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".mpl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			res, err := Run(string(src), mpl.Config{Procs: procs})
			if err != nil {
				t.Fatalf("%s (procs=%d): %v", e.Name(), procs, err)
			}
			w, ok := want[e.Name()]
			if !ok {
				t.Fatalf("no expected value for %s (got %s)", e.Name(), res.Rendered)
			}
			if res.Value.AsInt() != w {
				t.Fatalf("%s (procs=%d) = %d, want %d", e.Name(), procs, res.Value.AsInt(), w)
			}
		}
		ran++
	}
	if ran < 5 {
		t.Fatalf("only %d example programs found", ran)
	}
}
