package mlang

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	ast, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	an, err := Analyze(ast)
	if err != nil {
		t.Fatalf("Analyze(%q): %v", src, err)
	}
	return an
}

// reasonAt returns the verdict reason of the first site with the given op.
func reasonAt(an *Analysis, op string) (string, bool) {
	for _, v := range an.Verdicts {
		if v.Op == op {
			return v.Reason, v.Fast
		}
	}
	return "", false
}

func TestAnalysisVerdicts(t *testing.T) {
	cases := []struct {
		name             string
		src              string
		proven, fallback int
		regions          int
	}{
		// Immediate elements elide regardless of region facts.
		{"immediate-ref", `let val r = ref 1 in (r := !r + 1; !r) end`, 4, 0, 1},
		{"immediate-array", `let val a = array (4, 0) in (update (a, 0, 9); sub (a, 0)) end`, 3, 0, 1},
		// A cell captured by a function and accessed there is a
		// cross-function access for the boxed read, fallback.
		{"cross-body-boxed", `
			let val r = ref (ref 1) in
			let fun get u = !r in
			! (get ())
			end end`, 3, 1, 2},
		// Refs from both if-branches unify, but both allocate at the same
		// static scope (if-branches do not fork heaps), so the merged
		// region stays concrete — same-scope aliasing is harmless.
		{"branch-alias", `
			let val c = if true then ref 1 else ref 2 in !c end`, 3, 0, 1},
		// Aliasing a root-scope cell with a par-branch cell is a real
		// cross-scope conflict: both allocation sites collapse to ⊤ and
		// lose their fast allocation (the immediate derefs still elide).
		{"cross-scope-alias", `
			let val a = ref 1 in
			let val p = par (ref 2, 0) in
			! (if ! (ref true) then a else #1 p)
			end end`, 3, 2, 1},
		// Storing a deeper-allocated ref into a shallower cell is the
		// down-pointer shape: the store falls back and poisons the region
		// for boxed reads.
		{"down-pointer", `
			let val shared = ref (ref 0) in
			let val p = par ((shared := ref 7; 1), 2) in
			(#1 p + #2 p, ! (!shared))
			end end`, 0, 0, 0}, // counts asserted via reasons below
		// Same-scope boxed handoff stays proven: value and holder share a
		// static region path.
		{"up-store", `
			let val inner = ref 3 in
			let val outer = ref inner in
			(outer := inner; ! (!outer))
			end end`, 5, 0, 2},
	}
	for _, c := range cases {
		an := analyze(t, c.src)
		if c.name == "down-pointer" {
			if reason, fast := reasonAt(an, ":="); fast || !strings.Contains(reason, "⊤") {
				t.Errorf("%s: := verdict (fast=%v, %q), want ⊤ fallback", c.name, fast, reason)
			}
			continue
		}
		if an.Proven != c.proven || an.Fallback != c.fallback || an.Regions != c.regions {
			t.Errorf("%s: proven/fallback/regions = %d/%d/%d, want %d/%d/%d\n%s",
				c.name, an.Proven, an.Fallback, an.Regions,
				c.proven, c.fallback, c.regions, an.Report())
		}
	}
}

func TestAnalysisReasons(t *testing.T) {
	// Concurrent-branch access: a cell allocated in the left branch and
	// read by code in the right branch (through a shared outer binding)
	// cannot be proven — the branches' scopes are unordered.
	an := analyze(t, `
		let val shared = ref (ref 0) in
		let val p = par (
		    (shared := ref 42; 1),
		    ! (!shared))
		in #1 p end end`)
	found := false
	for _, v := range an.Verdicts {
		if v.Op == "!" && !v.Fast {
			found = true
			if !strings.Contains(v.Reason, "unproven stores") && !strings.Contains(v.Reason, "⊤") {
				t.Errorf("boxed deref reason = %q", v.Reason)
			}
		}
	}
	if !found {
		t.Fatalf("no fallback deref found:\n%s", an.Report())
	}

	// Boxed tabulate elements keep the managed stores and poison the
	// array region.
	an = analyze(t, `
		let val a = tabulate (8, fn i => (i, i)) in
		sub (a, 3)
		end`)
	if reason, fast := reasonAt(an, "tabulate"); fast || !strings.Contains(reason, "boxed") {
		t.Errorf("boxed tabulate verdict (fast=%v, %q)", fast, reason)
	}
	if reason, fast := reasonAt(an, "sub"); fast || !strings.Contains(reason, "unproven stores") {
		t.Errorf("sub of boxed tabulate verdict (fast=%v, %q)", fast, reason)
	}
}

// TestAnalysisNeverFailsOnEffects: region conflicts must degrade to
// fallback verdicts, not new type errors — Analyze accepts exactly what
// Check accepts.
func TestAnalysisNeverFailsOnEffects(t *testing.T) {
	srcs := []string{
		`let val c = if true then ref 1 else ref 2 in !c end`,
		`let fun pick b = if b then ref 1 else ref 2 in ! (pick true) end`,
		`let val shared = ref (ref 0) in (shared := ref 1; ! (!shared)) end`,
	}
	for _, src := range srcs {
		ast, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Check(ast); err != nil {
			t.Fatalf("Check rejected %q: %v", src, err)
		}
		if _, err := Analyze(ast); err != nil {
			t.Fatalf("Analyze rejected %q: %v", src, err)
		}
	}
}

// goldenExamples compares render(source) of every example program with
// testdata/<program>.<ext>. Regenerate with UPDATE_GOLDEN=1 go test -run
// Golden (an env var, to avoid a flag dependency).
func goldenExamples(t *testing.T, ext string, render func(src string) string) {
	names, srcs := examplePrograms(t)
	for i, name := range names {
		got := render(srcs[i])
		golden := filepath.Join("testdata", strings.TrimSuffix(name, ".mpl")+"."+ext)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s (run with UPDATE_GOLDEN=1 to regenerate): %v", golden, err)
		}
		if got != string(want) {
			t.Errorf("%s: drifted from golden:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
		}
	}
}

// TestDisReportGolden pins the -dis-report output for every example
// program.
func TestDisReportGolden(t *testing.T) {
	goldenExamples(t, "disreport", func(src string) string { return analyze(t, src).Report() })
}

// TestListingGolden pins the -dis output — the lowered tree — for every
// example program: which functions and calls are direct, which access
// sites are fast.
func TestListingGolden(t *testing.T) {
	goldenExamples(t, "lowered", func(src string) string { return listing(t, src, true) })
}

// listing lowers src, with elision or checked, and returns the listing.
func listing(t *testing.T, src string, elide bool) string {
	t.Helper()
	ast, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var an *Analysis
	if elide {
		if an, err = Analyze(ast); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := CompileWith(ast, an)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Listing()
}

// TestListing: the markers mean what they say. The checked build lists the
// same tree with every site checked; a function is heap exactly when a
// use makes it escape.
func TestListing(t *testing.T) {
	src := `let val a = array (4, 0) in
let fun fill i = if i >= 4 then () else (update (a, i, i); fill (i + 1)) in
let fun get i = sub (a, i) in
let val g = if 1 < 2 then get else get in
(fill 0; g 3)
end end end end`
	elided, checked := listing(t, src, true), listing(t, src, false)
	for _, want := range []string{
		"1:13 array fast", "2:42 update fast", "3:17 sub fast",
		"fun fill/1 direct", "call fill direct tail", "call fill direct\n",
		"fn get heap captures=[a]", "call closure",
	} {
		if !strings.Contains(elided, want) {
			t.Errorf("elided listing lacks %q:\n%s", want, elided)
		}
	}
	if strings.Contains(elided, "checked") || strings.Contains(checked, "fast") {
		t.Errorf("site markers do not follow the build:\n%s---\n%s", elided, checked)
	}
	if strings.ReplaceAll(elided, "fast", "checked") != checked {
		t.Errorf("checked build is not the same tree:\n%s---\n%s", elided, checked)
	}
}

// TestTypeErrorGolden pins exact checker diagnostics — unification
// failures, the occurs check, operand-shape errors — so checker refactors
// (like the region-annotation threading of this change) cannot silently
// degrade them. Region conflicts deliberately do NOT appear here: the
// effect discipline reports them as fallback verdicts (see
// TestAnalysisNeverFailsOnEffects), never as errors.
func TestTypeErrorGolden(t *testing.T) {
	cases := []struct{ src, want string }{
		{`1 + true`, "1:5: type mismatch: bool vs int"},
		{`if 1 then 2 else 3`, "1:4: type mismatch: int vs bool"},
		{`if true then 1 else false`, "1:1: type mismatch: int vs bool"},
		{`(fn x => x + 1) true`, "1:17: type mismatch: int vs bool"},
		{`!5`, "1:1: type mismatch: int vs 't1 ref"},
		{`5 := 6`, "1:1: type mismatch: int vs 't1 ref"},
		{`sub (5, 0)`, "1:6: type mismatch: int vs 't1 array"},
		{`update (array (1, 1), 0, true)`, "1:26: type mismatch: bool vs int"},
		{`let fun f x = f in f end`, "1:1: infinite type: 't2 ~ ('t1 -> 't2)"},
		{`ref 1 := ref true`, "1:10: type mismatch: bool ref vs int"},
		{`reduce (tabulate (3, fn i => (i, i)), 0, fn a => fn b => a)`,
			"1:39: type mismatch: int vs (int * int)"},
	}
	for _, c := range cases {
		ast, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = Check(ast)
		if err == nil {
			t.Errorf("Check(%q): expected error %q", c.src, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("Check(%q) = %q, want %q", c.src, err.Error(), c.want)
		}
	}
}
