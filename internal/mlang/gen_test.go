package mlang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mplgo/internal/chaos"
	"mplgo/mpl"
)

// The rooting-precision property. A seeded generator writes well-typed
// programs over ints, bools, unit, tuples, refs, arrays, direct, curried,
// tail-recursive and escaping functions, par, tabulate/reduce and mk-style
// allocation pressure; each program's value with collections off is the
// oracle (itself checked against a reference interpreter, interp), and
// both builds must reproduce it with a 256-word budget (so
// collections run inside nearly every activation), with chaos on top, and
// on two workers — and leave heaps that validate. A boxed value the
// compiler left out of a root slot while it was live across an allocation
// dangles under the moving collector and changes the value. A program
// whose sites the analysis proves entirely must never take the
// entanglement slow path: TypeDis soundness, as implemented.

// gty is a generated program's type.
type gty struct {
	k    string // "int", "bool", "unit", "pair", "ref", "array", "fun" (int -> int)
	a, b *gty
}

var (
	gInt  = &gty{k: "int"}
	gBool = &gty{k: "bool"}
	gUnit = &gty{k: "unit"}
)

func gPair(a, b *gty) *gty { return &gty{k: "pair", a: a, b: b} }
func gRef(a *gty) *gty     { return &gty{k: "ref", a: a} }
func gArr(a *gty) *gty     { return &gty{k: "array", a: a} }

func (t *gty) eq(u *gty) bool {
	if t == nil || u == nil {
		return t == u
	}
	return t.k == u.k && t.a.eq(u.a) && t.b.eq(u.b)
}

// gvar is a variable in scope: scope is the body (function, par branch or
// loop body) that bound it. Only cells bound in the current body are
// mutated, so concurrent strands never write what another reads and every
// program is deterministic.
type gvar struct {
	name  string
	t     *gty
	scope int
}

type gen struct {
	r     *rand.Rand
	vars  []gvar
	scope int
	n     int
	times int // how many times the code being written may run
}

// loop returns a trip count for a loop whose body is written next, within
// a budget of a few thousand body runs per program; big (past reduce's
// sequential leaf of 256) when the budget allows.
func (g *gen) loop(big bool) int {
	n := 1 + g.r.Intn(8)
	if big && g.times*600 <= 4000 {
		n = 1 + g.r.Intn(600)
	}
	return n
}

// mk is a size for mk: up to 20, less inside loops.
func (g *gen) mk() int {
	if g.times > 50 {
		return g.r.Intn(3)
	}
	return g.r.Intn(20)
}

// in writes f as code run n times as often as the code around it.
func (g *gen) in(n int, f func() string) string {
	saved := g.times
	g.times *= n
	s := f()
	g.times = saved
	return s
}

func (g *gen) fresh() string { g.n++; return fmt.Sprintf("v%d", g.n) }

// with runs f with name bound to t.
func (g *gen) with(name string, t *gty, f func() string) string {
	g.vars = append(g.vars, gvar{name, t, g.scope})
	s := f()
	g.vars = g.vars[:len(g.vars)-1]
	return s
}

// body runs f as a new body: outer cells are read-only inside it.
func (g *gen) body(f func() string) string {
	saved := g.scope
	g.n++
	g.scope = g.n
	s := f()
	g.scope = saved
	return s
}

// pick returns a variable of type t, or "".
func (g *gen) pick(t *gty) string {
	var names []string
	for _, v := range g.vars {
		if v.t.eq(t) {
			names = append(names, v.name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	return names[g.r.Intn(len(names))]
}

// cell returns a variable of kind k ("ref" or "array") bound in this body,
// which it may mutate, or nil.
func (g *gen) cell(k string) *gvar {
	var vs []*gvar
	for i, v := range g.vars {
		if v.t.k == k && v.scope == g.scope {
			vs = append(vs, &g.vars[i])
		}
	}
	if len(vs) == 0 {
		return nil
	}
	return vs[g.r.Intn(len(vs))]
}

// anyType is a type for an intermediate value. Functions' extra
// parameters take only types whose operations need no annotation (#i
// needs its operand's type before inference reaches the lambda's use).
func (g *gen) anyType(param bool) *gty {
	ts := []*gty{gInt, gBool, gUnit, gRef(gInt), gRef(gRef(gInt)), gArr(gInt), gArr(gRef(gInt))}
	if !param {
		ts = append(ts, gPair(gInt, gInt), gPair(gRef(gInt), gInt), gPair(gInt, gPair(gRef(gInt), gBool)))
	}
	return ts[g.r.Intn(len(ts))]
}

func (g *gen) leaf(t *gty) string {
	if v := g.pick(t); v != "" && g.r.Intn(3) > 0 {
		return v
	}
	switch t.k {
	case "int":
		if g.r.Intn(4) == 0 {
			return fmt.Sprintf("(~%d)", g.r.Intn(9))
		}
		return fmt.Sprint(g.r.Intn(10))
	case "bool":
		return []string{"true", "false"}[g.r.Intn(2)]
	case "unit":
		return "()"
	case "pair":
		return fmt.Sprintf("(%s, %s)", g.leaf(t.a), g.leaf(t.b))
	case "ref":
		return fmt.Sprintf("ref (%s)", g.leaf(t.a))
	case "array":
		return fmt.Sprintf("array (%d, %s)", 1+g.r.Intn(4), g.leaf(t.a))
	case "fun":
		return fmt.Sprintf("(fn x => x + %d)", g.r.Intn(10))
	}
	panic(t.k)
}

// expr writes an expression of type t with nesting budget d.
func (g *gen) expr(t *gty, d int) string {
	if d <= 0 || g.r.Intn(8) == 0 {
		return g.leaf(t)
	}
	if g.r.Intn(3) == 0 {
		return g.common(t, d)
	}
	switch t.k {
	case "int":
		return g.intExpr(d)
	case "bool":
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("(%s %s %s)", g.expr(gInt, d-1), []string{"<", "<=", "=", "<>", ">", ">="}[g.r.Intn(6)], g.expr(gInt, d-1))
		case 1:
			return fmt.Sprintf("not (%s)", g.expr(gBool, d-1))
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(gBool, d-1), []string{"andalso", "orelse"}[g.r.Intn(2)], g.expr(gBool, d-1))
	case "unit":
		if r := g.cell("ref"); r != nil && g.r.Intn(2) == 0 {
			return fmt.Sprintf("(%s := %s)", g.choose(r.name, d), g.expr(r.t.a, d-1))
		}
		if a := g.cell("array"); a != nil {
			i := g.fresh()
			return fmt.Sprintf("let val %s = %s in update (%s, (%s) mod (length %s), %s) end",
				i, g.expr(gInt, d-1), g.choose(a.name, d), i, a.name, g.expr(a.t.a, d-1))
		}
		return fmt.Sprintf("(%s; ())", g.expr(g.anyType(false), d-1))
	case "pair":
		return fmt.Sprintf("(%s, %s)", g.expr(t.a, d-1), g.expr(t.b, d-1))
	case "ref":
		if g.r.Intn(3) == 0 {
			return fmt.Sprintf("!(%s)", g.expr(gRef(t), d-1))
		}
		return fmt.Sprintf("ref (%s)", g.expr(t.a, d-1))
	case "array":
		if g.r.Intn(2) == 0 {
			i, n := g.fresh(), g.loop(false)
			return fmt.Sprintf("tabulate (%d, fn %s => %s)", n, i, g.in(n, func() string {
				return g.body(func() string { return g.with(i, gInt, func() string { return g.expr(t.a, d-1) }) })
			}))
		}
		return fmt.Sprintf("array (%d, %s)", 1+g.r.Intn(4), g.expr(t.a, d-1))
	case "fun":
		x := g.fresh()
		return fmt.Sprintf("(fn %s => %s)", x, g.body(func() string {
			return g.with(x, gInt, func() string { return g.expr(gInt, d-1) })
		}))
	}
	panic(t.k)
}

// choose is v itself, or an if that yields it after allocating (so the
// operand is parked while later operands run).
func (g *gen) choose(v string, d int) string {
	if g.r.Intn(2) == 0 {
		return v
	}
	return fmt.Sprintf("(if %s then %s else %s)", g.expr(gBool, d-1), v, v)
}

func (g *gen) intExpr(d int) string {
	switch g.r.Intn(11) {
	case 0, 1:
		return fmt.Sprintf("(%s %s %s)", g.expr(gInt, d-1), []string{"+", "-", "*"}[g.r.Intn(3)], g.expr(gInt, d-1))
	case 2:
		return fmt.Sprintf("!(%s)", g.expr(gRef(gInt), d-1))
	case 3:
		u := g.anyType(false)
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("#1 (%s)", g.expr(gPair(gInt, u), d-1))
		}
		return fmt.Sprintf("#2 (%s)", g.expr(gPair(u, gInt), d-1))
	case 4:
		a := g.fresh()
		return fmt.Sprintf("let val %s = %s in sub (%s, (%s) mod (length %s)) end",
			a, g.expr(gArr(gInt), d-1), a, g.with(a, gArr(gInt), func() string { return g.expr(gInt, d-1) }), a)
	case 5:
		i, x, y, n := g.fresh(), g.fresh(), g.fresh(), g.loop(true)
		return fmt.Sprintf("reduce (tabulate (%d, fn %s => %s), 0, fn %s => fn %s => %s + %s)", n, i, g.in(n, func() string {
			return g.body(func() string { return g.with(i, gInt, func() string { return g.expr(gInt, d-1) }) })
		}), x, y, x, y)
	case 6:
		// Boxed elements, a boxed identity and an allocating combiner.
		i, x, y, n := g.fresh(), g.fresh(), g.fresh(), g.loop(true)
		return fmt.Sprintf("!(reduce (tabulate (%d, fn %s => ref (%s)), ref 0, fn %s => fn %s => (mk %d; ref (!%s + !%s))))", n, i, g.in(n, func() string {
			return g.body(func() string { return g.with(i, gInt, func() string { return g.expr(gInt, d-1) }) })
		}), x, y, g.r.Intn(3), x, y)
	case 7:
		// A tail-recursive loop re-binding its parameters crosswise.
		f, i, x, y := g.fresh(), g.fresh(), g.fresh(), g.fresh()
		step := g.in(6, func() string {
			return g.body(func() string {
				return g.with(i, gInt, func() string {
					return g.with(x, gInt, func() string { return g.with(y, gInt, func() string { return g.expr(gInt, d-1) }) })
				})
			})
		})
		return fmt.Sprintf("let fun %s %s = fn %s => fn %s => if %s <= 0 then %s - %s else %s (%s - 1) %s ((%s) + %s) in %s %d (%s) (%s) end",
			f, i, x, y, i, x, y, f, i, y, step, x, f, g.r.Intn(6), g.expr(gInt, d-1), g.expr(gInt, d-1))
	case 8:
		// A function used as a value: stored in a tuple, chosen by an if,
		// or passed to a function that applies it.
		h := g.fresh()
		fv := g.expr(&gty{k: "fun"}, d-1)
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("(#1 (%s, %s)) (%s)", fv, g.expr(g.anyType(false), d-1), g.expr(gInt, d-1))
		case 1:
			return fmt.Sprintf("(if %s then %s else %s) (%s)", g.expr(gBool, d-1), fv, g.expr(&gty{k: "fun"}, d-1), g.expr(gInt, d-1))
		}
		return fmt.Sprintf("let fun %s k = k (%s) in %s (%s) end", h, g.expr(gInt, d-1), h, fv)
	case 9:
		return fmt.Sprintf("(mk %d; %s)", g.mk(), g.expr(gInt, d-1))
	}
	return fmt.Sprintf("!(mk %d)", g.mk())
}

// common writes the shapes every type has.
func (g *gen) common(t *gty, d int) string {
	switch g.r.Intn(7) {
	case 0:
		v, u := g.fresh(), g.anyType(false)
		bind := g.expr(u, d-1)
		return fmt.Sprintf("let val %s = %s in %s end", v, bind, g.with(v, u, func() string { return g.expr(t, d-1) }))
	case 1:
		return fmt.Sprintf("(if %s then %s else %s)", g.expr(gBool, d-1), g.expr(t, d-1), g.expr(t, d-1))
	case 2:
		u := gUnit
		if g.r.Intn(2) == 0 {
			u = g.anyType(false)
		}
		return fmt.Sprintf("(%s; %s)", g.expr(u, d-1), g.expr(t, d-1))
	case 3:
		// A direct function, curried, its second parameter maybe boxed.
		f, x, y, u := g.fresh(), g.fresh(), g.fresh(), g.anyType(true)
		fb := g.body(func() string {
			return g.with(x, gInt, func() string { return g.with(y, u, func() string { return g.expr(t, d-1) }) })
		})
		return fmt.Sprintf("let fun %s %s = fn %s => %s in %s (%s) (%s) end", f, x, y, fb, f, g.expr(gInt, d-1), g.expr(u, d-1))
	case 4:
		return fmt.Sprintf("#1 (par (%s, %s))", g.body(func() string { return g.expr(t, d-1) }),
			g.body(func() string { return g.expr(g.anyType(false), d-1) }))
	case 5:
		p, u := g.fresh(), g.anyType(false)
		l := g.body(func() string { return g.expr(t, d-1) })
		r := g.body(func() string { return g.expr(u, d-1) })
		return fmt.Sprintf("let val %s = par (%s, %s) in (%s; #1 %s) end", p, l, r,
			g.with(p, gPair(t, u), func() string { return g.expr(g.anyType(false), d-1) }), p)
	}
	return fmt.Sprintf("(mk %d; %s)", g.mk(), g.expr(t, d-1))
}

// genProgram returns the seed-th generated program, of type int.
func genProgram(seed int64) string {
	g := &gen{r: rand.New(rand.NewSource(seed)), times: 1}
	return mkSrc + g.expr(gInt, 3+g.r.Intn(3)) + " end"
}

// runValidated runs src in one build on cfg and validates the heaps at
// the end.
func runValidated(src string, elide bool, cfg mpl.Config) (int64, *Analysis, *mpl.Runtime, error) {
	ast, err := Parse(src)
	if err != nil {
		return 0, nil, nil, err
	}
	var an *Analysis
	if elide {
		if an, err = Analyze(ast); err != nil {
			return 0, nil, nil, err
		}
	} else if _, err := Check(ast); err != nil {
		return 0, nil, nil, err
	}
	prog, err := CompileWith(ast, an)
	if err != nil {
		return 0, nil, nil, err
	}
	m, rt := NewMachine(prog, nil), mpl.New(cfg)
	var v int64
	var rerr error
	_, err = rt.Run(func(t *mpl.Task) mpl.Value {
		res, err := m.Run(t)
		if rerr = err; err == nil {
			v, rerr = res.AsInt(), t.ValidateHeaps()
		}
		return mpl.Nil
	})
	if err == nil {
		err = rerr
	}
	return v, an, rt, err
}

// genPrograms is how many programs TestRootingPrecisionProperty runs.
const genPrograms = 500

func TestRootingPrecisionProperty(t *testing.T) {
	opts := chaos.Soak()
	cfgs := []mpl.Config{
		{Procs: 1, HeapBudgetWords: 256},
		{Procs: 1, HeapBudgetWords: 256, Chaos: &opts},
		{Procs: 2, HeapBudgetWords: 256},
	}
	failed := 0
	for seed := int64(1); seed <= genPrograms && failed < 3; seed++ {
		src := genProgram(seed)
		want, _, _, err := runValidated(src, false, mpl.Config{Procs: 1, DisableGC: true})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v\n%s", seed, err, src)
		}
		if ast, _ := Parse(src); interp(ast, nil).(int64) != want {
			t.Errorf("seed %d: with collections off = %d, reference = %d\n%s", seed, want, interp(ast, nil), src)
			failed++
			continue
		}
		for _, elide := range []bool{false, true} {
			for _, cfg := range cfgs {
				cfg.Seed = seed
				got, an, rt, err := runValidated(src, elide, cfg)
				switch {
				case err != nil:
					t.Errorf("seed %d (elided=%v procs=%d chaos=%v): %v\n%s", seed, elide, cfg.Procs, cfg.Chaos != nil, err, src)
				case got != want:
					t.Errorf("seed %d (elided=%v procs=%d chaos=%v) = %d, want %d\n%s", seed, elide, cfg.Procs, cfg.Chaos != nil, got, want, src)
				case an != nil && an.Fallback == 0 && rt.EntStats().SlowReads != 0:
					t.Errorf("seed %d: every site proven, yet %d slow reads\n%s", seed, rt.EntStats().SlowReads, src)
				default:
					continue
				}
				failed++
			}
		}
	}
}

// TestGeneratorCovers pins that the generator reaches every shape it is
// meant to: a change that silently stopped producing one would weaken the
// property without failing it.
func TestGeneratorCovers(t *testing.T) {
	var all strings.Builder
	for seed := int64(1); seed <= genPrograms; seed++ {
		all.WriteString(genProgram(seed))
	}
	s := all.String()
	for _, shape := range []string{"par (", "tabulate (", "reduce (", "ref (", "array (", ":=", "update (", "sub (",
		"let fun", "fn ", "#1 (", "(mk ", "else v", ") mod (length", "#1 ((fn", "andalso", "orelse"} {
		if !strings.Contains(s, shape) {
			t.Errorf("no generated program contains %q", shape)
		}
	}
}

// interp is the reference the collections-off run is checked against: a
// tree walk over the AST with Go values (int64, bool, unit, []any tuples,
// *any cells, *[]any arrays, closures), par and the loops sequential. A
// mistake in the compiler that is wrong with and without collections (a
// tail call re-binding its parameters one at a time) shows here.
type ienv struct {
	name string
	v    any
	next *ienv
}

type iclo struct {
	param string
	body  Expr
	env   *ienv
}

func (e *ienv) lookup(name string) any {
	for ; e != nil; e = e.next {
		if e.name == name {
			return e.v
		}
	}
	panic("unbound " + name)
}

// wrap keeps an int to the runtime's 63 bits.
func wrap(x int64) int64 { return x << 1 >> 1 }

func interpApply(f, x any) any {
	c := f.(*iclo)
	return interp(c.body, &ienv{c.param, x, c.env})
}

func interp(e Expr, env *ienv) any {
	switch e := e.(type) {
	case *IntLit:
		return e.Val
	case *BoolLit:
		return e.Val
	case *UnitLit:
		return struct{}{}
	case *Var:
		return env.lookup(e.Name)
	case *Fn:
		return &iclo{e.Param, e.Body, env}
	case *App:
		return interpApply(interp(e.Fun, env), interp(e.Arg, env))
	case *Let:
		return interp(e.Body, &ienv{e.Name, interp(e.Bind, env), env})
	case *LetFun:
		c := &iclo{param: e.Param, body: e.FBody}
		c.env = &ienv{e.Name, c, env}
		return interp(e.Body, c.env)
	case *If:
		if interp(e.Cond, env).(bool) {
			return interp(e.Then, env)
		}
		return interp(e.Else, env)
	case *Tuple:
		vs := make([]any, len(e.Elems))
		for i, x := range e.Elems {
			vs[i] = interp(x, env)
		}
		return vs
	case *Proj:
		return interp(e.Arg, env).([]any)[e.Index-1]
	case *Par:
		l := interp(e.Left, env)
		return []any{l, interp(e.Right, env)}
	case *Prim:
		arg := func(i int) any { return interp(e.Args[i], env) }
		num := func(i int) int64 { return arg(i).(int64) }
		switch e.Op {
		case "+":
			return wrap(num(0) + num(1))
		case "-":
			return wrap(num(0) - num(1))
		case "*":
			return wrap(num(0) * num(1))
		case "div":
			x, y := num(0), num(1)
			return floorDiv(x, y)
		case "mod":
			x, y := num(0), num(1)
			return x - y*floorDiv(x, y)
		case "<":
			return num(0) < num(1)
		case "<=":
			return num(0) <= num(1)
		case ">":
			return num(0) > num(1)
		case ">=":
			return num(0) >= num(1)
		case "=":
			return num(0) == num(1)
		case "<>":
			return num(0) != num(1)
		case "andalso":
			return arg(0).(bool) && arg(1).(bool)
		case "orelse":
			return arg(0).(bool) || arg(1).(bool)
		case "~":
			return wrap(-num(0))
		case "not":
			return !arg(0).(bool)
		case ";":
			arg(0)
			return arg(1)
		case "ref":
			v := arg(0)
			return &v
		case "!":
			return *arg(0).(*any)
		case ":=":
			c := arg(0).(*any)
			*c = arg(1)
			return struct{}{}
		case "array":
			n, x := num(0), arg(1)
			a := make([]any, n)
			for i := range a {
				a[i] = x
			}
			return &a
		case "length":
			return int64(len(*arg(0).(*[]any)))
		case "sub":
			a := arg(0).(*[]any)
			return (*a)[num(1)]
		case "update":
			a, i := arg(0).(*[]any), num(1)
			(*a)[i] = arg(2)
			return struct{}{}
		case "tabulate":
			n, f := num(0), arg(1)
			a := make([]any, n)
			for i := range a {
				a[i] = interpApply(f, int64(i))
			}
			return &a
		case "reduce":
			a, acc, f := arg(0).(*[]any), arg(1), arg(2)
			for _, x := range *a {
				acc = interpApply(interpApply(f, acc), x)
			}
			return acc
		}
	}
	panic(fmt.Sprintf("interp: %T", e))
}
