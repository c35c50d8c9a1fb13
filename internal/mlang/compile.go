package mlang

import (
	"fmt"
	"io"
	"strings"

	"mplgo/internal/mem"
	"mplgo/mpl"
)

// code is one lowered expression: a Go closure that evaluates it on task t
// in activation e. The compiler builds one per AST node, once.
type code func(t *mpl.Task, e env) mem.Value

// env is one activation: a Task frame holding the function's parameters,
// locals and parked temporaries, and the static link — the activation of
// the lexically enclosing function, through which a direct function, a
// par branch or a tabulate/reduce body reads the variables it closes over.
type env struct {
	mpl.Frame
	up *env
}

// link returns the activation hops static links up from e. Zero hops is e
// itself, copied to the Go heap so that callees and branches can hold it.
func (e env) link(hops int) *env {
	if hops == 0 {
		here := e
		return &here
	}
	p := e.up
	for ; hops > 1; hops-- {
		p = p.up
	}
	return p
}

// function is one lowered function: main, a direct function (entered from
// Go closures; frame = parameters, then locals), a par branch, or a heap
// closure (frame = the closure, its argument, then captures and locals).
type function struct {
	name     string
	nslots   int
	body     code
	capSlots []int // heap closures: the frame slot of tuple field 1+i
}

// Program is a compiled mlang program.
type Program struct {
	main    *function
	funcs   []*function // heap closures, indexed by their tuple's field 0
	listing string
	out     io.Writer // print's sink, set by NewMachine
}

// Listing renders the lowered tree, one line per function, call and access
// site: functions and calls say direct or heap, sites fast or checked.
func (p *Program) Listing() string { return p.listing }

// fnMeta is what the compiler assumes about a let-bound or literal
// function until a use contradicts it: it is direct, with every curried
// parameter merged into one activation. A partial application lowers
// arity; a use as a value, or from a closure that may outlive the
// definer's frame, makes it a heap closure (one parameter per level).
// A let-bound par has one too: its pair stays in two slots while the name
// is only ever projected.
type fnMeta struct {
	heap  bool
	arity int
}

// binding is a name in scope: a frame slot; or, with meta set, something
// not materialised as one value — a direct function (fn; no slot) or an
// unboxed pair (slot, slot+1).
type binding struct {
	name string
	slot int
	fn   *function
	meta *fnMeta
}

// fnCtx is the function being lowered.
type fnCtx struct {
	fn     *function
	parent *fnCtx
	heap   bool       // a heap closure: outer variables arrive as captures
	loops  bool       // a tail self call was lowered: the body returns again
	vars   []*binding // captures, then parameters and locals, innermost last
	caps   []string   // heap: captured names, in tuple order
	lines  []string   // listing of the body
}

func (ctx *fnCtx) temp() int {
	ctx.fn.nslots++
	return ctx.fn.nslots - 1
}

func (ctx *fnCtx) bind(name string) int {
	ctx.vars = append(ctx.vars, &binding{name: name, slot: ctx.temp()})
	return ctx.fn.nslots - 1
}

func (ctx *fnCtx) unbind() { ctx.vars = ctx.vars[:len(ctx.vars)-1] }

func (ctx *fnCtx) logf(format string, args ...any) {
	ctx.lines = append(ctx.lines, fmt.Sprintf(format, args...))
}

// nest appends sub's listing under a header naming its function.
func (ctx *fnCtx) nest(sub *fnCtx, format string, args ...any) {
	ctx.logf(format+" slots=%d", append(args, sub.fn.nslots)...)
	for _, l := range sub.lines {
		ctx.lines = append(ctx.lines, "  "+l)
	}
}

type compiler struct {
	an    *Analysis // nil lowers every access through the managed barriers
	types map[Expr]Type
	prog  *Program
	metas map[Expr]*fnMeta
	stale bool // a meta changed under code already lowered: lower again
	err   error
}

// Compile lowers a type-checked expression with every access on the
// managed barriers (the checked build).
func Compile(e Expr) (*Program, error) {
	return CompileWith(e, nil)
}

// CompileWith lowers e to Go closures, consulting an (when non-nil) to
// close proven sites over the unchecked accessors. Both builds are the
// same tree; they differ only in which accessor each site calls.
func CompileWith(e Expr, an *Analysis) (*Program, error) {
	c := &compiler{an: an, metas: map[Expr]*fnMeta{}}
	if an != nil {
		c.types = an.types
	} else {
		ch := newChecker()
		if _, err := ch.infer(nil, e); err != nil {
			return nil, err
		}
		c.types = ch.types
	}
	for {
		c.prog, c.stale = &Program{}, false
		ctx, top := &fnCtx{fn: &function{name: "main"}}, &fnCtx{}
		ctx.fn.body = c.expr(ctx, e)
		if c.err != nil {
			return nil, c.err
		}
		if !c.stale {
			top.nest(ctx, "main")
			c.prog.main, c.prog.listing = ctx.fn, strings.Join(top.lines, "\n")+"\n"
			return c.prog, nil
		}
	}
}

func (c *compiler) fail(e Expr, format string, args ...any) code {
	if c.err == nil {
		c.err = typeErr(e, format, args...)
	}
	return nil
}

// meta returns key's facts, created on first sight as assumed (see
// fnMeta) or, when the first sight is a value position, as a heap closure.
func (c *compiler) meta(key Expr, escapes bool) *fnMeta {
	m := c.metas[key]
	if m == nil {
		m = &fnMeta{heap: escapes, arity: 1}
		body := key
		switch k := key.(type) {
		case *LetFun:
			body = k.FBody
		case *Fn:
			body = k.Body
		}
		for f, ok := body.(*Fn); ok; f, ok = f.Body.(*Fn) {
			m.arity++
		}
		c.metas[key] = m
	} else if escapes {
		c.escape(m)
	}
	return m
}

// escape records that m's function or pair must be a heap object after all.
func (c *compiler) escape(m *fnMeta) {
	if !m.heap {
		m.heap, c.stale = true, true
	}
}

// uses notes a call of a direct function with n arguments.
func (c *compiler) uses(m *fnMeta, n int) {
	if n < m.arity {
		m.arity, c.stale = n, true
	}
}

// lookup resolves name from ctx to its binding and the number of static
// links between ctx's activation and the binding's. A heap closure has no
// static link: what it names outside itself becomes a capture, copied
// into its own frame on entry — and a direct function or unboxed pair
// named from there must become a heap object, since its frame may be gone.
func (c *compiler) lookup(ctx *fnCtx, name string) (*binding, int) {
	for depth, cx := 0, ctx; cx != nil; depth, cx = depth+1, cx.parent {
		for i := len(cx.vars) - 1; i >= 0; i-- {
			if cx.vars[i].name == name {
				return cx.vars[i], depth
			}
		}
		if cx.heap {
			outer, _ := c.lookup(cx.parent, name)
			if outer == nil {
				return nil, 0
			}
			if outer.meta != nil {
				c.escape(outer.meta)
				return outer, depth
			}
			b := &binding{name: name, slot: cx.temp()}
			cx.caps, cx.fn.capSlots = append(cx.caps, name), append(cx.fn.capSlots, b.slot)
			cx.vars = append([]*binding{b}, cx.vars...)
			return b, depth
		}
	}
	return nil, 0
}

func (c *compiler) variable(ctx *fnCtx, name string, at Expr) code {
	b, depth := c.lookup(ctx, name)
	if b == nil {
		return c.fail(at, "unbound variable %s", name)
	}
	if b.meta != nil { // a direct function or an unboxed pair used as a value
		c.escape(b.meta)
		return nil
	}
	return slotCode(depth, b.slot)
}

func slotCode(depth, slot int) code {
	switch depth {
	case 0:
		return func(_ *mpl.Task, e env) mem.Value { return e.Get(slot) }
	case 1:
		return func(_ *mpl.Task, e env) mem.Value { return e.up.Get(slot) }
	case 2:
		return func(_ *mpl.Task, e env) mem.Value { return e.up.up.Get(slot) }
	}
	return func(_ *mpl.Task, e env) mem.Value { return e.link(depth).Get(slot) }
}

// again is what a direct function's body returns after a tail self call
// re-bound its parameters: run the body once more in the same activation.
// It is no program value (references stay below bit 59, integers are odd).
const again mem.Value = 1 << 63

// lower compiles a direct function: arity curried parameters, starting
// with param, share one activation.
func (c *compiler) lower(parent *fnCtx, fn *function, arity int, param string, body Expr) {
	sub := &fnCtx{fn: fn, parent: parent}
	for sub.bind(param); fn.nslots < arity; sub.bind(param) {
		inner := body.(*Fn)
		param, body = inner.Param, inner.Body
	}
	once := c.lowerIn(sub, body, true)
	if fn.body = once; sub.loops {
		fn.body = func(t *mpl.Task, e env) mem.Value {
			for {
				if v := once(t, e); v != again {
					return v
				}
			}
		}
	}
	parent.nest(sub, "fun %s/%d direct", fn.name, arity)
}

// let lowers `let val name = bind in rest end` for a bind already lowered.
func (c *compiler) let(ctx *fnCtx, name string, bind code, rest Expr, tail bool) code {
	slot := ctx.bind(name)
	body := c.lowerIn(ctx, rest, tail)
	ctx.unbind()
	return func(t *mpl.Task, e env) mem.Value {
		e.Set(slot, bind(t, e))
		return body(t, e)
	}
}

// define lowers `let fun name param = fbody in rest` (rec) and `let val
// name = fn param => fbody in rest`. A direct function costs nothing
// here: its binding only tells call sites where to jump.
func (c *compiler) define(ctx *fnCtx, key Expr, name string, rec bool, param string, fbody, rest Expr, tail bool) code {
	m := c.meta(key, false)
	if m.heap {
		return c.let(ctx, name, c.closure(ctx, name, param, fbody), rest, tail)
	}
	b := &binding{name: name, fn: &function{name: name}, meta: m}
	if rec {
		ctx.vars = append(ctx.vars, b)
	}
	c.lower(ctx, b.fn, m.arity, param, fbody)
	if !rec {
		ctx.vars = append(ctx.vars, b)
	}
	body := c.lowerIn(ctx, rest, tail)
	ctx.unbind()
	return body
}

// closure lowers a function that escapes to the allocation of its heap
// tuple [index, captures...]. self names the closure inside its own body
// ("" for a literal, which no variable is called).
func (c *compiler) closure(ctx *fnCtx, self, param string, body Expr) code {
	sub := &fnCtx{fn: &function{name: self}, parent: ctx, heap: true}
	sub.bind(self)
	sub.bind(param)
	index := mem.Int(int64(len(c.prog.funcs)))
	c.prog.funcs = append(c.prog.funcs, sub.fn)
	sub.fn.body = c.expr(sub, body)
	caps := make([]code, len(sub.caps))
	for i, name := range sub.caps {
		caps[i] = c.variable(ctx, name, body)
	}
	ctx.nest(sub, "fn %s heap captures=%v", self, sub.caps)
	return func(t *mpl.Task, e env) mem.Value {
		var buf [4]mem.Value
		vs := append(buf[:0], index)
		for _, v := range caps {
			vs = append(vs, v(t, e))
		}
		return t.AllocTuple(vs...).Value()
	}
}

// activate pushes the activation frame of closure clo and roots it there.
func (p *Program) activate(t *mpl.Task, clo mem.Value) (*function, mpl.Frame) {
	fn := p.funcs[t.Read(clo.Ref(), 0).AsInt()]
	f := t.NewFrame(fn.nslots)
	f.Set(0, clo)
	return fn, f
}

// enter runs a heap closure in f, which holds the closure and its argument.
func (fn *function) enter(t *mpl.Task, f mpl.Frame) mem.Value {
	for i, s := range fn.capSlots {
		f.Set(s, t.Read(f.Ref(0), 1+i))
	}
	v := fn.body(t, env{Frame: f})
	f.Pop()
	return v
}

func (p *Program) apply(t *mpl.Task, clo, arg mem.Value) mem.Value {
	fn, f := p.activate(t, clo)
	f.Set(1, arg)
	return fn.enter(t, f)
}

// app lowers an application spine. A saturated call of a direct function
// pushes the callee's frame first and evaluates the arguments straight
// into it, so they are rooted from the moment they exist; so does a call
// of a closure value, whose frame size is known once the callee is. A
// self call in tail position parks the arguments, moves them into the
// parameters and has the body run again: loops take no stack.
func (c *compiler) app(ctx *fnCtx, e *App, tail bool) code {
	head, args := Expr(e), []Expr(nil)
	for a, ok := head.(*App); ok; a, ok = head.(*App) {
		head, args = a.Fun, append([]Expr{a.Arg}, args...)
	}
	var f code
	if v, ok := head.(*Var); ok {
		if b, hops := c.lookup(ctx, v.Name); b != nil && b.fn != nil {
			c.uses(b.meta, len(args))
			fn, as := b.fn, make([]code, b.meta.arity)
			for i := range as {
				as[i] = c.expr(ctx, args[i])
			}
			if args = args[len(as):]; tail && fn == ctx.fn && len(args) == 0 {
				ctx.loops = true
				ctx.logf("call %s direct tail", fn.name)
				park := ctx.fn.nslots
				ctx.fn.nslots += len(as)
				return func(t *mpl.Task, e env) mem.Value {
					for i, a := range as {
						e.Set(park+i, a(t, e))
					}
					for i := range as {
						e.Set(i, e.Get(park+i))
					}
					return again
				}
			}
			ctx.logf("call %s direct", fn.name)
			f = func(t *mpl.Task, e env) mem.Value {
				fr := t.NewFrame(fn.nslots)
				for i, a := range as {
					fr.Set(i, a(t, e))
				}
				v := fn.body(t, env{fr, e.link(hops)})
				fr.Pop()
				return v
			}
		}
	}
	if f == nil {
		f = c.expr(ctx, head)
	}
	prog := c.prog
	for _, x := range args {
		callee, arg := f, c.expr(ctx, x)
		ctx.logf("call closure")
		f = func(t *mpl.Task, e env) mem.Value {
			fn, fr := prog.activate(t, callee(t, e))
			fr.Set(1, arg(t, e))
			return fn.enter(t, fr)
		}
	}
	return f
}

// operand is one of several values an operation needs at once: eval (if
// any) runs in operand order, get (if any) once all of them have run,
// and the value is get's, else eval's.
type operand struct{ eval, get code }

// operands lowers xs for left-to-right evaluation. A value may wait in a
// Go local while later operands evaluate only if nothing can move it: it
// is the last one, or its type says it is an immediate. A variable is
// not evaluated early at all — reading one has no effect and its slot is
// always current. Any other operand is parked in a frame slot by eval
// and fetched — moved, possibly — by get.
func (c *compiler) operands(ctx *fnCtx, xs ...Expr) []operand {
	ops := make([]operand, len(xs))
	for i, x := range xs {
		ev := c.expr(ctx, x)
		if _, ok := x.(*Var); ok {
			ops[i].get = ev
		} else if ops[i].eval = ev; i < len(xs)-1 && !immediateType(c.types[x]) {
			slot := ctx.temp()
			ops[i].eval = func(t *mpl.Task, e env) mem.Value { e.Set(slot, ev(t, e)); return mem.Nil }
			ops[i].get = slotCode(0, slot)
		}
	}
	return ops
}

// values evaluates ops into vs.
func values(t *mpl.Task, e env, ops []operand, vs []mem.Value) {
	for i, o := range ops {
		if o.eval != nil {
			vs[i] = o.eval(t, e)
		}
	}
	for i, o := range ops {
		if o.get != nil {
			vs[i] = o.get(t, e)
		}
	}
}

func constant(v mem.Value) code { return func(*mpl.Task, env) mem.Value { return v } }

var unit = mem.Int(0)

func (c *compiler) expr(ctx *fnCtx, e Expr) code { return c.lowerIn(ctx, e, false) }

// lowerIn lowers e; tail says that e's value is its function's result.
func (c *compiler) lowerIn(ctx *fnCtx, e Expr, tail bool) code {
	switch e := e.(type) {
	case *IntLit:
		return constant(mem.Int(e.Val))
	case *BoolLit:
		return constant(mem.Bool(e.Val))
	case *UnitLit:
		return constant(unit)
	case *StrLit:
		s := e.Val
		return func(t *mpl.Task, _ env) mem.Value { return t.AllocString(s).Value() }
	case *Var:
		return c.variable(ctx, e.Name, e)
	case *Fn:
		c.meta(e, true)
		return c.closure(ctx, "", e.Param, e.Body)
	case *App:
		return c.app(ctx, e, tail)
	case *Let:
		if f, ok := e.Bind.(*Fn); ok && !c.meta(f, false).heap {
			return c.define(ctx, f, e.Name, false, f.Param, f.Body, e.Body, tail)
		}
		if p, ok := e.Bind.(*Par); ok && !c.meta(p, false).heap {
			fork, slot, _ := c.par(ctx, p), ctx.temp(), ctx.temp()
			ctx.vars = append(ctx.vars, &binding{name: e.Name, slot: slot, meta: c.meta(p, false)})
			body := c.lowerIn(ctx, e.Body, tail)
			ctx.unbind()
			return func(t *mpl.Task, e env) mem.Value {
				lv, rv := fork(t, e)
				e.Set(slot, lv)
				e.Set(slot+1, rv)
				return body(t, e)
			}
		}
		return c.let(ctx, e.Name, c.expr(ctx, e.Bind), e.Body, tail)
	case *LetFun:
		return c.define(ctx, e, e.Name, true, e.Param, e.FBody, e.Body, tail)
	case *If:
		cond, then, els := c.expr(ctx, e.Cond), c.lowerIn(ctx, e.Then, tail), c.lowerIn(ctx, e.Else, tail)
		return func(t *mpl.Task, e env) mem.Value {
			if cond(t, e).AsBool() {
				return then(t, e)
			}
			return els(t, e)
		}
	case *Tuple:
		ops := c.operands(ctx, e.Elems...)
		return func(t *mpl.Task, e env) mem.Value {
			var buf [4]mem.Value
			vs := append(buf[:0], make([]mem.Value, len(ops))...)
			values(t, e, ops, vs)
			return t.AllocTuple(vs...).Value()
		}
	case *Proj:
		if v, ok := e.Arg.(*Var); ok {
			if b, depth := c.lookup(ctx, v.Name); b != nil && b.meta != nil && b.fn == nil {
				return slotCode(depth, b.slot+e.Index-1)
			}
		}
		tup, i := c.expr(ctx, e.Arg), e.Index-1
		return func(t *mpl.Task, e env) mem.Value { return t.Read(tup(t, e).Ref(), i) }
	case *Par:
		fork := c.par(ctx, e)
		return func(t *mpl.Task, e env) mem.Value {
			lv, rv := fork(t, e)
			return t.AllocTuple(lv, rv).Value()
		}
	case *Prim:
		return c.prim(ctx, e, tail)
	}
	return c.fail(e, "internal: unknown expression %T", e)
}

// par lowers a fork to a function of both results, which are safe to hold
// until the next allocation. Each side is a direct function of no
// parameters that the branch's own task activates, linked to the forking
// activation.
func (c *compiler) par(ctx *fnCtx, e *Par) func(*mpl.Task, env) (mem.Value, mem.Value) {
	var fns [2]*function
	for i, x := range []Expr{e.Left, e.Right} {
		sub := &fnCtx{fn: &function{name: "par"}, parent: ctx}
		sub.fn.body = c.expr(sub, x)
		ctx.nest(sub, "par branch direct")
		fns[i] = sub.fn
	}
	return func(t *mpl.Task, e env) (mem.Value, mem.Value) {
		var bad fault
		up := e.link(0)
		lv, rv := t.Par(fns[0].strand(up, &bad), fns[1].strand(up, &bad))
		bad.rethrow()
		return lv, rv
	}
}

// loopFn lowers the function operand of tabulate (arity 1) and reduce
// (arity 2) to a direct function the leaves activate in place. A known
// function or a literal is entered as it stands, pre a no-op; any other
// closure value is parked by pre in the caller's frame and applied there.
func (c *compiler) loopFn(ctx *fnCtx, x Expr, arity int) (pre code, fn *function, hops int) {
	switch x := x.(type) {
	case *Var:
		if b, hops := c.lookup(ctx, x.Name); b != nil && b.fn != nil {
			if c.uses(b.meta, arity); b.meta.arity == arity {
				ctx.logf("call %s direct", b.fn.name)
				return constant(unit), b.fn, hops
			}
		}
	case *Fn:
		if m := c.meta(x, false); !m.heap && m.arity >= arity {
			m.arity, fn = arity, &function{name: "fn"}
			c.lower(ctx, fn, arity, x.Param, x.Body)
			return constant(unit), fn, 0
		}
	}
	val, slot, prog := c.expr(ctx, x), ctx.temp(), c.prog
	ctx.logf("call closure")
	fn = &function{name: "apply", nslots: arity}
	fn.body = func(t *mpl.Task, e env) mem.Value {
		v := prog.apply(t, e.up.Get(slot), e.Get(0))
		if arity == 2 {
			v = prog.apply(t, v, e.Get(1))
		}
		return v
	}
	return func(t *mpl.Task, e env) mem.Value { e.Set(slot, val(t, e)); return unit }, fn, 0
}

// site reports whether the analysis proved access site e, and lists it.
func (c *compiler) site(ctx *fnCtx, e *Prim) bool {
	line, col := e.Pos()
	fast := c.an.FastSite(e)
	ctx.logf("%d:%d %s %s", line, col, e.Op, map[bool]string{true: "fast", false: "checked"}[fast])
	return fast
}

func (c *compiler) prim(ctx *fnCtx, e *Prim, tail bool) code {
	switch e.Op {
	case "+", "-", "*", "div", "mod", "<", "<=", ">", ">=", "=", "<>":
		return arith(e.Op, c.expr(ctx, e.Args[0]), c.expr(ctx, e.Args[1]))
	case "andalso", "orelse":
		l, r, stop := c.expr(ctx, e.Args[0]), c.expr(ctx, e.Args[1]), e.Op == "orelse"
		return func(t *mpl.Task, e env) mem.Value {
			if v := l(t, e); v.AsBool() == stop {
				return v
			}
			return r(t, e)
		}
	case "~":
		x := c.expr(ctx, e.Args[0])
		return func(t *mpl.Task, e env) mem.Value { return mem.Int(-x(t, e).AsInt()) }
	case "not":
		x := c.expr(ctx, e.Args[0])
		return func(t *mpl.Task, e env) mem.Value { return mem.Bool(!x(t, e).AsBool()) }
	case ";":
		first, then := c.expr(ctx, e.Args[0]), c.lowerIn(ctx, e.Args[1], tail)
		return func(t *mpl.Task, e env) mem.Value {
			first(t, e)
			return then(t, e)
		}
	case "print":
		x, prog := c.expr(ctx, e.Args[0]), c.prog
		return func(t *mpl.Task, e env) mem.Value {
			fmt.Fprintf(prog.out, "%d\n", x(t, e).AsInt())
			return unit
		}
	case "length":
		x := c.expr(ctx, e.Args[0])
		return func(t *mpl.Task, e env) mem.Value { return mem.Int(int64(t.Length(x(t, e).Ref()))) }
	case "ref":
		x, alloc := c.expr(ctx, e.Args[0]), (*mpl.Task).AllocRef
		if c.site(ctx, e) {
			alloc = (*mpl.Task).AllocRefFast
		}
		return func(t *mpl.Task, e env) mem.Value { return alloc(t, x(t, e)).Value() }
	case "array":
		n, x, alloc := c.expr(ctx, e.Args[0]), c.expr(ctx, e.Args[1]), (*mpl.Task).AllocArray
		if c.site(ctx, e) {
			alloc = (*mpl.Task).AllocArrayFast
		}
		return func(t *mpl.Task, e env) mem.Value {
			n := n(t, e).AsInt()
			if n < 0 {
				throw("array size %d", n)
			}
			return alloc(t, int(n), x(t, e)).Value()
		}
	case "!":
		x, fast := c.expr(ctx, e.Args[0]), c.site(ctx, e)
		return func(t *mpl.Task, e env) mem.Value {
			if fast {
				return t.DerefFast(x(t, e).Ref())
			}
			return t.Deref(x(t, e).Ref())
		}
	case ":=":
		ops, fast := c.operands(ctx, e.Args...), c.site(ctx, e)
		return func(t *mpl.Task, e env) mem.Value {
			var vs [2]mem.Value
			if values(t, e, ops, vs[:]); fast {
				t.AssignFast(vs[0].Ref(), vs[1])
			} else {
				t.Assign(vs[0].Ref(), vs[1])
			}
			return unit
		}
	case "sub", "update":
		ops, fast, store := c.operands(ctx, e.Args...), c.site(ctx, e), e.Op == "update"
		return func(t *mpl.Task, e env) mem.Value {
			var vs [3]mem.Value
			values(t, e, ops, vs[:len(ops)])
			r, i := vs[0].Ref(), vs[1].AsInt()
			if i < 0 || int(i) >= t.Length(r) {
				throw("index %d out of bounds [0,%d)", i, t.Length(r))
			}
			switch {
			case !store && fast:
				return t.ReadFast(r, int(i))
			case !store:
				return t.Read(r, int(i))
			case fast:
				t.WriteFast(r, int(i), vs[2])
			default:
				t.Write(r, int(i), vs[2])
			}
			return unit
		}
	case "tabulate":
		return c.tabulate(ctx, e)
	case "reduce":
		return c.reduce(ctx, e)
	}
	return c.fail(e, "internal: unknown primitive %q", e.Op)
}

// arith lowers an integer operator to its own closure. Both operands are
// immediates, so neither needs a root while the other evaluates.
func arith(op string, l, r code) code {
	switch op {
	case "+":
		return func(t *mpl.Task, e env) mem.Value { return mem.Int(l(t, e).AsInt() + r(t, e).AsInt()) }
	case "-":
		return func(t *mpl.Task, e env) mem.Value { return mem.Int(l(t, e).AsInt() - r(t, e).AsInt()) }
	case "*":
		return func(t *mpl.Task, e env) mem.Value { return mem.Int(l(t, e).AsInt() * r(t, e).AsInt()) }
	case "div":
		return func(t *mpl.Task, e env) mem.Value { return mem.Int(floorDiv(l(t, e).AsInt(), r(t, e).AsInt())) }
	case "mod":
		return func(t *mpl.Task, e env) mem.Value {
			a, b := l(t, e).AsInt(), r(t, e).AsInt()
			return mem.Int(a - b*floorDiv(a, b))
		}
	case "<":
		return func(t *mpl.Task, e env) mem.Value { return mem.Bool(l(t, e).AsInt() < r(t, e).AsInt()) }
	case "<=":
		return func(t *mpl.Task, e env) mem.Value { return mem.Bool(l(t, e).AsInt() <= r(t, e).AsInt()) }
	case ">":
		return func(t *mpl.Task, e env) mem.Value { return mem.Bool(l(t, e).AsInt() > r(t, e).AsInt()) }
	case ">=":
		return func(t *mpl.Task, e env) mem.Value { return mem.Bool(l(t, e).AsInt() >= r(t, e).AsInt()) }
	case "=":
		return func(t *mpl.Task, e env) mem.Value { return mem.Bool(l(t, e).AsInt() == r(t, e).AsInt()) }
	}
	return func(t *mpl.Task, e env) mem.Value { return mem.Bool(l(t, e).AsInt() != r(t, e).AsInt()) }
}

// floorDiv is ML's div: the quotient rounded toward negative infinity
// (mod is what it leaves, so it takes the divisor's sign).
func floorDiv(a, b int64) int64 {
	if b == 0 {
		throw("division by zero")
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
