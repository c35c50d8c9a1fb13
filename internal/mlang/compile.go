package mlang

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"mplgo/internal/mem"
	"mplgo/mpl"
)

// code is one lowered expression: a Go closure that evaluates it on task t
// in activation a. The compiler builds one per AST node, once.
type code func(t *mpl.Task, a *act) mem.Value

// act is one activation. Its storage is split by what a collection must
// see: f holds the root slots — values of reference type that are live
// across an allocation point, or read from another activation — and is a
// Task frame only while the function has any; v holds everything else
// (immediates, references dead at every allocation point), which no
// collector scans. up is the static link: the activation of the lexically
// enclosing function, through which a direct function, a par branch or a
// tabulate/reduce body reads the variables it closes over.
//
// Activations are recycled, so a call allocates nothing: a strand (main, a
// par branch, a loop leaf) takes its first activation from the program's
// free list, and a call made in a runs in a.next, created on first use.
// fork, tab and red are the records a par, tabulate or reduce started in a
// reuses.
type act struct {
	v    []mem.Value
	f    mpl.Frame
	up   *act
	next *act
	home *stacks // the free list a's strand came from
	fork *fork
	tab  *tabulation
	red  *reduction
}

// loc is where a variable or a temporary lives in its activation: root
// slot i of the frame, or plain slot i.
type loc struct {
	root bool
	i    int
}

func (a *act) get(l loc) mem.Value {
	if l.root {
		return a.f.Get(l.i)
	}
	return a.v[l.i]
}

func (a *act) set(l loc, v mem.Value) {
	if l.root {
		a.f.Set(l.i, v)
	} else {
		a.v[l.i] = v
	}
}

// link returns the activation hops static links up from a.
func (a *act) link(hops int) *act {
	for ; hops > 0; hops-- {
		a = a.up
	}
	return a
}

// stacks is a program's free list of strand activations, each with the
// chain of callee activations it grew: LIFO, so a strand takes back the
// chain the last one left.
type stacks struct {
	mu   sync.Mutex
	free []*act
}

func (s *stacks) get() *act {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return &act{home: s}
	}
	a := s.free[n-1]
	s.free = s.free[:n-1]
	return a
}

func (s *stacks) put(a *act) {
	s.mu.Lock()
	s.free = append(s.free, a)
	s.mu.Unlock()
}

// enter prepares a for a run of fn linked to up: fn's plain slots, and a
// frame of its root slots if it has any. Plain slot 0 is no variable's: it
// stays zero (see arg).
func (a *act) enter(t *mpl.Task, fn *function, up *act) {
	if len(a.v) <= fn.nplain || len(fn.roots) > 0 {
		a.storage(t, fn)
	}
	a.up = up
}

func (a *act) storage(t *mpl.Task, fn *function) {
	if len(a.v) <= fn.nplain {
		a.v = make([]mem.Value, 1+fn.nplain)
	}
	if len(fn.roots) > 0 {
		a.f = t.NewFrame(len(fn.roots))
	}
}

// callee returns the activation a call made in a runs fn in.
func (a *act) callee(t *mpl.Task, fn *function, up *act) *act {
	c := a.next
	if c == nil {
		c = &act{home: a.home}
		a.next = c
	}
	c.enter(t, fn, up)
	return c
}

// leave pops what enter pushed.
func (fn *function) leave(a *act) {
	if len(fn.roots) > 0 {
		a.f.Pop()
	}
}

// strand runs fn, linked to up, in an activation of its own from home: the
// body of a par branch, or main. A fault unwinds past it and drops the
// activation.
func (fn *function) strand(t *mpl.Task, home *stacks, up *act) mem.Value {
	a := home.get()
	a.enter(t, fn, up)
	v := fn.body(t, a)
	fn.leave(a)
	home.put(a)
	return v
}

// function is one lowered function: main, a direct function (entered from
// Go closures), a par branch, or a heap closure.
type function struct {
	name      string
	nplain    int      // plain slots, numbered from 1
	roots     []string // the root slots, named for the listing
	params    []loc    // direct: the merged curried parameters; heap: the argument
	self      loc      // heap closures: the closure value
	caps      []loc    // heap closures: where tuple field 1+i goes
	allocates bool     // the body has an allocation point
	body      code
}

// Program is a compiled mlang program.
type Program struct {
	main    *function
	funcs   []*function // heap closures, indexed by their tuple's field 0
	listing string
	out     io.Writer // print's sink, set by NewMachine
	acts    stacks
}

// Listing renders the lowered tree, one line per function, call and access
// site: functions and calls say direct or heap, sites fast or checked, and
// each function how many plain slots it has and which root slots.
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

// rootKey names a binder across lowering passes: the node that binds it,
// the name, and which part (0 a value or parameter, 1 a closure's self, 2
// a capture, 3 and 4 the halves of an unboxed pair).
type rootKey struct {
	at   Expr
	name string
	part int
}

// binding is a name in scope: storage (one loc, or two for an unboxed
// pair), or with fn set a direct function, which has none.
type binding struct {
	name  string
	locs  []loc
	key   rootKey
	epoch int // the binder's allocation points before this one was bound
	fn    *function
	meta  *fnMeta
}

// fnCtx is the function being lowered.
type fnCtx struct {
	fn     *function
	parent *fnCtx
	at     Expr       // heap closures: the body, which keys the captures
	heap   bool       // a heap closure: outer variables arrive as captures
	loops  bool       // a tail self call was lowered: the body returns again
	epoch  int        // allocation points lowered on the path to here
	vars   []*binding // captures, then parameters and locals, innermost last
	caps   []string   // heap: captured names, in tuple order
	capAt  []Expr     // heap: the read that made each capture
	lines  []string   // listing of the body
}

// slot takes a fresh root or plain slot of ctx's function.
func (ctx *fnCtx) slot(root bool, name string) loc {
	if root {
		ctx.fn.roots = append(ctx.fn.roots, name)
		return loc{true, len(ctx.fn.roots) - 1}
	}
	ctx.fn.nplain++
	return loc{false, ctx.fn.nplain}
}

// alloc notes an allocation point: a collection may run there, so a
// reference read after it must have been in a root slot across it.
func (ctx *fnCtx) alloc() { ctx.epoch++ }

func (ctx *fnCtx) unbind() { ctx.vars = ctx.vars[:len(ctx.vars)-1] }

func (ctx *fnCtx) logf(format string, args ...any) {
	ctx.lines = append(ctx.lines, fmt.Sprintf(format, args...))
}

// nest appends sub's listing under a header naming its function.
func (ctx *fnCtx) nest(sub *fnCtx, format string, args ...any) {
	ctx.logf(format+" plain=%d roots=[%s]", append(args, sub.fn.nplain, strings.Join(sub.fn.roots, " "))...)
	for _, l := range sub.lines {
		ctx.lines = append(ctx.lines, "  "+l)
	}
}

type compiler struct {
	an     *Analysis // nil lowers every access through the managed barriers
	types  map[Expr]Type
	prog   *Program
	metas  map[Expr]*fnMeta
	rooted map[rootKey]bool // binders a read has shown to need a root slot
	stale  bool             // a meta or a rooting changed under code already lowered: lower again
	err    error
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
	c := &compiler{an: an, metas: map[Expr]*fnMeta{}, rooted: map[rootKey]bool{}}
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

// bind binds name in ctx to n fresh slots (two for an unboxed pair), each a
// root slot if an earlier pass found a read that needs one.
func (c *compiler) bind(ctx *fnCtx, key rootKey, name string, n int) *binding {
	b := &binding{name: name, key: key, epoch: ctx.epoch}
	for i := 0; i < n; i++ {
		k := key
		k.part += i
		b.locs = append(b.locs, ctx.slot(c.rooted[k], name))
	}
	ctx.vars = append(ctx.vars, b)
	return b
}

// lookup resolves name from ctx to its binding and the number of static
// links between ctx's activation and the binding's. A heap closure has no
// static link: what it names outside itself becomes a capture, copied
// into its own frame on entry — and a direct function or unboxed pair
// named from there must become a heap object, since its frame may be gone.
// at is the read, whose type a new capture takes.
func (c *compiler) lookup(ctx *fnCtx, name string, at Expr) (*binding, int) {
	for depth, cx := 0, ctx; cx != nil; depth, cx = depth+1, cx.parent {
		for i := len(cx.vars) - 1; i >= 0; i-- {
			if cx.vars[i].name == name {
				return cx.vars[i], depth
			}
		}
		if cx.heap {
			outer, _ := c.lookup(cx.parent, name, at)
			if outer == nil {
				return nil, 0
			}
			if outer.meta != nil {
				c.escape(outer.meta)
				return outer, depth
			}
			key := rootKey{cx.at, name, 2}
			b := &binding{name: name, key: key, locs: []loc{cx.slot(c.rooted[key], name)}}
			cx.caps, cx.capAt = append(cx.caps, name), append(cx.capAt, at)
			cx.fn.caps = append(cx.fn.caps, b.locs[0])
			cx.vars = append([]*binding{b}, cx.vars...)
			return b, depth
		}
	}
	return nil, 0
}

// read is the rooting rule, applied at every read of part of b from ctx,
// depth static links below b's activation, by the node at (whose type is
// the value's): a reference needs a root slot when it is read from another
// activation — a callee, branch or leaf that may run after allocations —
// or after an allocation point of its own activation. Immediates never do.
// A rooting found here takes effect in the next lowering pass.
func (c *compiler) read(ctx *fnCtx, b *binding, depth, part int, at Expr) loc {
	l := b.locs[part]
	if !l.root && !immediateType(c.types[at]) && (depth > 0 || ctx.epoch > b.epoch) {
		k := b.key
		k.part += part
		c.rooted[k], c.stale = true, true
	}
	return l
}

// slotRef resolves x when it reads storage: a variable, or a half of an
// unboxed pair. ok is false for anything else, and for a variable that is
// a direct function or a pair used as a value (which then escapes).
func (c *compiler) slotRef(ctx *fnCtx, x Expr) (l loc, depth int, ok bool) {
	switch x := x.(type) {
	case *Var:
		return c.resolve(ctx, x.Name, x)
	case *Proj:
		if v, ok := x.Arg.(*Var); ok {
			if b, depth := c.lookup(ctx, v.Name, v); b != nil && b.meta != nil && b.fn == nil {
				return c.read(ctx, b, depth, x.Index-1, x), depth, true
			}
		}
	}
	return loc{}, 0, false
}

func slotCode(depth int, l loc) code {
	i := l.i
	switch {
	case depth == 0 && !l.root:
		return func(_ *mpl.Task, a *act) mem.Value { return a.v[i] }
	case depth == 0:
		return func(_ *mpl.Task, a *act) mem.Value { return a.f.Get(i) }
	case depth == 1 && !l.root:
		return func(_ *mpl.Task, a *act) mem.Value { return a.up.v[i] }
	case depth == 1:
		return func(_ *mpl.Task, a *act) mem.Value { return a.up.f.Get(i) }
	case depth == 2 && !l.root:
		return func(_ *mpl.Task, a *act) mem.Value { return a.up.up.v[i] }
	case depth == 2:
		return func(_ *mpl.Task, a *act) mem.Value { return a.up.up.f.Get(i) }
	}
	return func(_ *mpl.Task, a *act) mem.Value { return a.link(depth).get(l) }
}

// arg is an operand fused into the node that consumes it: plain slot i of
// the activation at hand, a constant v (read as slot 0, which is always
// zero, or'd with v), or any other code c. get is small enough to inline,
// so a fused node reads constants and local slots with no call.
type arg struct {
	i int
	v mem.Value
	c code
}

func (x *arg) get(t *mpl.Task, a *act) mem.Value {
	if x.c == nil {
		return a.v[x.i] | x.v
	}
	return x.c(t, a)
}

// arg lowers x to a fused operand.
func (c *compiler) arg(ctx *fnCtx, x Expr) arg {
	switch k := x.(type) {
	case *IntLit:
		return arg{v: mem.Int(k.Val)}
	case *BoolLit:
		return arg{v: mem.Bool(k.Val)}
	case *UnitLit:
		return arg{v: unit}
	}
	if l, depth, ok := c.slotRef(ctx, x); ok {
		return slotArg(depth, l)
	}
	return arg{c: c.expr(ctx, x)}
}

func slotArg(depth int, l loc) arg {
	if depth == 0 && !l.root {
		return arg{i: l.i}
	}
	return arg{c: slotCode(depth, l)}
}

// item is one operand to lower: x, or (x nil) a value already lowered to
// pre, boxed or not.
type item struct {
	x     Expr
	pre   code
	boxed bool
}

func exprItems(xs []Expr) []item {
	items := make([]item, len(xs))
	for i, x := range xs {
		items[i].x = x
	}
	return items
}

// operand is one of several values an operation needs at once: now (if
// any) runs in operand order, late (if any) once all of them have run, and
// the value is late's, else now's.
type operand struct {
	now, late       arg
	hasNow, hasLate bool
}

// operands lowers items for left-to-right evaluation. A value may wait in a
// Go local while later operands evaluate unless one of them is an
// allocation point and the value is a reference. Then a read of storage (a
// variable, a projection of one) is not made until the others are done —
// it has no effect, and its slot is current — and any other operand is
// parked in a root slot by now and re-read by late.
func (c *compiler) operands(ctx *fnCtx, items []item) []operand {
	ops, at := make([]operand, len(items)), make([]int, len(items))
	deferred := func(x Expr) bool {
		if p, ok := x.(*Proj); ok {
			x = p.Arg
		}
		_, ok := x.(*Var)
		return ok
	}
	for i, it := range items {
		switch {
		case it.x == nil:
			ops[i].now, ops[i].hasNow = arg{c: it.pre}, true
		case !deferred(it.x):
			ops[i].now, ops[i].hasNow = c.arg(ctx, it.x), true
		}
		at[i] = ctx.epoch
	}
	for i, it := range items {
		later := at[i] < ctx.epoch
		switch {
		case it.x != nil && deferred(it.x):
			// Lowered here, after the others: the read is recorded where it runs.
			if a := c.arg(ctx, it.x); later {
				ops[i].late, ops[i].hasLate = a, true
			} else {
				ops[i].now, ops[i].hasNow = a, true
			}
		case later && ops[i].now.c != nil && (it.x == nil && it.boxed || it.x != nil && !immediateType(c.types[it.x])):
			ev, l := ops[i].now, ctx.slot(true, "(operand)")
			ops[i].now = arg{c: func(t *mpl.Task, a *act) mem.Value { a.f.Set(l.i, ev.get(t, a)); return mem.Nil }}
			ops[i].late, ops[i].hasLate = slotArg(0, l), true
		}
	}
	return ops
}

// simple reports whether every operand is read in order, none late.
func simple(ops []operand) bool {
	for i := range ops {
		if ops[i].hasLate {
			return false
		}
	}
	return true
}

// values evaluates ops into vs.
func values(t *mpl.Task, a *act, ops []operand, vs []mem.Value) {
	for i := range ops {
		if ops[i].hasNow {
			vs[i] = ops[i].now.get(t, a)
		}
	}
	for i := range ops {
		if ops[i].hasLate {
			vs[i] = ops[i].late.get(t, a)
		}
	}
}

// scratch returns n words for values, from buf when they fit.
func scratch(buf []mem.Value, n int) []mem.Value {
	if n > len(buf) {
		return make([]mem.Value, n)
	}
	return buf[:n]
}

// resolve finds the storage of variable name, read by at. A direct
// function or an unboxed pair has none: used as a value, it escapes.
func (c *compiler) resolve(ctx *fnCtx, name string, at Expr) (l loc, depth int, ok bool) {
	b, depth := c.lookup(ctx, name, at)
	if b == nil {
		c.fail(at, "unbound variable %s", name)
		return loc{}, 0, false
	}
	if b.meta != nil {
		c.escape(b.meta)
		return loc{}, 0, false
	}
	return c.read(ctx, b, depth, 0, at), depth, true
}

// variable lowers a read of name, made by at.
func (c *compiler) variable(ctx *fnCtx, name string, at Expr) code {
	l, depth, ok := c.resolve(ctx, name, at)
	if !ok {
		return nil
	}
	return slotCode(depth, l)
}

// again is what a direct function's body returns after a tail self call
// re-bound its parameters: run the body once more in the same activation.
// It is no program value (references stay below bit 59, integers are odd).
const again mem.Value = 1 << 63

// lower compiles a direct function: arity curried parameters, starting
// with param (bound by at), share one activation.
func (c *compiler) lower(parent *fnCtx, fn *function, arity int, at Expr, param string, body Expr) {
	sub := &fnCtx{fn: fn, parent: parent}
	for {
		fn.params = append(fn.params, c.bind(sub, rootKey{at, param, 0}, param, 1).locs[0])
		if len(fn.params) == arity {
			break
		}
		inner := body.(*Fn)
		at, param, body = inner, inner.Param, inner.Body
	}
	once := c.lowerIn(sub, body, true)
	if fn.body, fn.allocates = once, sub.epoch > 0; sub.loops {
		fn.body = func(t *mpl.Task, a *act) mem.Value {
			for {
				if v := once(t, a); v != again {
					return v
				}
			}
		}
	}
	parent.nest(sub, "fun %s/%d direct", fn.name, arity)
}

// let lowers `let val name = bind in rest end` for a bind already lowered.
func (c *compiler) let(ctx *fnCtx, key rootKey, bind code, rest Expr, tail bool) code {
	l := c.bind(ctx, key, key.name, 1).locs[0]
	body := c.lowerIn(ctx, rest, tail)
	ctx.unbind()
	i := l.i
	if l.root {
		return func(t *mpl.Task, a *act) mem.Value {
			a.f.Set(i, bind(t, a))
			return body(t, a)
		}
	}
	return func(t *mpl.Task, a *act) mem.Value {
		a.v[i] = bind(t, a)
		return body(t, a)
	}
}

// define lowers `let fun name param = fbody in rest` (rec) and `let val
// name = fn param => fbody in rest`. A direct function costs nothing
// here: its binding only tells call sites where to jump.
func (c *compiler) define(ctx *fnCtx, key Expr, name string, rec bool, param string, fbody, rest Expr, tail bool) code {
	m := c.meta(key, false)
	if m.heap {
		return c.let(ctx, rootKey{key, name, 0}, c.closure(ctx, name, param, fbody), rest, tail)
	}
	b := &binding{name: name, fn: &function{name: name}, meta: m}
	if rec {
		ctx.vars = append(ctx.vars, b)
	}
	c.lower(ctx, b.fn, m.arity, key, param, fbody)
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
	sub := &fnCtx{fn: &function{name: self, allocates: true}, parent: ctx, heap: true, at: body}
	sub.fn.self = c.bind(sub, rootKey{body, self, 1}, self, 1).locs[0]
	sub.fn.params = c.bind(sub, rootKey{body, param, 0}, param, 1).locs
	index := mem.Int(int64(len(c.prog.funcs)))
	c.prog.funcs = append(c.prog.funcs, sub.fn)
	sub.fn.body = c.expr(sub, body)
	caps := make([]code, len(sub.caps))
	for i, name := range sub.caps {
		caps[i] = c.variable(ctx, name, sub.capAt[i])
	}
	ctx.alloc()
	ctx.nest(sub, "fn %s heap captures=%v", self, sub.caps)
	return func(t *mpl.Task, a *act) mem.Value {
		var buf [4]mem.Value
		vs := append(buf[:0], index)
		for _, v := range caps {
			vs = append(vs, v(t, a))
		}
		return t.AllocTuple(vs...).Value()
	}
}

// apply calls closure clo on arg in the activation after a's: the closure,
// its argument and its captures are bound before anything can allocate.
func (p *Program) apply(t *mpl.Task, a *act, clo, arg mem.Value) mem.Value {
	fn := p.funcs[t.Read(clo.Ref(), 0).AsInt()]
	c := a.callee(t, fn, nil)
	c.set(fn.self, clo)
	c.set(fn.params[0], arg)
	for i, l := range fn.caps {
		c.set(l, t.Read(clo.Ref(), 1+i))
	}
	v := fn.body(t, c)
	fn.leave(c)
	return v
}

// app lowers an application spine. The arguments of a saturated call of a
// direct function are operands, evaluated in the caller; the callee's
// activation is entered once they all exist, and they are stored straight
// into its parameters. A call of a closure value is the same with the
// callee as the first operand. A self call in tail position re-binds the
// parameters, all at once after every argument is evaluated, and has the
// body run again: loops take no stack.
func (c *compiler) app(ctx *fnCtx, e *App, tail bool) code {
	head, args := Expr(e), []Expr(nil)
	for a, ok := head.(*App); ok; a, ok = head.(*App) {
		head, args = a.Fun, append([]Expr{a.Arg}, args...)
	}
	var f code
	if v, ok := head.(*Var); ok {
		if b, hops := c.lookup(ctx, v.Name, v); b != nil && b.fn != nil {
			c.uses(b.meta, len(args))
			fn := b.fn
			ops := c.operands(ctx, exprItems(args[:b.meta.arity]))
			if args = args[len(ops):]; tail && fn == ctx.fn && len(args) == 0 {
				ctx.loops = true
				ctx.logf("call %s direct tail", fn.name)
				return rebind(ops, fn.params)
			}
			ctx.alloc()
			ctx.logf("call %s direct", fn.name)
			f = call(fn, hops, ops)
		}
	}
	prog := c.prog
	for i, x := range args {
		callee := item{pre: f, boxed: true}
		if i == 0 && f == nil {
			callee = item{x: head}
		}
		ops := c.operands(ctx, []item{callee, {x: x}})
		ctx.alloc()
		ctx.logf("call closure")
		f = func(t *mpl.Task, a *act) mem.Value {
			var vs [2]mem.Value
			values(t, a, ops, vs[:])
			return prog.apply(t, a, vs[0], vs[1])
		}
	}
	return f
}

// call lowers a call of direct function fn, defined hops static links up.
func call(fn *function, hops int, ops []operand) code {
	if len(ops) == 1 && simple(ops) {
		x := ops[0].now
		return func(t *mpl.Task, a *act) mem.Value {
			v := x.get(t, a)
			c := a.callee(t, fn, a.link(hops))
			c.set(fn.params[0], v)
			r := fn.body(t, c)
			fn.leave(c)
			return r
		}
	}
	return func(t *mpl.Task, a *act) mem.Value {
		var buf [4]mem.Value
		vs := scratch(buf[:], len(ops))
		values(t, a, ops, vs)
		c := a.callee(t, fn, a.link(hops))
		for i, v := range vs {
			c.set(fn.params[i], v)
		}
		r := fn.body(t, c)
		fn.leave(c)
		return r
	}
}

// rebind lowers a tail self call: every argument is evaluated before any
// parameter is overwritten, since the arguments may read them.
func rebind(ops []operand, params []loc) code {
	if len(ops) == 1 && simple(ops) {
		x, p := ops[0].now, params[0]
		return func(t *mpl.Task, a *act) mem.Value {
			a.set(p, x.get(t, a))
			return again
		}
	}
	return func(t *mpl.Task, a *act) mem.Value {
		var buf [4]mem.Value
		vs := scratch(buf[:], len(ops))
		values(t, a, ops, vs)
		for i, v := range vs {
			a.set(params[i], v)
		}
		return again
	}
}

func constant(v mem.Value) code { return func(*mpl.Task, *act) mem.Value { return v } }

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
		ctx.alloc()
		return func(t *mpl.Task, _ *act) mem.Value { return t.AllocString(s).Value() }
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
			fork := c.par(ctx, p)
			ctx.alloc()
			b := c.bind(ctx, rootKey{e, e.Name, 3}, e.Name, 2)
			b.meta = c.meta(p, false)
			body := c.lowerIn(ctx, e.Body, tail)
			ctx.unbind()
			l, r := b.locs[0], b.locs[1]
			return func(t *mpl.Task, a *act) mem.Value {
				lv, rv := fork(t, a)
				a.set(l, lv)
				a.set(r, rv)
				return body(t, a)
			}
		}
		return c.let(ctx, rootKey{e, e.Name, 0}, c.expr(ctx, e.Bind), e.Body, tail)
	case *LetFun:
		return c.define(ctx, e, e.Name, true, e.Param, e.FBody, e.Body, tail)
	case *If:
		if p, ok := e.Cond.(*Prim); ok && p.Op == "not" {
			return c.lowerIn(ctx, &If{pos: e.pos, Cond: p.Args[0], Then: e.Else, Else: e.Then}, tail)
		}
		if p, ok := e.Cond.(*Prim); ok && compares[p.Op] {
			l, r := c.arg(ctx, p.Args[0]), c.arg(ctx, p.Args[1])
			then, els := c.branches(ctx, e, tail)
			return branchOn(p.Op, l, r, then, els)
		}
		cond := c.expr(ctx, e.Cond)
		then, els := c.branches(ctx, e, tail)
		return func(t *mpl.Task, a *act) mem.Value {
			if cond(t, a).AsBool() {
				return then(t, a)
			}
			return els(t, a)
		}
	case *Tuple:
		ops := c.operands(ctx, exprItems(e.Elems))
		ctx.alloc()
		return func(t *mpl.Task, a *act) mem.Value {
			var buf [4]mem.Value
			vs := scratch(buf[:], len(ops))
			values(t, a, ops, vs)
			return t.AllocTuple(vs...).Value()
		}
	case *Proj:
		if l, depth, ok := c.slotRef(ctx, e); ok {
			return slotCode(depth, l)
		}
		tup, i := c.arg(ctx, e.Arg), e.Index-1
		return func(t *mpl.Task, a *act) mem.Value { return t.Read(tup.get(t, a).Ref(), i) }
	case *Par:
		fork := c.par(ctx, e)
		ctx.alloc()
		return func(t *mpl.Task, a *act) mem.Value {
			lv, rv := fork(t, a)
			return t.AllocTuple(lv, rv).Value()
		}
	case *Prim:
		return c.prim(ctx, e, tail)
	}
	return c.fail(e, "internal: unknown expression %T", e)
}

// branches lowers the arms of if e. Each starts from the allocation points
// before the if; after it, either arm's may have run.
func (c *compiler) branches(ctx *fnCtx, e *If, tail bool) (then, els code) {
	before := ctx.epoch
	then = c.lowerIn(ctx, e.Then, tail)
	after := ctx.epoch
	ctx.epoch = before
	els = c.lowerIn(ctx, e.Else, tail)
	ctx.epoch = max(ctx.epoch, after)
	return then, els
}

// par lowers a fork to a function of both results, which are safe to hold
// until the next allocation. Each side is a direct function of no
// parameters that the branch's own task runs in an activation of its own,
// linked to the forking one.
func (c *compiler) par(ctx *fnCtx, e *Par) func(*mpl.Task, *act) (mem.Value, mem.Value) {
	var fns [2]*function
	for i, x := range []Expr{e.Left, e.Right} {
		sub := &fnCtx{fn: &function{name: "par"}, parent: ctx}
		sub.fn.body = c.expr(sub, x)
		ctx.nest(sub, "par branch direct")
		fns[i] = sub.fn
	}
	return func(t *mpl.Task, a *act) (mem.Value, mem.Value) {
		k := a.fork
		if k == nil {
			k = newFork()
			a.fork = k
		}
		k.fns, k.up = fns, a
		lv, rv := t.Par(k.left, k.right)
		k.bad.rethrow()
		return lv, rv
	}
}

// loopFn lowers the function operand of tabulate (arity 1) and reduce
// (arity 2) to a direct function the leaves run in activations of their
// own. A known function or a literal is entered as it stands, pre a no-op;
// any other closure value is parked by pre in a root slot of the caller
// and applied there.
func (c *compiler) loopFn(ctx *fnCtx, x Expr, arity int) (pre code, fn *function, hops int) {
	switch x := x.(type) {
	case *Var:
		if b, hops := c.lookup(ctx, x.Name, x); b != nil && b.fn != nil {
			if c.uses(b.meta, arity); b.meta.arity == arity {
				ctx.logf("call %s direct", b.fn.name)
				return constant(unit), b.fn, hops
			}
		}
	case *Fn:
		if m := c.meta(x, false); !m.heap && m.arity >= arity {
			m.arity, fn = arity, &function{name: "fn"}
			c.lower(ctx, fn, arity, x, x.Param, x.Body)
			return constant(unit), fn, 0
		}
	}
	val, slot, prog := c.expr(ctx, x), ctx.slot(true, "(fn)").i, c.prog
	ctx.logf("call closure")
	// The first parameter is passed on at once; the second waits out the
	// first application, so it is a root slot.
	fn = &function{name: "apply", nplain: 1, params: []loc{{false, 1}, {true, 0}}[:arity], allocates: true}
	if arity == 2 {
		fn.roots = []string{"(element)"}
	}
	fn.body = func(t *mpl.Task, a *act) mem.Value {
		v := prog.apply(t, a, a.up.f.Get(slot), a.v[1])
		if arity == 2 {
			v = prog.apply(t, a, v, a.f.Get(0))
		}
		return v
	}
	return func(t *mpl.Task, a *act) mem.Value { a.f.Set(slot, val(t, a)); return unit }, fn, 0
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
		return arith(e.Op, c.arg(ctx, e.Args[0]), c.arg(ctx, e.Args[1]))
	case "andalso", "orelse":
		l, r, stop := c.expr(ctx, e.Args[0]), c.expr(ctx, e.Args[1]), e.Op == "orelse"
		return func(t *mpl.Task, a *act) mem.Value {
			if v := l(t, a); v.AsBool() == stop {
				return v
			}
			return r(t, a)
		}
	case "~":
		x := c.arg(ctx, e.Args[0])
		return func(t *mpl.Task, a *act) mem.Value { return mem.Int(-x.get(t, a).AsInt()) }
	case "not":
		x := c.arg(ctx, e.Args[0])
		return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(!x.get(t, a).AsBool()) }
	case ";":
		first, then := c.expr(ctx, e.Args[0]), c.lowerIn(ctx, e.Args[1], tail)
		return func(t *mpl.Task, a *act) mem.Value {
			first(t, a)
			return then(t, a)
		}
	case "print":
		x, prog := c.arg(ctx, e.Args[0]), c.prog
		return func(t *mpl.Task, a *act) mem.Value {
			fmt.Fprintf(prog.out, "%d\n", x.get(t, a).AsInt())
			return unit
		}
	case "length":
		x := c.arg(ctx, e.Args[0])
		return func(t *mpl.Task, a *act) mem.Value { return mem.Int(int64(t.Length(x.get(t, a).Ref()))) }
	case "ref":
		x, alloc := c.arg(ctx, e.Args[0]), (*mpl.Task).AllocRef
		if c.site(ctx, e) {
			alloc = (*mpl.Task).AllocRefFast
		}
		ctx.alloc()
		return func(t *mpl.Task, a *act) mem.Value { return alloc(t, x.get(t, a)).Value() }
	case "array":
		n, x, alloc := c.arg(ctx, e.Args[0]), c.arg(ctx, e.Args[1]), (*mpl.Task).AllocArray
		if c.site(ctx, e) {
			alloc = (*mpl.Task).AllocArrayFast
		}
		ctx.alloc()
		return func(t *mpl.Task, a *act) mem.Value {
			n := n.get(t, a).AsInt()
			if n < 0 {
				throw("array size %d", n)
			}
			return alloc(t, int(n), x.get(t, a)).Value()
		}
	case "!":
		x, fast := c.arg(ctx, e.Args[0]), c.site(ctx, e)
		if fast {
			return func(t *mpl.Task, a *act) mem.Value { return t.DerefFast(x.get(t, a).Ref()) }
		}
		return func(t *mpl.Task, a *act) mem.Value { return t.Deref(x.get(t, a).Ref()) }
	case ":=":
		// A store is a safepoint of the concurrent collector: an allocation
		// point to the rooting rule.
		ops, fast := c.operands(ctx, exprItems(e.Args)), c.site(ctx, e)
		ctx.alloc()
		assign := (*mpl.Task).Assign
		if fast {
			assign = (*mpl.Task).AssignFast
		}
		return func(t *mpl.Task, a *act) mem.Value {
			var vs [2]mem.Value
			values(t, a, ops, vs[:])
			assign(t, vs[0].Ref(), vs[1])
			return unit
		}
	case "sub":
		ops, fast := c.operands(ctx, exprItems(e.Args)), c.site(ctx, e)
		if simple(ops) {
			arr, ix := ops[0].now, ops[1].now
			return func(t *mpl.Task, a *act) mem.Value {
				r := arr.get(t, a).Ref()
				return subAt(t, r, ix.get(t, a).AsInt(), fast)
			}
		}
		return func(t *mpl.Task, a *act) mem.Value {
			var vs [2]mem.Value
			values(t, a, ops, vs[:])
			return subAt(t, vs[0].Ref(), vs[1].AsInt(), fast)
		}
	case "update":
		ops, fast := c.operands(ctx, exprItems(e.Args)), c.site(ctx, e)
		ctx.alloc() // a store: see ":="
		if simple(ops) {
			arr, ix, x := ops[0].now, ops[1].now, ops[2].now
			return func(t *mpl.Task, a *act) mem.Value {
				r := arr.get(t, a).Ref()
				i := ix.get(t, a).AsInt()
				updateAt(t, r, i, x.get(t, a), fast)
				return unit
			}
		}
		return func(t *mpl.Task, a *act) mem.Value {
			var vs [3]mem.Value
			values(t, a, ops, vs[:])
			updateAt(t, vs[0].Ref(), vs[1].AsInt(), vs[2], fast)
			return unit
		}
	case "tabulate":
		return c.tabulate(ctx, e)
	case "reduce":
		return c.reduce(ctx, e)
	}
	return c.fail(e, "internal: unknown primitive %q", e.Op)
}

// subAt reads a[i]: at a proven site one chunk resolution serves the bounds
// check and the load; otherwise the length and the managed read.
func subAt(t *mpl.Task, r mem.Ref, i int64, fast bool) mem.Value {
	if fast {
		if v, ok := t.SubFast(r, i); ok {
			return v
		}
	} else if i >= 0 && i < int64(t.Length(r)) {
		return t.Read(r, int(i))
	}
	panic(outOfBounds(t, r, i))
}

// updateAt writes a[i] := v, as subAt reads.
func updateAt(t *mpl.Task, r mem.Ref, i int64, v mem.Value, fast bool) {
	if fast {
		if t.UpdateFast(r, i, v) {
			return
		}
	} else if i >= 0 && i < int64(t.Length(r)) {
		t.Write(r, int(i), v)
		return
	}
	panic(outOfBounds(t, r, i))
}

func outOfBounds(t *mpl.Task, r mem.Ref, i int64) *RuntimeError {
	return &RuntimeError{Msg: fmt.Sprintf("index %d out of bounds [0,%d)", i, t.Length(r))}
}

var compares = map[string]bool{"<": true, "<=": true, ">": true, ">=": true, "=": true, "<>": true}

// arith lowers an integer operator, its operands fused in: both are
// immediates, so neither needs a root while the other evaluates.
func arith(op string, l, r arg) code {
	switch op {
	case "+":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Int(l.get(t, a).AsInt() + r.get(t, a).AsInt()) }
	case "-":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Int(l.get(t, a).AsInt() - r.get(t, a).AsInt()) }
	case "*":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Int(l.get(t, a).AsInt() * r.get(t, a).AsInt()) }
	case "div":
		return func(t *mpl.Task, a *act) mem.Value {
			return mem.Int(floorDiv(l.get(t, a).AsInt(), r.get(t, a).AsInt()))
		}
	case "mod":
		return func(t *mpl.Task, a *act) mem.Value {
			x, y := l.get(t, a).AsInt(), r.get(t, a).AsInt()
			return mem.Int(x - y*floorDiv(x, y))
		}
	case "<":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(l.get(t, a).AsInt() < r.get(t, a).AsInt()) }
	case "<=":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(l.get(t, a).AsInt() <= r.get(t, a).AsInt()) }
	case ">":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(l.get(t, a).AsInt() > r.get(t, a).AsInt()) }
	case ">=":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(l.get(t, a).AsInt() >= r.get(t, a).AsInt()) }
	case "=":
		return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(l.get(t, a).AsInt() == r.get(t, a).AsInt()) }
	}
	return func(t *mpl.Task, a *act) mem.Value { return mem.Bool(l.get(t, a).AsInt() != r.get(t, a).AsInt()) }
}

// branchOn lowers `if l op r then ... else ...`: the comparison, its
// operands and the branch are one closure.
func branchOn(op string, l, r arg, then, els code) code {
	switch op {
	case "<":
		return func(t *mpl.Task, a *act) mem.Value {
			if l.get(t, a).AsInt() < r.get(t, a).AsInt() {
				return then(t, a)
			}
			return els(t, a)
		}
	case "<=":
		return func(t *mpl.Task, a *act) mem.Value {
			if l.get(t, a).AsInt() <= r.get(t, a).AsInt() {
				return then(t, a)
			}
			return els(t, a)
		}
	case ">":
		return func(t *mpl.Task, a *act) mem.Value {
			if l.get(t, a).AsInt() > r.get(t, a).AsInt() {
				return then(t, a)
			}
			return els(t, a)
		}
	case ">=":
		return func(t *mpl.Task, a *act) mem.Value {
			if l.get(t, a).AsInt() >= r.get(t, a).AsInt() {
				return then(t, a)
			}
			return els(t, a)
		}
	case "=":
		return func(t *mpl.Task, a *act) mem.Value {
			if l.get(t, a).AsInt() == r.get(t, a).AsInt() {
				return then(t, a)
			}
			return els(t, a)
		}
	}
	return func(t *mpl.Task, a *act) mem.Value {
		if l.get(t, a).AsInt() != r.get(t, a).AsInt() {
			return then(t, a)
		}
		return els(t, a)
	}
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
