package mlang

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"mplgo/internal/mem"
	"mplgo/mpl"
)

// RuntimeError is an mlang-level runtime fault (division by zero, array
// bounds).
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return "runtime error: " + e.Msg }

// throw raises a RuntimeError. Faults unwind as Go panics, so the code
// that does not fail returns plain values; Machine.Run turns the panic
// back into an error, and every fork re-raises its strands' first.
func throw(format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

// fault holds the first RuntimeError of the strands of one fork.
type fault struct{ first atomic.Pointer[RuntimeError] }

// catch, deferred in a strand, parks its RuntimeError for the parent.
func (f *fault) catch() {
	if r := recover(); r != nil {
		re, ok := r.(*RuntimeError)
		if !ok {
			panic(r)
		}
		f.first.CompareAndSwap(nil, re)
	}
}

// rethrow re-raises a parked fault in the parent, after the join, and
// clears it for the record's next fork.
func (f *fault) rethrow() {
	if re := f.first.Swap(nil); re != nil {
		panic(re)
	}
}

// fork is the record of the par started in an activation, reused by its
// next one: the branch functions, the activation they link to, and the two
// fork bodies, made once.
type fork struct {
	fns         [2]*function
	up          *act
	bad         fault
	left, right func(*mpl.Task) mem.Value
}

func newFork() *fork {
	k := &fork{}
	k.left = func(t *mpl.Task) mem.Value { return k.branch(t, 0) }
	k.right = func(t *mpl.Task) mem.Value { return k.branch(t, 1) }
	return k
}

func (k *fork) branch(t *mpl.Task, i int) mem.Value {
	defer k.bad.catch()
	return k.fns[i].strand(t, k.up.home, k.up)
}

// tabulation is a running tabulate, reused like fork: [| f 0, ..., f (n-1) |]
// with a parallel loop. The array sits in a root slot of the caller's
// activation, which leaves on child tasks may read (the caller cannot
// collect while they live). Each leaf runs f in one activation for its
// whole range. When the element type is immediate (fast) the leaves store
// unchecked: a scalar store publishes no pointer, so there is nothing for
// the write barrier to remember; when f has no allocation point either,
// nothing can move the array during the range, so a leaf resolves it once.
type tabulation struct {
	fn   *function
	up   *act // f's static link
	at   *act // the caller
	out  int  // the array's root slot in at
	fast bool
	bad  fault
	leaf func(*mpl.Task, int, int)
}

func (c *compiler) tabulate(ctx *fnCtx, e *Prim) code {
	size := c.arg(ctx, e.Args[0])
	pre, fn, hops := c.loopFn(ctx, e.Args[1], 1)
	fast, out := c.site(ctx, e), ctx.slot(true, "(array)").i
	ctx.alloc()
	return func(t *mpl.Task, a *act) mem.Value {
		n := int(size.get(t, a).AsInt())
		if n < 0 {
			throw("tabulate size %d", n)
		}
		pre(t, a)
		a.f.Set(out, t.AllocArray(n, mem.Nil).Value())
		r := a.tab
		if r == nil {
			r = &tabulation{}
			r.leaf = r.run
			a.tab = r
		}
		r.fn, r.up, r.at, r.out, r.fast = fn, a.link(hops), a, out, fast
		t.ParFor(0, n, n/64+1, r.leaf)
		r.bad.rethrow()
		return a.f.Get(out)
	}
}

func (r *tabulation) run(t *mpl.Task, lo, hi int) {
	defer r.bad.catch()
	fn, p := r.fn, r.fn.params[0]
	l := r.at.home.get()
	l.enter(t, fn, r.up)
	var w mem.Words
	if r.fast && !fn.allocates {
		w = t.ElementsFast(r.at.f.Ref(r.out), 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		l.set(p, mem.Int(int64(i)))
		v := fn.body(t, l)
		switch {
		case w != nil:
			w.Store(i, v)
		case r.fast:
			t.WriteFast(r.at.f.Ref(r.out), i, v)
		default:
			t.Write(r.at.f.Ref(r.out), i, v)
		}
	}
	fn.leave(l)
	r.at.home.put(l)
}

// reduction is a running reduce, reused like fork: the combiner, and the
// caller's activation, where the array and the identity are stored.
type reduction struct {
	fn      *function
	up      *act
	at      *act
	arr, id loc
	fast    bool // immediate elements: unchecked reads
}

func (c *compiler) reduce(ctx *fnCtx, e *Prim) code {
	arr, as := c.expr(ctx, e.Args[0]), ctx.slot(true, "(array)")
	id, is := c.expr(ctx, e.Args[1]), ctx.slot(!immediateType(c.types[e.Args[1]]), "(identity)")
	pre, fn, hops := c.loopFn(ctx, e.Args[2], 2)
	fast := c.site(ctx, e)
	ctx.alloc()
	return func(t *mpl.Task, a *act) mem.Value {
		a.set(as, arr(t, a))
		a.set(is, id(t, a))
		pre(t, a)
		r := a.red
		if r == nil {
			r = &reduction{}
			a.red = r
		}
		*r = reduction{fn, a.link(hops), a, as, is, fast}
		return r.fold(t, 0, t.Length(a.get(as).Ref()))
	}
}

// fold reduces [lo, hi) by binary parallel splitting. A leaf folds
// sequentially in one activation of the combiner, whose first parameter
// is the accumulator; it allocates only if the combiner does, and if the
// combiner does not, it resolves an immediate array once.
func (r *reduction) fold(t *mpl.Task, lo, hi int) mem.Value {
	fn, p, q := r.fn, r.fn.params[0], r.fn.params[1]
	if hi-lo <= 256 {
		l := r.at.home.get()
		l.enter(t, fn, r.up)
		acc := r.at.get(r.id)
		var w mem.Words
		if r.fast && !fn.allocates {
			w = t.ElementsFast(r.at.get(r.arr).Ref(), hi-lo, 0)
		}
		for i := lo; i < hi; i++ {
			l.set(p, acc)
			switch {
			case w != nil:
				l.set(q, w.Load(i))
			case r.fast:
				l.set(q, t.ReadFast(r.at.get(r.arr).Ref(), i))
			default:
				l.set(q, t.Read(r.at.get(r.arr).Ref(), i))
			}
			acc = fn.body(t, l)
		}
		fn.leave(l)
		r.at.home.put(l)
		return acc
	}
	mid := lo + (hi-lo)/2
	var bad fault
	lv, rv := t.Par(
		func(t *mpl.Task) mem.Value { defer bad.catch(); return r.fold(t, lo, mid) },
		func(t *mpl.Task) mem.Value { defer bad.catch(); return r.fold(t, mid, hi) },
	)
	bad.rethrow()
	l := r.at.home.get()
	l.enter(t, fn, r.up)
	l.set(p, lv)
	l.set(q, rv)
	v := fn.body(t, l)
	fn.leave(l)
	r.at.home.put(l)
	return v
}

// Machine executes compiled programs on the hierarchical runtime. Every
// value a program manipulates is a runtime Value. Roots are precise: a
// variable or parked temporary of reference type that is live across an
// allocation point (a call, a par, a tabulate/reduce, an allocating
// primitive, a store), or read from another activation, sits in a root
// slot of its activation's Task frame; every other value — immediates,
// references dead at every allocation point — sits in plain storage the
// collector does not scan, and an activation with no root slots pushes no
// frame. All mutable-object access goes through the entanglement
// barriers, except at sites the analysis proved.
type Machine struct {
	prog *Program
}

// NewMachine creates a machine for a compiled program, printing to out.
// A Program runs on one Machine at a time.
func NewMachine(prog *Program, out io.Writer) *Machine {
	if out == nil {
		out = io.Discard
	}
	prog.out = out
	return &Machine{prog: prog}
}

// Run executes the program on task t. A RuntimeError unwinds without
// popping frames; t's computation is over then, so nothing reads them.
func (m *Machine) Run(t *mpl.Task) (mem.Value, error) {
	var bad fault
	var v mem.Value
	func() {
		defer bad.catch()
		v = m.prog.main.strand(t, &m.prog.acts, nil)
	}()
	if re := bad.first.Load(); re != nil {
		return mem.Nil, re
	}
	return v, nil
}

// Result is the outcome of running a source program.
type Result struct {
	Value    mem.Value
	Type     Type
	Rendered string
	Runtime  *mpl.Runtime
	Output   string
	Analysis *Analysis // disentanglement verdicts; nil for RunChecked
	Elided   bool      // compiled with barrier elision
}

// Run parses, checks, compiles, and executes src on a fresh runtime with
// the given configuration, with barrier elision at every site the
// disentanglement analysis proves safe. Program output (print) is
// captured in Result.Output.
func Run(src string, cfg mpl.Config) (*Result, error) {
	return run(src, cfg, true)
}

// RunChecked runs src with every access on the managed barriers — the
// pre-elision build, kept for the differential suite and ablations.
func RunChecked(src string, cfg mpl.Config) (*Result, error) {
	return run(src, cfg, false)
}

func run(src string, cfg mpl.Config, elide bool) (*Result, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	var typ Type
	var an *Analysis
	if elide {
		an, err = Analyze(ast)
		if err != nil {
			return nil, err
		}
		typ = an.Type
	} else if typ, err = Check(ast); err != nil {
		return nil, err
	}
	prog, err := CompileWith(ast, an)
	if err != nil {
		return nil, err
	}
	var out strings.Builder
	m := NewMachine(prog, &out)
	rt := mpl.New(cfg)
	if an != nil {
		rt.SetStaticRegions(int64(an.Regions))
	}
	res := &Result{Type: typ, Runtime: rt, Analysis: an, Elided: elide}
	var rerr error
	_, err = rt.Run(func(t *mpl.Task) mem.Value {
		v, err := m.Run(t)
		if err != nil {
			rerr = err
			return mem.Nil
		}
		res.Value = v
		res.Rendered = render(t, v, typ, 0)
		return v
	})
	if rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, err
	}
	res.Output = out.String()
	return res, nil
}

// render pretty-prints a value using its inferred type.
func render(t *mpl.Task, v mem.Value, typ Type, depth int) string {
	if depth > 5 {
		return "..."
	}
	switch ty := resolve(typ).(type) {
	case *TCon:
		switch ty.Name {
		case "int":
			return fmt.Sprintf("%d", v.AsInt())
		case "bool":
			if v.AsInt() != 0 {
				return "true"
			}
			return "false"
		case "unit":
			return "()"
		case "string":
			return fmt.Sprintf("%q", t.StringOf(v.Ref()))
		}
	case *TTuple:
		parts := make([]string, len(ty.Elems))
		for i, et := range ty.Elems {
			parts[i] = render(t, t.Read(v.Ref(), i), et, depth+1)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *TRef:
		return "ref " + render(t, t.Deref(v.Ref()), ty.Elem, depth+1)
	case *TArray:
		n := t.Length(v.Ref())
		show := n
		if show > 8 {
			show = 8
		}
		parts := make([]string, 0, show+1)
		for i := 0; i < show; i++ {
			parts = append(parts, render(t, t.Read(v.Ref(), i), ty.Elem, depth+1))
		}
		if show < n {
			parts = append(parts, "...")
		}
		return "[|" + strings.Join(parts, ", ") + "|]"
	case *TArrow:
		return "fn"
	case *TVar:
		return v.String()
	}
	return v.String()
}
