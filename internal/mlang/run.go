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

// rethrow re-raises a parked fault in the parent, after the join.
func (f *fault) rethrow() {
	if re := f.first.Load(); re != nil {
		panic(re)
	}
}

// strand wraps fn as a fork body: an activation on whichever task runs
// it, linked to up.
func (fn *function) strand(up *env, bad *fault) func(*mpl.Task) mem.Value {
	return func(t *mpl.Task) mem.Value {
		defer bad.catch()
		f := t.NewFrame(fn.nslots)
		v := fn.body(t, env{f, up})
		f.Pop()
		return v
	}
}

// tabulate builds [| f 0, ..., f (n-1) |] with a parallel loop. The array
// sits in a slot of the caller's frame, which leaves on child tasks may
// read (the caller cannot collect while they live). Each leaf reuses one
// activation of f for its whole range. When the element type is immediate
// (fast) the leaves store unchecked: a scalar store publishes no pointer,
// so there is nothing for the write barrier to remember.
func (c *compiler) tabulate(ctx *fnCtx, e *Prim) code {
	size := c.expr(ctx, e.Args[0])
	pre, fn, hops := c.loopFn(ctx, e.Args[1], 1)
	fast, out := c.site(ctx, e), ctx.temp()
	return func(t *mpl.Task, e env) mem.Value {
		n := int(size(t, e).AsInt())
		if n < 0 {
			throw("tabulate size %d", n)
		}
		pre(t, e)
		e.Set(out, t.AllocArray(n, mem.Nil).Value())
		var bad fault
		up := e.link(hops)
		t.ParFor(0, n, n/64+1, func(t *mpl.Task, lo, hi int) {
			defer bad.catch()
			f := t.NewFrame(fn.nslots)
			for i := lo; i < hi; i++ {
				f.Set(0, mem.Int(int64(i)))
				if v := fn.body(t, env{f, up}); fast {
					t.WriteFast(e.Ref(out), i, v)
				} else {
					t.Write(e.Ref(out), i, v)
				}
			}
			f.Pop()
		})
		bad.rethrow()
		return e.Get(out)
	}
}

// reduction is one running reduce: the combiner, and the caller's
// activation, where the array and the identity are rooted.
type reduction struct {
	fn      *function
	up      *env
	at      env
	arr, id int
	fast    bool // immediate elements: unchecked reads
}

func (c *compiler) reduce(ctx *fnCtx, e *Prim) code {
	arr, id := c.expr(ctx, e.Args[0]), c.expr(ctx, e.Args[1])
	pre, fn, hops := c.loopFn(ctx, e.Args[2], 2)
	fast, as, is := c.site(ctx, e), ctx.temp(), ctx.temp()
	return func(t *mpl.Task, e env) mem.Value {
		e.Set(as, arr(t, e))
		e.Set(is, id(t, e))
		pre(t, e)
		r := reduction{fn, e.link(hops), e, as, is, fast}
		return r.fold(t, 0, t.Length(e.Ref(as)))
	}
}

// fold reduces [lo, hi) by binary parallel splitting. A leaf folds
// sequentially in one activation of the combiner, whose first parameter
// is the accumulator; it allocates only if the combiner does.
func (r *reduction) fold(t *mpl.Task, lo, hi int) mem.Value {
	f := t.NewFrame(r.fn.nslots)
	if hi-lo <= 256 {
		f.Set(0, r.at.Get(r.id))
		for i := lo; i < hi; i++ {
			if r.fast {
				f.Set(1, t.ReadFast(r.at.Ref(r.arr), i))
			} else {
				f.Set(1, t.Read(r.at.Ref(r.arr), i))
			}
			f.Set(0, r.fn.body(t, env{f, r.up}))
		}
	} else {
		mid := lo + (hi-lo)/2
		var bad fault
		lv, rv := t.Par(
			func(t *mpl.Task) mem.Value { defer bad.catch(); return r.fold(t, lo, mid) },
			func(t *mpl.Task) mem.Value { defer bad.catch(); return r.fold(t, mid, hi) },
		)
		bad.rethrow()
		f.Set(0, lv)
		f.Set(1, rv)
		f.Set(0, r.fn.body(t, env{f, r.up}))
	}
	v := f.Get(0)
	f.Pop()
	return v
}

// Machine executes compiled programs on the hierarchical runtime. Every
// value a program manipulates is a runtime Value. Roots are precise: every
// variable, and every boxed temporary that is live across a call, an
// allocation or a par, sits in a slot of its activation's Task frame;
// immediates wait in Go locals. All mutable-object access goes through
// the entanglement barriers, except at sites the analysis proved.
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
	v := m.prog.main.strand(nil, &bad)(t)
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
