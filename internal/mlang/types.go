package mlang

import (
	"fmt"
	"strings"
)

// Type is an mlang type. Inference is unification-based in the
// Hindley–Milner style but with monomorphic let (no generalization),
// which keeps the checker small; polymorphic uses of a binding need
// separate bindings, as the examples do.
type Type interface {
	String() string
}

// TCon is a type constant: int, bool, unit, string.
type TCon struct{ Name string }

func (t *TCon) String() string { return t.Name }

// Predefined constants.
var (
	TInt    = &TCon{"int"}
	TBool   = &TCon{"bool"}
	TUnit   = &TCon{"unit"}
	TString = &TCon{"string"}
)

// TTuple is a product type.
type TTuple struct{ Elems []Type }

func (t *TTuple) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " * ") + ")"
}

// TArrow is a function type.
type TArrow struct{ Dom, Cod Type }

func (t *TArrow) String() string { return "(" + t.Dom.String() + " -> " + t.Cod.String() + ")" }

// TRef is a mutable cell type. R is its heap-region annotation (see
// region.go); String omits it so type rendering is unchanged.
type TRef struct {
	Elem Type
	R    *Reg
}

func (t *TRef) String() string { return t.Elem.String() + " ref" }

// TArray is a mutable array type. R is its heap-region annotation.
type TArray struct {
	Elem Type
	R    *Reg
}

func (t *TArray) String() string { return t.Elem.String() + " array" }

// TVar is an inference variable; Bound is non-nil once unified.
type TVar struct {
	ID    int
	Bound Type
}

func (t *TVar) String() string {
	if t.Bound != nil {
		return t.Bound.String()
	}
	return fmt.Sprintf("'t%d", t.ID)
}

// checker performs inference. Alongside Hindley–Milner unification it
// threads the disentanglement effect analysis: a current scope (c.at,
// advanced in evaluation order; par introduces branch and join scopes),
// per-body scope DAGs, region variables on ref/array types, and a record
// of every barriered access site for the verdict pass (see analyze.go).
type checker struct {
	nvars  int
	nregs  int
	bodies []*bodyInfo
	sites  []*site
	at     scopeRef
	types  map[Expr]Type // every node's type; the compiler roots by it
}

func newChecker() *checker {
	c := &checker{types: map[Expr]Type{}}
	c.at = c.newBody() // body 0 is the program's main body
	return c
}

func (c *checker) fresh() *TVar {
	c.nvars++
	return &TVar{ID: c.nvars}
}

// resolve chases variable bindings to the representative type.
func resolve(t Type) Type {
	for {
		v, ok := t.(*TVar)
		if !ok || v.Bound == nil {
			return t
		}
		t = v.Bound
	}
}

// occurs reports whether v appears in t (prevents infinite types).
func occurs(v *TVar, t Type) bool {
	switch t := resolve(t).(type) {
	case *TVar:
		return t == v
	case *TTuple:
		for _, e := range t.Elems {
			if occurs(v, e) {
				return true
			}
		}
	case *TArrow:
		return occurs(v, t.Dom) || occurs(v, t.Cod)
	case *TRef:
		return occurs(v, t.Elem)
	case *TArray:
		return occurs(v, t.Elem)
	}
	return false
}

func (c *checker) unify(a, b Type, e Expr) error {
	a, b = resolve(a), resolve(b)
	if a == b {
		return nil
	}
	if v, ok := a.(*TVar); ok {
		if occurs(v, b) {
			return typeErr(e, "infinite type: %s ~ %s", a, b)
		}
		v.Bound = b
		return nil
	}
	if _, ok := b.(*TVar); ok {
		return c.unify(b, a, e)
	}
	switch at := a.(type) {
	case *TCon:
		if bt, ok := b.(*TCon); ok && at.Name == bt.Name {
			return nil
		}
	case *TTuple:
		bt, ok := b.(*TTuple)
		if ok && len(at.Elems) == len(bt.Elems) {
			for i := range at.Elems {
				if err := c.unify(at.Elems[i], bt.Elems[i], e); err != nil {
					return err
				}
			}
			return nil
		}
	case *TArrow:
		if bt, ok := b.(*TArrow); ok {
			if err := c.unify(at.Dom, bt.Dom, e); err != nil {
				return err
			}
			return c.unify(at.Cod, bt.Cod, e)
		}
	case *TRef:
		if bt, ok := b.(*TRef); ok {
			unifyReg(at.R, bt.R)
			return c.unify(at.Elem, bt.Elem, e)
		}
	case *TArray:
		if bt, ok := b.(*TArray); ok {
			unifyReg(at.R, bt.R)
			return c.unify(at.Elem, bt.Elem, e)
		}
	}
	return typeErr(e, "type mismatch: %s vs %s", a, b)
}

func typeErr(e Expr, format string, args ...any) error {
	line, col := e.Pos()
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// tenv is a persistent type environment.
type tenv struct {
	name string
	typ  Type
	next *tenv
}

func (env *tenv) lookup(name string) (Type, bool) {
	for e := env; e != nil; e = e.next {
		if e.name == name {
			return e.typ, true
		}
	}
	return nil, false
}

func (env *tenv) bind(name string, t Type) *tenv {
	return &tenv{name: name, typ: t, next: env}
}

// Check infers the type of a program and returns it. (The region/effect
// machinery runs too but its site records are discarded; use Analyze to
// keep them.)
func Check(e Expr) (Type, error) {
	c := newChecker()
	return c.infer(nil, e)
}

func (c *checker) infer(env *tenv, e Expr) (Type, error) {
	t, err := c.inferNode(env, e)
	c.types[e] = t
	return t, err
}

func (c *checker) inferNode(env *tenv, e Expr) (Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return TInt, nil
	case *BoolLit:
		return TBool, nil
	case *UnitLit:
		return TUnit, nil
	case *StrLit:
		return TString, nil
	case *Var:
		t, ok := env.lookup(e.Name)
		if !ok {
			return nil, typeErr(e, "unbound variable %s", e.Name)
		}
		return t, nil
	case *Fn:
		dom := c.fresh()
		// A lambda body is its own scope world: it may be activated from
		// any task, so none of its scopes relate to the enclosing body's.
		saved := c.at
		c.at = c.newBody()
		cod, err := c.infer(env.bind(e.Param, dom), e.Body)
		c.at = saved
		if err != nil {
			return nil, err
		}
		return &TArrow{Dom: dom, Cod: cod}, nil
	case *App:
		ft, err := c.infer(env, e.Fun)
		if err != nil {
			return nil, err
		}
		at, err := c.infer(env, e.Arg)
		if err != nil {
			return nil, err
		}
		res := c.fresh()
		if err := c.unify(ft, &TArrow{Dom: at, Cod: res}, e); err != nil {
			return nil, err
		}
		return res, nil
	case *Let:
		bt, err := c.infer(env, e.Bind)
		if err != nil {
			return nil, err
		}
		return c.infer(env.bind(e.Name, bt), e.Body)
	case *LetFun:
		dom, cod := c.fresh(), c.fresh()
		ft := &TArrow{Dom: dom, Cod: cod}
		fenv := env.bind(e.Name, ft).bind(e.Param, dom)
		saved := c.at
		c.at = c.newBody()
		bt, err := c.infer(fenv, e.FBody)
		c.at = saved
		if err != nil {
			return nil, err
		}
		if err := c.unify(cod, bt, e); err != nil {
			return nil, err
		}
		return c.infer(env.bind(e.Name, ft), e.Body)
	case *If:
		ct, err := c.infer(env, e.Cond)
		if err != nil {
			return nil, err
		}
		if err := c.unify(ct, TBool, e.Cond); err != nil {
			return nil, err
		}
		// Branches run in the current scope (sequential alternatives); a
		// par inside a branch advances it, so the continuation resumes in
		// a scope reachable from either branch's end. Holding a value of a
		// branch-internal region proves that branch ran, so the union of
		// both ends' ancestries is sound.
		s0 := c.at
		tt, err := c.infer(env, e.Then)
		if err != nil {
			return nil, err
		}
		s1 := c.at
		c.at = s0
		et, err := c.infer(env, e.Else)
		if err != nil {
			return nil, err
		}
		s2 := c.at
		if s1 != s0 || s2 != s0 {
			c.at = c.newScope(s0.body, s1.scope, s2.scope)
		}
		if err := c.unify(tt, et, e); err != nil {
			return nil, err
		}
		return tt, nil
	case *Tuple:
		elems := make([]Type, len(e.Elems))
		for i, el := range e.Elems {
			t, err := c.infer(env, el)
			if err != nil {
				return nil, err
			}
			elems[i] = t
		}
		return &TTuple{Elems: elems}, nil
	case *Proj:
		at, err := c.infer(env, e.Arg)
		if err != nil {
			return nil, err
		}
		tt, ok := resolve(at).(*TTuple)
		if !ok {
			return nil, typeErr(e, "#%d applied to non-tuple type %s", e.Index, at)
		}
		if e.Index > len(tt.Elems) {
			return nil, typeErr(e, "#%d out of range for %s", e.Index, at)
		}
		return tt.Elems[e.Index-1], nil
	case *Par:
		// par in scope σ: branches get fresh child scopes σL, σR; the
		// continuation runs in a join scope σ2 on whose heap path both
		// branches' allocations sit (their heaps merged at the join).
		enter := c.at
		c.at = c.newScope(enter.body, enter.scope)
		lt, err := c.infer(env, e.Left)
		if err != nil {
			return nil, err
		}
		lEnd := c.at.scope
		c.at = c.newScope(enter.body, enter.scope)
		rt, err := c.infer(env, e.Right)
		if err != nil {
			return nil, err
		}
		rEnd := c.at.scope
		c.at = c.newScope(enter.body, enter.scope, lEnd, rEnd)
		return &TTuple{Elems: []Type{lt, rt}}, nil
	case *Prim:
		return c.inferPrim(env, e)
	}
	return nil, typeErr(e, "internal: unknown expression %T", e)
}

func (c *checker) inferPrim(env *tenv, e *Prim) (Type, error) {
	arg := func(i int) (Type, error) { return c.infer(env, e.Args[i]) }
	want := func(i int, t Type) error {
		at, err := arg(i)
		if err != nil {
			return err
		}
		return c.unify(at, t, e.Args[i])
	}
	switch e.Op {
	case "+", "-", "*", "div", "mod":
		if err := want(0, TInt); err != nil {
			return nil, err
		}
		if err := want(1, TInt); err != nil {
			return nil, err
		}
		return TInt, nil
	case "<", "<=", ">", ">=", "=", "<>":
		if err := want(0, TInt); err != nil {
			return nil, err
		}
		if err := want(1, TInt); err != nil {
			return nil, err
		}
		return TBool, nil
	case "andalso", "orelse":
		if err := want(0, TBool); err != nil {
			return nil, err
		}
		if err := want(1, TBool); err != nil {
			return nil, err
		}
		return TBool, nil
	case "~":
		if err := want(0, TInt); err != nil {
			return nil, err
		}
		return TInt, nil
	case "not":
		if err := want(0, TBool); err != nil {
			return nil, err
		}
		return TBool, nil
	case "ref":
		t, err := arg(0)
		if err != nil {
			return nil, err
		}
		r := c.concreteReg()
		c.record(e, r, t)
		return &TRef{Elem: t, R: r}, nil
	case "!":
		t, err := arg(0)
		if err != nil {
			return nil, err
		}
		el := c.fresh()
		r := c.varReg()
		if err := c.unify(t, &TRef{Elem: el, R: r}, e); err != nil {
			return nil, err
		}
		c.record(e, r, el)
		return el, nil
	case ":=":
		t, err := arg(0)
		if err != nil {
			return nil, err
		}
		el := c.fresh()
		r := c.varReg()
		if err := c.unify(t, &TRef{Elem: el, R: r}, e.Args[0]); err != nil {
			return nil, err
		}
		if err := want(1, el); err != nil {
			return nil, err
		}
		c.record(e, r, el)
		return TUnit, nil
	case "array":
		if err := want(0, TInt); err != nil {
			return nil, err
		}
		t, err := arg(1)
		if err != nil {
			return nil, err
		}
		r := c.concreteReg()
		c.record(e, r, t)
		return &TArray{Elem: t, R: r}, nil
	case "sub":
		t, err := arg(0)
		if err != nil {
			return nil, err
		}
		el := c.fresh()
		r := c.varReg()
		if err := c.unify(t, &TArray{Elem: el, R: r}, e.Args[0]); err != nil {
			return nil, err
		}
		if err := want(1, TInt); err != nil {
			return nil, err
		}
		c.record(e, r, el)
		return el, nil
	case "update":
		t, err := arg(0)
		if err != nil {
			return nil, err
		}
		el := c.fresh()
		r := c.varReg()
		if err := c.unify(t, &TArray{Elem: el, R: r}, e.Args[0]); err != nil {
			return nil, err
		}
		if err := want(1, TInt); err != nil {
			return nil, err
		}
		if err := want(2, el); err != nil {
			return nil, err
		}
		c.record(e, r, el)
		return TUnit, nil
	case "length":
		t, err := arg(0)
		if err != nil {
			return nil, err
		}
		el := c.fresh()
		if err := c.unify(t, &TArray{Elem: el, R: c.varReg()}, e.Args[0]); err != nil {
			return nil, err
		}
		return TInt, nil
	case "tabulate":
		// tabulate (n, f) builds the array [| f 0, ..., f (n-1) |] in
		// parallel.
		if err := want(0, TInt); err != nil {
			return nil, err
		}
		el := c.fresh()
		if err := want(1, &TArrow{Dom: TInt, Cod: el}); err != nil {
			return nil, err
		}
		r := c.concreteReg()
		c.record(e, r, el)
		return &TArray{Elem: el, R: r}, nil
	case "reduce":
		// reduce (a, z, f) folds a in parallel; z must be an identity of
		// the (associative) combiner f for a deterministic result.
		el := c.fresh()
		r := c.varReg()
		if err := want(0, &TArray{Elem: el, R: r}); err != nil {
			return nil, err
		}
		if err := want(1, el); err != nil {
			return nil, err
		}
		if err := want(2, &TArrow{Dom: el, Cod: &TArrow{Dom: el, Cod: el}}); err != nil {
			return nil, err
		}
		c.record(e, r, el)
		return el, nil
	case "print":
		if err := want(0, TInt); err != nil {
			return nil, err
		}
		return TUnit, nil
	case ";":
		if _, err := arg(0); err != nil {
			return nil, err
		}
		return arg(1)
	}
	return nil, typeErr(e, "internal: unknown primitive %q", e.Op)
}
