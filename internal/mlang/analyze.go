package mlang

import (
	"fmt"
	"sort"
	"strings"
)

// Verdict is the disentanglement ruling for one barriered access or
// allocation site: either the site is provably disentangled and compiles
// to the unchecked fast path, or it falls back to the managed barriers
// with a reason.
type Verdict struct {
	Line, Col int
	Op        string // "ref", "array", "!", ":=", "sub", "update", "tabulate", "reduce"
	Fast      bool
	Reason    string
}

// Analysis is the result of the disentanglement effect analysis: the
// program type plus a per-site verdict map the compiler consults when
// choosing between checked and unchecked opcodes.
type Analysis struct {
	Type     Type
	Verdicts []*Verdict // one per access/allocation site, source order
	Proven   int        // sites compiled to the fast path
	Fallback int        // sites kept on the managed barriers
	Regions  int        // distinct proven static allocation regions

	fast  map[*Prim]bool
	types map[Expr]Type
}

// FastSite reports whether the analysis proved the site disentangled.
// Used by CompileWith; nil-safe on the Analysis for the checked build.
func (a *Analysis) FastSite(e Expr) bool {
	if a == nil {
		return false
	}
	p, ok := e.(*Prim)
	return ok && a.fast[p]
}

// immediateType reports whether t resolves to an unboxed scalar. Reads of
// immediate elements can never yield a reference, so the read barrier's
// slow path is statically unreachable (mem.LoadChecked only diverts on
// reference values) and the stores can never publish a pointer — eliding
// the barrier is behavior-identical for ANY program, entangled or not.
func immediateType(t Type) bool {
	c, ok := resolve(t).(*TCon)
	return ok && (c.Name == "int" || c.Name == "bool" || c.Name == "unit")
}

// regionOf extracts the (representative) region of a ref or array type,
// nil for every other type.
func regionOf(t Type) *Reg {
	switch t := resolve(t).(type) {
	case *TRef:
		if t.R != nil {
			return t.R.find()
		}
	case *TArray:
		if t.R != nil {
			return t.R.find()
		}
	}
	return nil
}

// Analyze type-checks e and rules on every mutable-access site. It never
// fails on effect grounds — conflicting regions collapse to ⊤ and the
// affected sites fall back — so the error is exactly Check's.
func Analyze(e Expr) (*Analysis, error) {
	c := newChecker()
	typ, err := c.infer(nil, e)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Type: typ, fast: make(map[*Prim]bool, len(c.sites)), types: c.types}
	verdicts := make(map[*site]*Verdict, len(c.sites))
	rule := func(s *site, fast bool, reason string) {
		line, col := s.e.Pos()
		verdicts[s] = &Verdict{Line: line, Col: col, Op: s.e.Op, Fast: fast, Reason: reason}
	}

	// Pass 1 — writes. A ref-valued store elides only when it is provably
	// an up-or-same-heap pointer: value region ⊑ holder region ⊑ store
	// scope, all concrete in the store's own body. (Up-pointers need no
	// remembering, no candidate bit, no pin — OnWrite would classify them
	// free — and the relation is stable under joins, which only merge
	// heaps upward.) Any boxed store that cannot be proven makes the
	// holder region unclean: a down- or cross-pointer may now sit in its
	// cells, so region-based READ elision of that region is off too.
	unclean := make(map[*Reg]bool)
	for _, s := range c.sites {
		switch s.e.Op {
		case ":=", "update":
			if immediateType(s.elem) {
				rule(s, true, "immediate element")
				continue
			}
			ho := s.reg.find()
			fast, reason := writeRuling(c, s, ho)
			rule(s, fast, reason)
			if !fast && ho.state == regConcrete {
				unclean[ho] = true
			}
		case "tabulate":
			if immediateType(s.elem) {
				rule(s, true, "immediate element")
			} else {
				// Parallel leaves store boxed results into the caller's
				// array: real down-pointers the runtime must remember.
				rule(s, false, "boxed elements stored from parallel leaves")
				unclean[s.reg.find()] = true
			}
		}
	}

	// Pass 2 — reads. Immediate elements always elide; a ref-valued read
	// elides when the holder's region is concrete, on the heap path at
	// the read scope, and clean (every store into it proven up-or-same):
	// then the loaded reference is itself on the reader's path, where
	// objects cannot move or be reclaimed while the reader lives.
	for _, s := range c.sites {
		switch s.e.Op {
		case "!", "sub":
			if immediateType(s.elem) {
				rule(s, true, "immediate element")
				continue
			}
			ho := s.reg.find()
			if ok, reason := holderOnPath(c, s, ho); !ok {
				rule(s, false, reason)
			} else if unclean[ho] {
				rule(s, false, "region receives unproven stores")
			} else {
				rule(s, true, fmt.Sprintf("region-local read (r%d)", ho.id))
			}
		case "reduce":
			if immediateType(s.elem) {
				rule(s, true, "immediate element")
			} else {
				rule(s, false, "boxed elements")
			}
		}
	}

	// Pass 3 — allocations. A site whose region survived inference
	// concrete is a proven static region: its objects compile to straight
	// bump allocation (with the managed path as the budget/limit
	// fallback). A collapsed region means the cell aliases another scope
	// or escapes where the checker cannot see; keep the managed path.
	regions := make(map[*Reg]bool)
	for _, s := range c.sites {
		switch s.e.Op {
		case "ref", "array":
			ho := s.reg.find()
			if ho.state == regConcrete {
				regions[ho] = true
				rule(s, true, fmt.Sprintf("static region r%d", ho.id))
			} else {
				rule(s, false, "region aliased across scopes or escaping (⊤)")
			}
		case "tabulate":
			if ho := s.reg.find(); ho.state == regConcrete && verdicts[s].Fast {
				regions[ho] = true
			}
		}
	}
	a.Regions = len(regions)

	for _, s := range c.sites {
		v := verdicts[s]
		a.Verdicts = append(a.Verdicts, v)
		a.fast[s.e] = v.Fast
		if v.Fast {
			a.Proven++
		} else {
			a.Fallback++
		}
	}
	return a, nil
}

// writeRuling decides a ref-valued store and names the failing condition.
func writeRuling(c *checker, s *site, ho *Reg) (bool, string) {
	if ok, reason := holderOnPath(c, s, ho); !ok {
		return false, reason
	}
	vr := regionOf(s.elem)
	if vr == nil {
		return false, "boxed element without a region (tuple/function/string)"
	}
	switch vr.state {
	case regTop:
		return false, "stored value's region is ⊤"
	case regVar:
		return false, "stored value's region unknown"
	}
	if vr.body != s.at.body {
		return false, "stored value allocated in another function body"
	}
	if !c.onPath(s.at.body, vr.scope, ho.scope) {
		return false, "store would create a down-pointer (value deeper than holder)"
	}
	return true, fmt.Sprintf("up-or-same store (r%d into r%d)", vr.id, ho.id)
}

// holderOnPath checks the holder region is concrete and on the heap path
// at the access scope.
func holderOnPath(c *checker, s *site, ho *Reg) (bool, string) {
	switch ho.state {
	case regTop:
		return false, "region ⊤ (aliased across scopes or escaping)"
	case regVar:
		return false, "region unknown"
	}
	if ho.body != s.at.body {
		return false, "cross-function access (holder allocated in another body)"
	}
	if !c.onPath(s.at.body, ho.scope, s.at.scope) {
		return false, "holder allocated in a concurrent branch"
	}
	return true, ""
}

// Report renders the per-site verdicts, sorted by source position, for
// cmd/mplgo's -dis-report flag (and the golden tests).
func (a *Analysis) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "disentanglement: %d proven, %d fallback, %d static regions\n",
		a.Proven, a.Fallback, a.Regions)
	sorted := make([]*Verdict, len(a.Verdicts))
	copy(sorted, a.Verdicts)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Line != sorted[j].Line {
			return sorted[i].Line < sorted[j].Line
		}
		return sorted[i].Col < sorted[j].Col
	})
	for _, v := range sorted {
		state := "proven  "
		if !v.Fast {
			state = "fallback"
		}
		fmt.Fprintf(&b, "  %3d:%-3d %-8s %s %s\n", v.Line, v.Col, v.Op, state, v.Reason)
	}
	return b.String()
}
