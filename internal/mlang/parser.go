package mlang

import (
	"fmt"
	"slices"
)

// parser is a recursive-descent parser with precedence climbing.
//
// Precedence, loosest to tightest:
//
//	;  :=  orelse  andalso  (= <> < <= > >=)  (+ -)  (* div mod)  unary  application
type parser struct {
	toks []token
	pos  int
}

// Parse parses a whole program (one expression).
func Parse(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.seqExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != EOF {
		return nil, p.errf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

func (p *parser) peek() token    { return p.toks[p.pos] }
func (p *parser) take() token    { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k kind) bool { return p.peek().kind == k }

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k kind) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, found %s", k, p.peek())
	}
	return p.take(), nil
}

func (p *parser) posOf(t token) pos { return pos{t.line, t.col} }

// seqExpr := assignExpr (';' assignExpr)*
func (p *parser) seqExpr() (Expr, error) {
	e, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.at(SEMI) {
		t := p.take()
		r, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		e = &Prim{pos: p.posOf(t), Op: ";", Args: []Expr{e, r}}
	}
	return e, nil
}

// assignExpr := binary [':=' assignExpr]
func (p *parser) assignExpr() (Expr, error) {
	e, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if p.at(ASSIGN) {
		t := p.take()
		r, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &Prim{pos: p.posOf(t), Op: ":=", Args: []Expr{e, r}}, nil
	}
	return e, nil
}

// binLevels lists the binary operators by precedence, loosest first.
// Comparisons (level 2) do not chain; the other levels associate left.
var binLevels = [][]kind{{ORELSE}, {ANDALSO}, {EQ, NEQ, LT, LE, GT, GE}, {PLUS, MINUS}, {STAR, DIV, MOD}}

var binOps = map[kind]string{ORELSE: "orelse", ANDALSO: "andalso", EQ: "=", NEQ: "<>", LT: "<",
	LE: "<=", GT: ">", GE: ">=", PLUS: "+", MINUS: "-", STAR: "*", DIV: "div", MOD: "mod"}

func (p *parser) binary(level int) (Expr, error) {
	if level == len(binLevels) {
		return p.unaryExpr()
	}
	e, err := p.binary(level + 1)
	for err == nil && slices.Contains(binLevels[level], p.peek().kind) {
		t := p.take()
		var r Expr
		if r, err = p.binary(level + 1); err == nil {
			e = &Prim{pos: p.posOf(t), Op: binOps[t.kind], Args: []Expr{e, r}}
		}
		if level == 2 {
			break
		}
	}
	return e, err
}

func (p *parser) unaryExpr() (Expr, error) {
	switch p.peek().kind {
	case TILDE, BANG, NOT:
		t := p.take()
		arg, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		op := map[kind]string{TILDE: "~", BANG: "!", NOT: "not"}[t.kind]
		return &Prim{pos: p.posOf(t), Op: op, Args: []Expr{arg}}, nil
	}
	return p.appExpr()
}

// atomStart reports whether a token can begin an application argument.
func atomStart(k kind) bool {
	switch k {
	case INT, TRUE, FALSE, IDENT, STRING, LPAREN, HASH, BANG:
		return true
	}
	return false
}

// appExpr := atom atom*   (left-associative application)
func (p *parser) appExpr() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for atomStart(p.peek().kind) {
		t := p.peek()
		arg, err := p.argAtom()
		if err != nil {
			return nil, err
		}
		e = &App{pos: p.posOf(t), Fun: e, Arg: arg}
	}
	return e, nil
}

// argAtom parses an application argument (unary ! allowed, e.g. f !r).
func (p *parser) argAtom() (Expr, error) {
	if p.at(BANG) {
		t := p.take()
		arg, err := p.argAtom()
		if err != nil {
			return nil, err
		}
		return &Prim{pos: p.posOf(t), Op: "!", Args: []Expr{arg}}, nil
	}
	return p.atom()
}

func (p *parser) atom() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case INT:
		p.take()
		return &IntLit{pos: p.posOf(t), Val: t.num}, nil
	case TRUE:
		p.take()
		return &BoolLit{pos: p.posOf(t), Val: true}, nil
	case FALSE:
		p.take()
		return &BoolLit{pos: p.posOf(t), Val: false}, nil
	case STRING:
		p.take()
		return &StrLit{pos: p.posOf(t), Val: t.text}, nil
	case IDENT:
		p.take()
		return &Var{pos: p.posOf(t), Name: t.text}, nil
	case LPAREN:
		p.take()
		if p.at(RPAREN) {
			p.take()
			return &UnitLit{pos: p.posOf(t)}, nil
		}
		first, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		if p.at(COMMA) {
			elems := []Expr{first}
			for p.at(COMMA) {
				p.take()
				e, err := p.seqExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &Tuple{pos: p.posOf(t), Elems: elems}, nil
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return first, nil
	case HASH:
		p.take()
		idx, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		if idx.num < 1 {
			return nil, p.errf("tuple index must be positive")
		}
		arg, err := p.argAtom()
		if err != nil {
			return nil, err
		}
		return &Proj{pos: p.posOf(t), Index: int(idx.num), Arg: arg}, nil
	case FN:
		p.take()
		param, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(DARROW); err != nil {
			return nil, err
		}
		body, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		return &Fn{pos: p.posOf(t), Param: param.text, Body: body}, nil
	case IF:
		p.take()
		cond, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(THEN); err != nil {
			return nil, err
		}
		then, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ELSE); err != nil {
			return nil, err
		}
		els, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		return &If{pos: p.posOf(t), Cond: cond, Then: then, Else: els}, nil
	case LET:
		p.take()
		switch p.peek().kind {
		case VAL:
			p.take()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(EQ); err != nil {
				return nil, err
			}
			bind, err := p.seqExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(IN); err != nil {
				return nil, err
			}
			body, err := p.seqExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(END); err != nil {
				return nil, err
			}
			return &Let{pos: p.posOf(t), Name: name.text, Bind: bind, Body: body}, nil
		case FUN:
			p.take()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			param, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(EQ); err != nil {
				return nil, err
			}
			fbody, err := p.seqExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(IN); err != nil {
				return nil, err
			}
			body, err := p.seqExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(END); err != nil {
				return nil, err
			}
			return &LetFun{pos: p.posOf(t), Name: name.text, Param: param.text, FBody: fbody, Body: body}, nil
		default:
			return nil, p.errf("expected val or fun after let")
		}
	case PAR:
		p.take()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		l, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COMMA); err != nil {
			return nil, err
		}
		r, err := p.seqExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &Par{pos: p.posOf(t), Left: l, Right: r}, nil
	case REF, LENGTH, PRINT:
		p.take()
		op := map[kind]string{REF: "ref", LENGTH: "length", PRINT: "print"}[t.kind]
		arg, err := p.argAtom()
		if err != nil {
			return nil, err
		}
		return &Prim{pos: p.posOf(t), Op: op, Args: []Expr{arg}}, nil
	case ARRAY, SUB, UPDATE, TABULATE, REDUCE:
		p.take()
		op := map[kind]string{
			ARRAY: "array", SUB: "sub", UPDATE: "update",
			TABULATE: "tabulate", REDUCE: "reduce",
		}[t.kind]
		arity := 2
		if t.kind == UPDATE || t.kind == REDUCE {
			arity = 3
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var args []Expr
		for i := 0; i < arity; i++ {
			if i > 0 {
				if _, err := p.expect(COMMA); err != nil {
					return nil, err
				}
			}
			a, err := p.seqExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &Prim{pos: p.posOf(t), Op: op, Args: args}, nil
	}
	return nil, p.errf("unexpected %s", t)
}
