package expr

// This file implements statement parameters. A Param is a constant
// slot left in a compiled plan by $n (or by a literal the plan cache
// lifted into one). The plan itself is never mutated: each execution
// substitutes its arguments (SubstParams) into the expressions it
// instantiates, just before the batch kernels compile, so the kernels
// see plain constants. An unbound Param must never be evaluated — the
// engine refuses to run a template without its arguments.

import (
	"fmt"

	"repro/internal/types"
)

// Param is a positional prepared-statement parameter ($n, 1-based).
type Param struct {
	N int
	// K is the kind inferred from the parameter's comparison context at
	// compile time; Typed records whether inference succeeded. Untyped
	// parameters default to Int64.
	K     types.Kind
	Typed bool
}

// NewParam builds an (as yet untyped) parameter slot.
func NewParam(n int) *Param { return &Param{N: n} }

// Eval implements Expr. An unbound parameter yields NULL; execution
// never reaches here because the engine substitutes every slot.
func (p *Param) Eval([]byte, *types.Schema) types.Value { return types.NullVal(p.Kind(nil)) }

// Kind implements Expr.
func (p *Param) Kind(*types.Schema) types.Kind {
	if p.Typed {
		return p.K
	}
	return types.Int64
}

func (p *Param) String() string { return fmt.Sprintf("$%d", p.N) }

// SetKind records the kind inferred from context, first inference wins.
func (p *Param) SetKind(k types.Kind) {
	if !p.Typed {
		p.K, p.Typed = k, true
	}
}

// ParamBinder lets expression types defined outside this package take
// part in parameter walking and substitution (the planner's internal
// date-arithmetic node implements it).
type ParamBinder interface {
	// WalkParams visits every parameter slot under the node.
	WalkParams(fn func(*Param))
	// BindParams returns the node with parameters substituted by
	// constants, sharing unchanged subtrees (the receiver itself when
	// nothing changed); it must not mutate the receiver.
	BindParams(vals []types.Value) Expr
}

// WalkParams visits every Param in the tree.
func WalkParams(e Expr, fn func(*Param)) {
	switch n := e.(type) {
	case nil:
	case *Param:
		fn(n)
	case *Col, *Const:
	case *Arith:
		WalkParams(n.L, fn)
		WalkParams(n.R, fn)
	case *Cmp:
		WalkParams(n.L, fn)
		WalkParams(n.R, fn)
	case *And:
		for _, t := range n.Terms {
			WalkParams(t, fn)
		}
	case *Or:
		for _, t := range n.Terms {
			WalkParams(t, fn)
		}
	case *Not:
		WalkParams(n.E, fn)
	case *Like:
		WalkParams(n.E, fn)
	case *Between:
		WalkParams(n.E, fn)
		WalkParams(n.Lo, fn)
		WalkParams(n.Hi, fn)
	case *In:
		WalkParams(n.E, fn)
	case *Case:
		for _, w := range n.Whens {
			WalkParams(w.Cond, fn)
			WalkParams(w.Then, fn)
		}
		WalkParams(n.Else, fn)
	case *Extract:
		WalkParams(n.E, fn)
	default:
		if pb, ok := e.(ParamBinder); ok {
			pb.WalkParams(fn)
		}
	}
}

// SubstParams returns the expression with every Param replaced by the
// corresponding constant from vals (vals[N-1] binds $N); a slot with no
// value stays a parameter. Subtrees without parameters are shared, not
// copied, so substitution clones only the spine above each slot and
// returns a parameter-free e itself, allocating nothing. The input tree
// is never mutated — it may belong to a cached, concurrently shared
// plan.
func SubstParams(e Expr, vals []types.Value) Expr {
	out, _ := subst(e, vals)
	return out
}

// subst is SubstParams reporting whether anything changed.
func subst(e Expr, vals []types.Value) (Expr, bool) {
	switch n := e.(type) {
	case *Param:
		if n.N < 1 || n.N > len(vals) {
			return e, false
		}
		return NewConst(vals[n.N-1]), true
	case *Arith:
		l, cl := subst(n.L, vals)
		r, cr := subst(n.R, vals)
		if cl || cr {
			return NewArith(n.Op, l, r), true
		}
	case *Cmp:
		l, cl := subst(n.L, vals)
		r, cr := subst(n.R, vals)
		if cl || cr {
			return NewCmp(n.Op, l, r), true
		}
	case *And:
		if terms, ok := substList(n.Terms, vals); ok {
			return &And{Terms: terms}, true
		}
	case *Or:
		if terms, ok := substList(n.Terms, vals); ok {
			return &Or{Terms: terms}, true
		}
	case *Not:
		if c, ok := subst(n.E, vals); ok {
			return NewNot(c), true
		}
	case *Like:
		if c, ok := subst(n.E, vals); ok {
			return NewLike(c, n.Pattern, n.Negate), true
		}
	case *Between:
		c, cc := subst(n.E, vals)
		lo, cl := subst(n.Lo, vals)
		hi, ch := subst(n.Hi, vals)
		if cc || cl || ch {
			return NewBetween(c, lo, hi), true
		}
	case *In:
		if c, ok := subst(n.E, vals); ok {
			return NewIn(c, n.List), true
		}
	case *Case:
		var whens []When
		for i, w := range n.Whens {
			cond, cc := subst(w.Cond, vals)
			then, ct := subst(w.Then, vals)
			if (cc || ct) && whens == nil {
				whens = append([]When(nil), n.Whens...)
			}
			if whens != nil {
				whens[i] = When{Cond: cond, Then: then}
			}
		}
		els, ce := subst(n.Else, vals)
		if whens != nil || ce {
			if whens == nil {
				whens = n.Whens
			}
			return NewCase(whens, els), true
		}
	case *Extract:
		if c, ok := subst(n.E, vals); ok {
			return NewExtract(n.Part, c), true
		}
	case ParamBinder:
		out := n.BindParams(vals)
		return out, out != e
	}
	return e, false
}

func substList(terms []Expr, vals []types.Value) ([]Expr, bool) {
	var out []Expr
	for i, t := range terms {
		if s, c := subst(t, vals); c {
			if out == nil {
				out = append([]Expr(nil), terms...)
			}
			out[i] = s
		}
	}
	return out, out != nil
}
