package engine

import (
	"repro/internal/expr"
	"repro/internal/iterator"
	"repro/internal/types"
)

// argBinder substitutes one execution's arguments into the plan's
// parameterized expressions as the operator factory instantiates them.
// The plan itself is never written. Each parameterized expression is
// substituted once per execution — memoized, so every node instance of
// an operator shares one substituted tree — right before the operator
// compiles its batch kernels, which therefore see plain constants (the
// fused column-op-constant kernels included). With no arguments every
// method returns its input unchanged.
type argBinder struct {
	vals []types.Value
	// memo pairs each substituted template expression with its
	// substitution. A plan has a handful of parameterized expressions,
	// so a scan beats a map, and the first two need no allocation.
	memo   []substPair
	inline [2]substPair
}

type substPair struct{ tmpl, bound expr.Expr }

// expr returns x with the arguments substituted (x itself when it has
// no parameter slot).
func (b *argBinder) expr(x expr.Expr) expr.Expr {
	if b.vals == nil {
		return x
	}
	for _, m := range b.memo {
		if m.tmpl == x {
			return m.bound
		}
	}
	s := expr.SubstParams(x, b.vals)
	if s != x {
		if b.memo == nil {
			b.memo = b.inline[:0]
		}
		b.memo = append(b.memo, substPair{x, s})
	}
	return s
}

// list substitutes into an expression list.
func (b *argBinder) list(xs []expr.Expr) []expr.Expr {
	return substEach(b, xs, func(x *expr.Expr) *expr.Expr { return x })
}

// sortKeys substitutes into sort keys.
func (b *argBinder) sortKeys(ks []iterator.SortKey) []iterator.SortKey {
	return substEach(b, ks, func(k *iterator.SortKey) *expr.Expr { return &k.E })
}

// specs substitutes into aggregate arguments.
func (b *argBinder) specs(ss []iterator.AggSpec) []iterator.AggSpec {
	return substEach(b, ss, func(s *iterator.AggSpec) *expr.Expr { return &s.Arg })
}

// substEach substitutes into the expression at(&xs[i]) of every
// element, copying the slice only when some element changes.
func substEach[T any](b *argBinder, xs []T, at func(*T) *expr.Expr) []T {
	if b.vals == nil {
		return xs
	}
	out := xs
	for i := range xs {
		x := *at(&xs[i])
		if s := b.expr(x); s != x {
			if &out[0] == &xs[0] {
				out = append([]T(nil), xs...)
			}
			*at(&out[i]) = s
		}
	}
	return out
}
