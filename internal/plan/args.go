package plan

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
)

// This file binds execution arguments to a plan's parameter slots. A
// compiled plan holds expr.Param slots where the statement said $n (or
// where sql.Parameterize lifted a literal). The plan is never
// rewritten: the engine checks and coerces the arguments here, then
// substitutes them into each parameterized expression as it builds the
// execution's operators, so one cached plan serves every concurrent
// execution with its own arguments.

// CoerceArgs checks args against the plan's parameter slots ($1 binds
// args[0]) and returns them coerced to each slot's inferred kind where
// the conversion is lossless (int -> float, string in date format ->
// date). A missing, surplus or un-coercible argument is an error.
func (p *Plan) CoerceArgs(args []types.Value) ([]types.Value, error) {
	switch {
	case len(args) == p.NumParams:
	case p.NumParams == 0:
		return nil, fmt.Errorf("plan: statement takes no parameters, %d given", len(args))
	case len(args) == 0:
		return nil, fmt.Errorf("plan: %d unbound parameters; use PREPARE/EXECUTE or pass arguments", p.NumParams)
	default:
		return nil, fmt.Errorf("plan: statement wants %d parameters, %d given", p.NumParams, len(args))
	}
	return coerceArgs(p, args)
}

// coerceArgs aligns argument values with the slots' inferred kinds,
// which the compiler records once per plan (inferParamSlots). The
// argument slice is returned as is when no value needs converting.
func coerceArgs(p *Plan, args []types.Value) ([]types.Value, error) {
	out := args
	for i, v := range args {
		if !p.paramTyped[i] {
			continue
		}
		cv, err := coerceValue(v, p.paramKinds[i])
		if err != nil {
			return nil, fmt.Errorf("plan: $%d: %w", i+1, err)
		}
		if cv != v {
			if &out[0] == &args[0] {
				out = append([]types.Value(nil), args...)
			}
			out[i] = cv
		}
	}
	return out, nil
}

// ArgsExact reports whether args can stand in for the literals they
// were lifted from without changing any comparison: each already has
// its slot's kind, or is an integer in a float or date slot — the
// widening Value.Compare applies to the literal anyway. The other
// coercions CoerceArgs allows (a float to an int, a string to a date)
// would compare differently from the literal text.
func (p *Plan) ArgsExact(args []types.Value) bool {
	if len(args) != p.NumParams {
		return false
	}
	for i, v := range args {
		want := p.paramKinds[i]
		widens := v.Kind == types.Int64 && (want == types.Float64 || want == types.Date)
		if p.paramTyped[i] && v.Kind != want && !widens {
			return false
		}
	}
	return true
}

// inferParamSlots walks the plan's segment trees and partition keys
// once, recording the slot count (the highest $n) and each slot's kind
// as inferred from its comparison context; the first typed instance of
// a slot decides.
func inferParamSlots(p *Plan) {
	var params []*expr.Param
	see := func(e expr.Expr) {
		expr.WalkParams(e, func(pr *expr.Param) {
			params = append(params, pr)
			p.NumParams = max(p.NumParams, pr.N)
		})
	}
	for _, seg := range p.Segments {
		walkOpExprs(seg.Root, see)
		if seg.Out != nil {
			for _, e := range seg.Out.PartKeys {
				see(e)
			}
		}
	}
	p.paramKinds = make([]types.Kind, p.NumParams)
	p.paramTyped = make([]bool, p.NumParams)
	for _, pr := range params {
		if pr.Typed && !p.paramTyped[pr.N-1] {
			p.paramKinds[pr.N-1], p.paramTyped[pr.N-1] = pr.K, true
		}
	}
}

// coerceValue converts v to the slot kind when the conversion is
// lossless; same-kind and NULL values pass through.
func coerceValue(v types.Value, want types.Kind) (types.Value, error) {
	if v.Null || v.Kind == want {
		return v, nil
	}
	switch {
	case want == types.Float64 && v.Kind == types.Int64:
		return types.FloatVal(float64(v.I)), nil
	case want == types.Int64 && v.Kind == types.Float64 && float64(int64(v.F)) == v.F:
		return types.IntVal(int64(v.F)), nil
	case want == types.Date && v.Kind == types.String:
		days, err := types.ParseDate(v.S)
		if err != nil {
			return v, fmt.Errorf("expected a date, got %q", v.S)
		}
		return types.DateVal(days), nil
	case want == types.Date && v.Kind == types.Int64:
		return types.DateVal(v.I), nil
	}
	return v, fmt.Errorf("cannot use %v value for %v slot", v.Kind, want)
}

// walkOpExprs visits every expression attached to the operator tree.
func walkOpExprs(op PhysOp, fn func(expr.Expr)) {
	Walk(op, func(o PhysOp) {
		switch n := o.(type) {
		case *PScan:
			if n.Pred != nil {
				fn(n.Pred)
			}
		case *PFilter:
			fn(n.Pred)
		case *PProject:
			for _, e := range n.Exprs {
				fn(e)
			}
		case *PHashJoin:
			for _, e := range n.BuildKeys {
				fn(e)
			}
			for _, e := range n.ProbeKeys {
				fn(e)
			}
		case *PHashAgg:
			for _, e := range n.Keys {
				fn(e)
			}
			for _, s := range n.Specs {
				if s.Arg != nil {
					fn(s.Arg)
				}
			}
		case *PSort:
			for _, k := range n.Keys {
				fn(k.E)
			}
		case *PTopN:
			for _, k := range n.Keys {
				fn(k.E)
			}
		}
	})
}
