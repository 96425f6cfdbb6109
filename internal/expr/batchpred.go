// Batch predicate evaluation: predicates compile to kernels that turn a
// block into a selection vector — the surviving row indexes — instead
// of one boxed boolean per tuple. Filters then gather survivors with a
// single bulk copy (block.AppendSelected) rather than row-at-a-time
// appends.
package expr

import (
	"bytes"
	"math"

	"repro/internal/block"
	"repro/internal/types"
)

// BatchPredicate filters the rows of a block.
//
// Select semantics: with sel == nil it scans all rows in order and
// appends the qualifying indexes to buf[:0], returning the (possibly
// regrown) slice. With sel != nil it narrows sel IN PLACE — writing
// survivors into sel's prefix and returning the truncation — which is
// safe because the write index never passes the read index; buf is
// ignored. Conjunctions exploit this to chain conjuncts over one
// buffer with no intermediate copies.
//
// Kernels hold no mutable state: one compiled predicate serves every
// worker thread of an elastic pool.
type BatchPredicate interface {
	Select(b *block.Block, sel []int32, buf []int32) []int32
	// Fused reports whether the whole predicate runs as vectorized fast
	// paths (no row-at-a-time fallback anywhere in the tree).
	Fused() bool
}

// CompilePredicate compiles a boolean expression for block-at-a-time
// filtering under sch. Fused shapes: column-op-constant and
// column-op-column comparisons over numeric/date/CHAR columns, BETWEEN
// over numeric/date columns, IN over integer columns, LIKE / NOT LIKE
// over CHAR columns, and conjunctions of the above. Everything else
// (OR, NOT, nested arithmetic, …) compiles to a row-at-a-time fallback
// wrapper, so compilation is total.
func CompilePredicate(e Expr, sch *types.Schema) BatchPredicate {
	switch n := e.(type) {
	case *And:
		preds := make([]BatchPredicate, len(n.Terms))
		for i, t := range n.Terms {
			preds[i] = CompilePredicate(t, sch)
		}
		return &andPred{preds: preds}
	case *Cmp:
		if p := compileCmpPred(n, sch); p != nil {
			return p
		}
	case *Between:
		if p := compileBetweenPred(n, sch); p != nil {
			return p
		}
	case *In:
		if p := compileInPred(n, sch); p != nil {
			return p
		}
	case *Like:
		if col, ok := n.E.(*Col); ok && sch.Cols[col.Idx].Kind == types.String {
			return &likePred{off: sch.Offset(col.Idx),
				width: sch.Cols[col.Idx].Width, like: n}
		}
	}
	return &rowPred{e: e, sch: sch}
}

// PredVectorized reports whether the predicate compiles entirely to
// fused kernels under sch — the planner's Explain annotation.
func PredVectorized(e Expr, sch *types.Schema) bool {
	return CompilePredicate(e, sch).Fused()
}

// Fused kernel loop shape. The operator is resolved when the predicate
// compiles — into a range, a negation flag or a bit mask — so the
// per-row loop holds no switch and no call: it decodes the field,
// stores the row index unconditionally and advances the write index by
// the 0/1 verdict, which also keeps a 50%-selective filter free of
// branch mispredictions. Each kernel writes its loop twice, once per
// Select mode: an append-scan over every row (into a buffer sized for
// all of them) and an in-place narrowing of sel.

// b2i is the 0/1 verdict; the compiler lowers it to a flag move.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scanBuf returns buf with room for all n rows of an append-scan.
func scanBuf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// cmpMask encodes an operator as the set of three-way comparison
// results it accepts: bit d+1 is set when d (-1, 0 or 1) qualifies.
func cmpMask(op CmpOp) uint {
	switch op {
	case EQ:
		return 0b010
	case NE:
		return 0b101
	case LT:
		return 0b001
	case LE:
		return 0b011
	case GT:
		return 0b100
	default:
		return 0b110
	}
}

// maskBit reports (as 0/1) whether mask accepts the three-way
// comparison described by lt and gt — neither set compares equal, as
// Value.Compare treats NaN.
func maskBit(mask uint, lt, gt bool) int {
	return int(mask>>uint(1+b2i(gt)-b2i(lt))) & 1
}

// opRange rewrites "x op c" as "x in [lo, hi]", negated when neg is
// set, with least and most the domain's extremes. No bound is computed
// from c, so the rewrite cannot overflow.
func opRange[T int64 | float64](op CmpOp, c, least, most T) (lo, hi T, neg bool) {
	switch op {
	case EQ:
		return c, c, false
	case NE:
		return c, c, true
	case LT:
		return c, most, true
	case LE:
		return least, c, false
	case GT:
		return least, c, true
	default:
		return c, most, false
	}
}

// getNum decodes a numeric field as float64, as Value.AsFloat does.
func getNum(rec []byte, off int, isInt bool) float64 {
	if isInt {
		return float64(types.GetInt(rec, off))
	}
	return types.GetFloat(rec, off)
}

// --- fused comparison shapes -----------------------------------------------

func compileCmpPred(n *Cmp, sch *types.Schema) BatchPredicate {
	lc, lok := n.L.(*Col)
	rc, rok := n.R.(*Col)
	lv, lcOk := constOf(n.L)
	rv, rcOk := constOf(n.R)
	switch {
	case lok && rcOk: // col op const
		return colConstCmp(n.Op, sch, lc, rv)
	case lcOk && rok: // const op col → col flip(op) const
		return colConstCmp(flipCmp(n.Op), sch, rc, lv)
	case lok && rok: // col op col
		return colColCmp(n.Op, sch, lc, rc)
	}
	return nil
}

func constOf(e Expr) (types.Value, bool) {
	if c, ok := e.(*Const); ok {
		return c.V, true
	}
	return types.Value{}, false
}

// flipCmp mirrors an operator across swapped operands: c op x ≡ x op' c.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

func colConstCmp(op CmpOp, sch *types.Schema, c *Col, v types.Value) BatchPredicate {
	if v.Null {
		return nil // NULL comparisons never qualify; keep row semantics
	}
	col := sch.Cols[c.Idx]
	off := sch.Offset(c.Idx)
	switch col.Kind {
	case types.Int64, types.Date:
		if v.Kind == types.Float64 {
			// Mixed int/float compares as float (Value.Compare).
			lo, hi, neg := opRange(op, v.F, math.Inf(-1), math.Inf(1))
			return &floatRangePred{off: off, lo: lo, hi: hi, neg: neg, colInt: true}
		}
		if v.Kind == types.Int64 || v.Kind == types.Date {
			lo, hi, neg := opRange(op, v.I, math.MinInt64, math.MaxInt64)
			return newIntRange(off, lo, hi, neg)
		}
	case types.Float64:
		if v.Kind.Numeric() || v.Kind == types.Date {
			lo, hi, neg := opRange(op, v.AsFloat(), math.Inf(-1), math.Inf(1))
			return &floatRangePred{off: off, lo: lo, hi: hi, neg: neg}
		}
	case types.String:
		if v.Kind == types.String {
			return &cmpStrConstPred{off: off, width: col.Width, mask: cmpMask(op), c: []byte(v.S)}
		}
	}
	return nil
}

func colColCmp(op CmpOp, sch *types.Schema, l, r *Col) BatchPredicate {
	lk, rk := sch.Cols[l.Idx].Kind, sch.Cols[r.Idx].Kind
	if !numericOrDate(lk) || !numericOrDate(rk) {
		return nil
	}
	return &cmpColColPred{
		lOff: sch.Offset(l.Idx), rOff: sch.Offset(r.Idx), mask: cmpMask(op),
		flt:  lk == types.Float64 || rk == types.Float64,
		lInt: lk != types.Float64, rInt: rk != types.Float64,
	}
}

// intRangePred keeps Int64/Date rows with lo <= x <= hi (outside the
// range when neg is set): every integer comparison with a constant and
// every integer BETWEEN. One unsigned compare tests both bounds.
type intRangePred struct {
	off  int
	lo   int64
	span uint64 // hi - lo
	neg  bool
}

// newIntRange builds the range kernel; an empty range (lo > hi) becomes
// the negation of the full range, so it still needs no special loop.
func newIntRange(off int, lo, hi int64, neg bool) *intRangePred {
	if lo > hi {
		return &intRangePred{off: off, lo: math.MinInt64, span: math.MaxUint64, neg: !neg}
	}
	return &intRangePred{off: off, lo: lo, span: uint64(hi - lo), neg: neg}
}

func (p *intRangePred) Fused() bool { return true }

func (p *intRangePred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	off, lo, span, flip := p.off, p.lo, p.span, b2i(p.neg)
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, pos := 0, off; i < n; i, pos = i+1, pos+st {
			x := types.GetInt(payload, pos)
			out[w] = int32(i)
			w += b2i(uint64(x-lo) <= span) ^ flip
		}
		return out[:w]
	}
	for _, i := range sel {
		x := types.GetInt(payload, int(i)*st+off)
		sel[w] = i
		w += b2i(uint64(x-lo) <= span) ^ flip
	}
	return sel[:w]
}

// floatRangePred keeps rows whose value, read as float64, is neither
// below lo nor above hi (the complement when neg is set): every float
// or mixed int/float comparison with a constant and every float
// BETWEEN. "Neither below nor above" is Value.Compare's verdict, under
// which NaN compares equal to everything.
type floatRangePred struct {
	off    int
	lo, hi float64
	neg    bool
	colInt bool // decode the column as int64, compare as float
}

func (p *floatRangePred) Fused() bool { return true }

func (p *floatRangePred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	off, lo, hi, colInt := p.off, p.lo, p.hi, p.colInt
	in := b2i(!p.neg)
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, pos := 0, off; i < n; i, pos = i+1, pos+st {
			x := getNum(payload, pos, colInt)
			out[w] = int32(i)
			w += (b2i(x < lo) | b2i(x > hi)) ^ in
		}
		return out[:w]
	}
	for _, i := range sel {
		x := getNum(payload, int(i)*st+off, colInt)
		sel[w] = i
		w += (b2i(x < lo) | b2i(x > hi)) ^ in
	}
	return sel[:w]
}

// cmpStrConstPred: CHAR column op string constant, compared on the
// NUL-trimmed bytes — no per-row string allocation.
type cmpStrConstPred struct {
	off, width int
	mask       uint
	c          []byte
}

func (p *cmpStrConstPred) Fused() bool { return true }

func (p *cmpStrConstPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	off, width, mask, c := p.off, p.width, p.mask, p.c
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, pos := 0, off; i < n; i, pos = i+1, pos+st {
			d := bytes.Compare(types.GetStringBytes(payload, pos, width), c)
			out[w] = int32(i)
			w += int(mask>>uint(d+1)) & 1
		}
		return out[:w]
	}
	for _, i := range sel {
		d := bytes.Compare(types.GetStringBytes(payload, int(i)*st+off, width), c)
		sel[w] = i
		w += int(mask>>uint(d+1)) & 1
	}
	return sel[:w]
}

// cmpColColPred: numeric/date column op numeric/date column.
type cmpColColPred struct {
	lOff, rOff int
	mask       uint
	flt        bool // compare as floats
	lInt, rInt bool // decode sides as int64
}

func (p *cmpColColPred) Fused() bool { return true }

func (p *cmpColColPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	if p.flt {
		return p.selectFloat(b, sel, buf)
	}
	lOff, rOff, mask := p.lOff, p.rOff, p.mask
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, row := 0, 0; i < n; i, row = i+1, row+st {
			l, r := types.GetInt(payload, row+lOff), types.GetInt(payload, row+rOff)
			out[w] = int32(i)
			w += maskBit(mask, l < r, l > r)
		}
		return out[:w]
	}
	for _, i := range sel {
		row := int(i) * st
		l, r := types.GetInt(payload, row+lOff), types.GetInt(payload, row+rOff)
		sel[w] = i
		w += maskBit(mask, l < r, l > r)
	}
	return sel[:w]
}

func (p *cmpColColPred) selectFloat(b *block.Block, sel []int32, buf []int32) []int32 {
	lOff, rOff, mask, lInt, rInt := p.lOff, p.rOff, p.mask, p.lInt, p.rInt
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, row := 0, 0; i < n; i, row = i+1, row+st {
			l, r := getNum(payload, row+lOff, lInt), getNum(payload, row+rOff, rInt)
			out[w] = int32(i)
			w += maskBit(mask, l < r, l > r)
		}
		return out[:w]
	}
	for _, i := range sel {
		row := int(i) * st
		l, r := getNum(payload, row+lOff, lInt), getNum(payload, row+rOff, rInt)
		sel[w] = i
		w += maskBit(mask, l < r, l > r)
	}
	return sel[:w]
}

// --- BETWEEN / IN / LIKE ----------------------------------------------------

func compileBetweenPred(n *Between, sch *types.Schema) BatchPredicate {
	col, ok := n.E.(*Col)
	if !ok {
		return nil
	}
	lo, okLo := constOf(n.Lo)
	hi, okHi := constOf(n.Hi)
	if !okLo || !okHi || lo.Null || hi.Null {
		return nil
	}
	k := sch.Cols[col.Idx].Kind
	if !numericOrDate(k) || !numericOrDate(lo.Kind) || !numericOrDate(hi.Kind) {
		return nil
	}
	off := sch.Offset(col.Idx)
	loF, hiF := lo.Kind == types.Float64, hi.Kind == types.Float64
	switch {
	case k == types.Float64 || loF && hiF:
		return &floatRangePred{off: off, lo: lo.AsFloat(), hi: hi.AsFloat(),
			colInt: k != types.Float64}
	case !loF && !hiF:
		return newIntRange(off, lo.I, hi.I, false)
	default:
		// An integer column between an integer and a float bound: each
		// bound compares in its own kind (Value.Compare), exactly for the
		// integer one, so the bounds become two one-sided kernels.
		return &andPred{preds: []BatchPredicate{
			colConstCmp(GE, sch, col, lo), colConstCmp(LE, sch, col, hi)}}
	}
}

func compileInPred(n *In, sch *types.Schema) BatchPredicate {
	col, ok := n.E.(*Col)
	if !ok {
		return nil
	}
	k := sch.Cols[col.Idx].Kind
	if k != types.Int64 && k != types.Date {
		return nil
	}
	list := make([]int64, 0, len(n.List))
	for _, v := range n.List {
		if v.Null || (v.Kind != types.Int64 && v.Kind != types.Date) {
			return nil
		}
		list = append(list, v.I)
	}
	return &inIntPred{off: sch.Offset(col.Idx), list: list}
}

// inIntPred: integer column IN a small literal list (linear scan: the
// workloads' IN lists hold a handful of codes).
type inIntPred struct {
	off  int
	list []int64
}

func (p *inIntPred) Fused() bool { return true }

func (p *inIntPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	off, list := p.off, p.list
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, pos := 0, off; i < n; i, pos = i+1, pos+st {
			x, hit := types.GetInt(payload, pos), 0
			for _, c := range list {
				if x == c {
					hit = 1
					break
				}
			}
			out[w] = int32(i)
			w += hit
		}
		return out[:w]
	}
	for _, i := range sel {
		x, hit := types.GetInt(payload, int(i)*st+off), 0
		for _, c := range list {
			if x == c {
				hit = 1
				break
			}
		}
		sel[w] = i
		w += hit
	}
	return sel[:w]
}

// likePred: LIKE / NOT LIKE over a fixed-width CHAR column, matching the
// NUL-trimmed bytes in place. The matcher itself stays a call; the
// negation is a flag applied to its verdict.
type likePred struct {
	off, width int
	like       *Like
}

func (p *likePred) Fused() bool { return true }

func (p *likePred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	off, width, like, flip := p.off, p.width, p.like, b2i(p.like.Negate)
	st, payload := b.Schema().Stride(), b.Bytes()
	w := 0
	if sel == nil {
		n := b.NumTuples()
		out := scanBuf(buf, n)
		for i, pos := 0, off; i < n; i, pos = i+1, pos+st {
			m := like.MatchBytes(types.GetStringBytes(payload, pos, width))
			out[w] = int32(i)
			w += b2i(m) ^ flip
		}
		return out[:w]
	}
	for _, i := range sel {
		m := like.MatchBytes(types.GetStringBytes(payload, int(i)*st+off, width))
		sel[w] = i
		w += b2i(m) ^ flip
	}
	return sel[:w]
}

// --- conjunction and fallback ----------------------------------------------

// andPred chains conjuncts over one selection vector: the first conjunct
// scans the block, each later one narrows the survivors in place — the
// short-circuit of And.Eval, lifted to whole blocks.
type andPred struct{ preds []BatchPredicate }

func (p *andPred) Fused() bool {
	for _, c := range p.preds {
		if !c.Fused() {
			return false
		}
	}
	return true
}

func (p *andPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	out := p.preds[0].Select(b, sel, buf)
	for _, c := range p.preds[1:] {
		if len(out) == 0 {
			return out
		}
		out = c.Select(b, out, nil)
	}
	return out
}

// rowPred is the total fallback: Truthy(Eval) per row under the
// selection scaffolding, so OR / NOT / computed predicates still flow
// through selection vectors and bulk gathers.
type rowPred struct {
	e   Expr
	sch *types.Schema
}

func (p *rowPred) Fused() bool { return false }

func (p *rowPred) Select(b *block.Block, sel []int32, buf []int32) []int32 {
	st, payload := b.Schema().Stride(), b.Bytes()
	if sel == nil {
		out := buf[:0]
		for i := 0; i < b.NumTuples(); i++ {
			if Truthy(p.e.Eval(payload[i*st:i*st+st], p.sch)) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	w := 0
	for _, i := range sel {
		if Truthy(p.e.Eval(payload[int(i)*st:int(i)*st+st], p.sch)) {
			sel[w] = i
			w++
		}
	}
	return sel[:w]
}
