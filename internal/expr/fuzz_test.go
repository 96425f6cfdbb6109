package expr

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// FuzzLikeMatch checks the compiled LIKE matcher's segment fast path
// against likeGeneral, the reference backtracking matcher: for any
// pattern the two must agree on any input. (Patterns containing '_'
// take the general path directly, so the assertion is vacuous there but
// still guards against panics.)
func FuzzLikeMatch(f *testing.F) {
	seeds := [][2]string{
		{"%special%requests%", "the special set of requests"},
		{"%special%requests%", "nothing to see"},
		{"%ab", "abxab"}, // final segment occurs twice; only the last is end-anchored
		{"a%b", "ab"},
		{"a%b", "axxb"},
		{"", ""},
		{"%", "anything"},
		{"%%", ""},
		{"a_c", "abc"},
		{"_%_", "xy"},
		{"ab", "ab"},
		{"%aa%aa", "aaa"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		got := NewLike(nil, pattern, false).Match(s)
		want := likeGeneral(s, pattern)
		if got != want {
			t.Fatalf("Match(%q, %q) = %v, likeGeneral = %v", pattern, s, got, want)
		}
	})
}

// FuzzKeyEncoder checks the invariants the hash join, aggregation and
// repartitioning layers rely on: encoding is deterministic, Hash is
// exactly Hash64 over the encoded key, null is distinguishable from any
// value, and -0.0 keys equal +0.0 keys.
func FuzzKeyEncoder(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(-1), math.Inf(1))
	f.Add(int64(600036), 123.456)
	f.Add(int64(math.MinInt64), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, i int64, fv float64) {
		sch := types.NewSchema(
			types.Col("a", types.Int64),
			types.Col("b", types.Float64),
		)
		rec := make([]byte, sch.Stride())
		types.PutValue(rec, sch, 0, types.IntVal(i))
		types.PutValue(rec, sch, 1, types.FloatVal(fv))

		enc := NewKeyEncoder([]Expr{NewCol(0, "a"), NewCol(1, "b")})
		key := append([]byte(nil), enc.Encode(rec, sch)...)
		if again := enc.Encode(rec, sch); !bytes.Equal(key, again) {
			t.Fatalf("Encode not deterministic: %x then %x", key, again)
		}
		if h, want := enc.Hash(rec, sch), Hash64(key); h != want {
			t.Fatalf("Hash = %#x, Hash64(Encode) = %#x", h, want)
		}

		// Equal floats must produce equal keys even across the two zeros.
		if fv == 0 {
			neg := make([]byte, sch.Stride())
			types.PutValue(neg, sch, 0, types.IntVal(i))
			types.PutValue(neg, sch, 1, types.FloatVal(math.Copysign(0, -1)))
			if !bytes.Equal(key, append([]byte(nil), enc.Encode(neg, sch)...)) {
				t.Fatal("-0.0 and +0.0 encode to different keys")
			}
		}

		// Expression-level nulls (records themselves have no null bitmap)
		// must encode distinctly from any value of the same kind.
		if bytes.Equal(appendValue(nil, types.NullVal(types.Int64)), appendValue(nil, types.IntVal(i))) {
			t.Fatal("null key collides with non-null key")
		}
	})
}

// fuzzBytes hands out fuzz input one byte at a time, zeros once spent.
type fuzzBytes []byte

func (r *fuzzBytes) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// pick returns one of vs chosen by the next byte.
func pick[T any](r *fuzzBytes, vs ...T) T { return vs[r.next()%len(vs)] }

// Value pools for FuzzBatchPredicate: the integer and float extremes,
// NaN and both zeros, plus small values so equality and ranges hit.
var (
	fuzzInts = []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64,
		-3, -2, -1, 0, 1, 2, 3}
	fuzzFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		-1.5, -1, -0.5, 0.5, 1, 2, 3, math.MaxFloat64, -math.MaxFloat64,
		float64(math.MaxInt64), float64(math.MinInt64)}
	fuzzStrs = []string{"", "a", "ab", "abc", "b", "ba", "bab", "c", "a%", "a_b", "abcd"}
)

// fuzzPredSchema covers every column kind the fused kernels read.
func fuzzPredSchema() *types.Schema {
	return types.NewSchema(
		types.Col("i", types.Int64),
		types.Col("j", types.Int64),
		types.Col("f", types.Float64),
		types.Col("g", types.Float64),
		types.Col("d", types.Date),
		types.Char("s", 4),
	)
}

func fuzzValue(r *fuzzBytes, k types.Kind) types.Value {
	switch k {
	case types.Int64:
		return types.IntVal(pick(r, fuzzInts...))
	case types.Date:
		return types.DateVal(pick(r, fuzzInts...))
	case types.Float64:
		return types.FloatVal(pick(r, fuzzFloats...))
	default:
		return types.StrVal(pick(r, fuzzStrs...))
	}
}

// fuzzConst is a constant of any kind, NULL included, so column/constant
// kind mismatches (int vs float, date vs int, CHAR vs number) occur.
func fuzzConst(r *fuzzBytes) types.Value {
	k := pick(r, types.Int64, types.Float64, types.Date, types.String)
	if r.next()%8 == 0 {
		return types.NullVal(k)
	}
	return fuzzValue(r, k)
}

func fuzzCol(r *fuzzBytes, sch *types.Schema) *Col {
	i := r.next() % len(sch.Cols)
	return NewCol(i, sch.Cols[i].Name)
}

// fuzzNumCol picks a numeric or date column.
func fuzzNumCol(r *fuzzBytes, sch *types.Schema) *Col {
	i := r.next() % (len(sch.Cols) - 1)
	return NewCol(i, sch.Cols[i].Name)
}

// fuzzTerm builds one predicate term: every fused shape (column/constant
// and constant/column comparisons, column/column comparisons, BETWEEN,
// IN, LIKE) over any column, plus arithmetic and OR/NOT shapes that take
// the row fallback.
func fuzzTerm(r *fuzzBytes, sch *types.Schema, depth int) Expr {
	op := CmpOp(r.next() % 6)
	c := fuzzCol(r, sch)
	k := NewConst(fuzzConst(r))
	switch r.next() % 8 {
	case 0:
		return NewCmp(op, c, k)
	case 1:
		return NewCmp(op, k, c)
	case 2:
		return NewCmp(op, c, fuzzCol(r, sch))
	case 3:
		return NewBetween(c, k, NewConst(fuzzConst(r)))
	case 4:
		list := make([]types.Value, 1+r.next()%4)
		for i := range list {
			if r.next()%6 == 0 {
				list[i] = fuzzConst(r)
			} else {
				list[i] = types.IntVal(pick(r, fuzzInts...))
			}
		}
		return NewIn(c, list)
	case 5:
		pat := make([]byte, r.next()%5)
		for i := range pat {
			pat[i] = pick(r, byte('a'), 'b', 'c', '%', '_')
		}
		return NewLike(NewCol(5, "s"), string(pat), r.next()%2 == 1)
	case 6:
		var rhs Expr = fuzzNumCol(r, sch)
		if r.next()%2 == 0 {
			rhs = k
		}
		ar := NewArith(ArithOp(r.next()%4), fuzzNumCol(r, sch), rhs)
		return NewCmp(op, ar, NewConst(fuzzConst(r)))
	default:
		if depth > 0 {
			return NewCmp(op, c, k)
		}
		l, rt := fuzzTerm(r, sch, depth+1), fuzzTerm(r, sch, depth+1)
		if r.next()%2 == 0 {
			return NewNot(l)
		}
		return NewOr(l, rt)
	}
}

// FuzzBatchPredicate checks the compiled selection kernels against the
// row evaluator they replace: for a random block and a random predicate
// (one term or an AND chain), CompilePredicate(...).Select must keep
// exactly the rows where Truthy(Eval) holds, both scanning the block
// (sel == nil) and narrowing a random pre-selection in place. Each term
// also runs through CompileBatch, whose vector must match Eval row by
// row, NULLs included.
func FuzzBatchPredicate(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 48+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		sch := fuzzPredSchema()
		n := r.next() % 40
		blk := block.New(sch, (n+1)*sch.Stride(), nil)
		for i := 0; i < n; i++ {
			rec := blk.AppendRowTo()
			for c, col := range sch.Cols {
				types.PutValue(rec, sch, c, fuzzValue(&r, col.Kind))
			}
		}
		terms := make([]Expr, 1+r.next()%3)
		for i := range terms {
			terms[i] = fuzzTerm(&r, sch, 0)
		}
		pred := NewAnd(terms...)
		pre := []int32{} // never nil: nil selects the scan mode
		for i := 0; i < n; i++ {
			if r.next()%2 == 0 {
				pre = append(pre, int32(i))
			}
		}

		var want, wantPre []int32
		for i := 0; i < n; i++ {
			if Truthy(pred.Eval(blk.Row(i), sch)) {
				want = append(want, int32(i))
				if slices.Contains(pre, int32(i)) {
					wantPre = append(wantPre, int32(i))
				}
			}
		}
		bp := CompilePredicate(pred, sch)
		// A short buffer holding junk must not leak into the result.
		buf := []int32{-7, -7}
		if got := bp.Select(blk, nil, buf); !slices.Equal(got, want) {
			t.Fatalf("%s scan: Select = %v, row Eval keeps %v", pred, got, want)
		}
		if got := bp.Select(blk, slices.Clone(pre), nil); !slices.Equal(got, wantPre) {
			t.Fatalf("%s narrowing %v: Select = %v, row Eval keeps %v", pred, pre, got, wantPre)
		}

		v := GetVec()
		defer PutVec(v)
		for _, e := range terms {
			CompileBatch(e, sch).EvalVec(blk, pre, v)
			for j, i := range pre {
				if got, want := v.Value(j), e.Eval(blk.Row(int(i)), sch); !sameValue(got, want) {
					t.Fatalf("%s row %d: EvalVec = %v, Eval = %v", e, i, got, want)
				}
			}
		}
	})
}

// sameValue compares a kernel's output to the row result: same NULL-ness
// and, compared in the kernel's kind, the same value (bit for bit for
// floats, where any two NaNs agree).
func sameValue(got, want types.Value) bool {
	if got.Null || want.Null {
		return got.Null == want.Null
	}
	switch got.Kind {
	case types.Float64:
		a, b := got.F, want.AsFloat()
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	case types.String:
		return got.S == want.S
	default:
		return got.I == want.AsInt()
	}
}
