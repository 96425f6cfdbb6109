package expr

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// Kernel micro-benchmarks: row-at-a-time Eval vs the compiled batch
// kernels over one 4096-row block, the comparison behind the issue's
// >=2x acceptance bars. EXPERIMENTS.md records representative numbers.

const benchRows = 4096

// benchSelExprs maps a target selectivity to a fused col<const
// predicate over column a, which is uniform on [-50, 50).
func benchSelExprs(sch *types.Schema) map[string]Expr {
	a := col(sch, "a")
	return map[string]Expr{
		"1pct":  NewCmp(LT, a, NewConst(types.IntVal(-49))),
		"50pct": NewCmp(LT, a, NewConst(types.IntVal(0))),
		"99pct": NewCmp(LT, a, NewConst(types.IntVal(49))),
	}
}

func BenchmarkFilterRow(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	for name, pred := range benchSelExprs(sch) {
		b.Run(name, func(b *testing.B) {
			kept := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept = 0
				for r := 0; r < blk.NumTuples(); r++ {
					if Truthy(pred.Eval(blk.Row(r), sch)) {
						kept++
					}
				}
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
			_ = kept
		})
	}
}

func BenchmarkFilterBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	for name, pred := range benchSelExprs(sch) {
		b.Run(name, func(b *testing.B) {
			bp := CompilePredicate(pred, sch)
			if !bp.Fused() {
				b.Fatal("predicate did not fuse")
			}
			sel := make([]int32, 0, benchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = bp.Select(blk, nil, sel[:0])
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkFilterConjunctionBatch measures selection-vector narrowing
// across a three-term AND, the copy-free in-place chain.
func BenchmarkFilterConjunctionBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	pred := NewAnd(
		NewCmp(LT, col(sch, "a"), NewConst(types.IntVal(25))),
		NewCmp(GE, col(sch, "b"), NewConst(types.IntVal(2))),
		NewCmp(NE, col(sch, "f"), NewConst(types.FloatVal(0))),
	)
	bp := CompilePredicate(pred, sch)
	sel := make([]int32, 0, benchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = bp.Select(blk, nil, sel[:0])
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
}

func benchKeyExprs(sch *types.Schema) map[string][]Expr {
	return map[string][]Expr{
		"int":        {col(sch, "a")},
		"int_int":    {col(sch, "a"), col(sch, "b")},
		"str":        {col(sch, "s")},
		"int_f_str":  {col(sch, "a"), col(sch, "f"), col(sch, "s")},
		"arith_expr": {NewArith(Add, col(sch, "a"), col(sch, "b"))},
	}
}

func BenchmarkKeyHashRow(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 7)
	for name, keys := range benchKeyExprs(sch) {
		b.Run(name, func(b *testing.B) {
			enc := NewKeyEncoder(keys)
			var h uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < blk.NumTuples(); r++ {
					key := enc.Encode(blk.Row(r), sch)
					h ^= Hash64(key)
				}
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "keys/s")
			_ = h
		})
	}
}

func BenchmarkKeyHashBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 7)
	for name, keys := range benchKeyExprs(sch) {
		b.Run(name, func(b *testing.B) {
			enc := NewBatchKeyEncoder(keys, sch)
			if !enc.Vectorized() {
				b.Fatal("key encoder did not vectorize")
			}
			var h uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := enc.EncodeBlock(blk, nil)
				for j := 0; j < n; j++ {
					h ^= enc.Hash(j)
				}
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "keys/s")
			_ = h
		})
	}
}

func benchProjExprs(sch *types.Schema) []Expr {
	return []Expr{
		NewArith(Mul, col(sch, "f"), NewConst(types.FloatVal(0.07))),
		NewArith(Sub, col(sch, "a"), col(sch, "b")),
		NewExtract(Year, col(sch, "d")),
	}
}

func BenchmarkProjectionRow(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 3)
	exprs := benchProjExprs(sch)
	var sink types.Value
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < blk.NumTuples(); r++ {
			rec := blk.Row(r)
			for _, e := range exprs {
				sink = e.Eval(rec, sch)
			}
		}
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
	_ = sink
}

func BenchmarkProjectionBatch(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 3)
	var kerns []BatchExpr
	for i, e := range benchProjExprs(sch) {
		k := CompileBatch(e, sch)
		if !k.Fused() {
			b.Fatal(fmt.Sprintf("projection expr %d did not fuse", i))
		}
		kerns = append(kerns, k)
	}
	v := GetVec()
	defer PutVec(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kerns {
			k.EvalVec(blk, nil, v)
		}
	}
	b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
}

// selectShapes names one predicate per fused selection-kernel family,
// each keeping roughly half of the benchmark block's rows where the
// column's distribution allows it.
func selectShapes(sch *types.Schema) []struct {
	name string
	pred Expr
} {
	a, b, f, g := col(sch, "a"), col(sch, "b"), col(sch, "f"), col(sch, "g")
	d, s := col(sch, "d"), col(sch, "s")
	ic := func(v int64) Expr { return NewConst(types.IntVal(v)) }
	fc := func(v float64) Expr { return NewConst(types.FloatVal(v)) }
	return []struct {
		name string
		pred Expr
	}{
		{"cmp_int_const", NewCmp(LT, a, ic(0))},
		{"cmp_date_const", NewCmp(GE, d, NewConst(types.DateVal(14400)))},
		{"cmp_float_const", NewCmp(LT, f, fc(0))},
		{"cmp_intcol_float_const", NewCmp(LE, a, fc(-0.5))},
		{"cmp_str_const", NewCmp(LT, s, NewConst(types.StrVal("b")))},
		{"cmp_col_col_int", NewCmp(GT, a, b)},
		{"cmp_col_col_float", NewCmp(LT, f, g)},
		{"between_int", NewBetween(a, ic(-25), ic(24))},
		{"between_float", NewBetween(f, fc(-12.5), fc(12.5))},
		{"in_int", NewIn(a, []types.Value{types.IntVal(-40), types.IntVal(-20),
			types.IntVal(0), types.IntVal(20), types.IntVal(40)})},
		{"like", NewLike(s, "%a%", false)},
		{"and_narrow", NewAnd(NewCmp(LT, a, ic(25)), NewCmp(GE, b, ic(2)),
			NewCmp(NE, f, fc(0)))},
	}
}

// BenchmarkSelectShapes runs every fused selection kernel over one
// 4096-row block in append-scan mode (and_narrow adds the in-place
// narrowing mode behind its first conjunct).
func BenchmarkSelectShapes(b *testing.B) {
	sch := batchTestSchema()
	blk := fillBatchBlock(sch, benchRows, 99)
	for _, sh := range selectShapes(sch) {
		b.Run(sh.name, func(b *testing.B) {
			bp := CompilePredicate(sh.pred, sch)
			if !bp.Fused() {
				b.Fatalf("%s did not fuse", sh.pred)
			}
			sel := make([]int32, 0, benchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel = bp.Select(blk, nil, sel[:0])
			}
			b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}
