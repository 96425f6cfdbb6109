package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// buildArgsFixture loads a deterministic trades table with int, float,
// date and string columns into a 3-node cluster with the given plan
// cache size (negative disables the cache).
func buildArgsFixture(t *testing.T, cacheSize int) *Cluster {
	t.Helper()
	cat := catalog.New(3)
	trades := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
		types.Char("side", 4),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: trades, PartKey: []int{1}})
	c := NewCluster(Config{Nodes: 3, CoresPerNode: 2, PlanCacheSize: cacheSize}, cat)
	t.Cleanup(c.Close)
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	day := types.MustParseDate("2010-10-30")
	sides := []string{"BUY", "SELL", "BID"}
	for i := 0; i < 900; i++ {
		r := tl.Row()
		types.PutValue(r, trades, 0, types.IntVal(int64(i%37)))
		types.PutValue(r, trades, 1, types.IntVal(int64(i%11)))
		types.PutValue(r, trades, 2, types.DateVal(day-int64(i%5)))
		types.PutValue(r, trades, 3, types.FloatVal(float64(i%101)))
		types.PutValue(r, trades, 4, types.StrVal(sides[i%3]))
		tl.Add()
	}
	tl.Close()
	return c
}

// outcome renders a query's result (or error) for comparison.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(res.Names, ",") + "\n" + fpFingerprint(res)
}

// TestAdHocAndPreparedShareOneEntry is the convergence property: an
// ad-hoc lookup and the same statement prepared with $n compile to one
// cached template and agree on every key.
func TestAdHocAndPreparedShareOneEntry(t *testing.T) {
	c := buildArgsFixture(t, 0)
	const shape = "SELECT acct_id, trade_volume FROM trades WHERE sec_code = "
	p, args, _, err := c.CompileCached(shape + "$1")
	if err != nil {
		t.Fatal(err)
	}
	if args != nil || p.NumParams != 1 {
		t.Fatalf("prepared text: NumParams=%d args=%v, want 1 slot and no lifted args", p.NumParams, args)
	}
	for _, sec := range []int64{0, 3, 10} {
		prep, err := c.Execute(context.Background(), p, []types.Value{types.IntVal(sec)}, "execute")
		if err != nil {
			t.Fatal(err)
		}
		adhoc, err := c.Run(fmt.Sprint(shape, sec))
		if err != nil {
			t.Fatal(err)
		}
		if prep.NumRows() == 0 {
			t.Fatalf("sec_code=%d: no rows", sec)
		}
		if pf, af := fpFingerprint(prep), fpFingerprint(adhoc); pf != af {
			t.Errorf("sec_code=%d: prepared/ad-hoc differ:\n%s\nvs\n%s", sec, pf, af)
		}
	}
	if st := c.PlanCacheStats(); st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("cache after prepared + ad-hoc: %+v, want 1 entry from 1 miss", st)
	}
}

// TestDistinctLiteralsOneMiss: a thousand ad-hoc lookups that differ
// only in their key literal compile once.
func TestDistinctLiteralsOneMiss(t *testing.T) {
	c := buildArgsFixture(t, 0)
	for i := 0; i < 1000; i++ {
		res, err := c.Run(fmt.Sprintf("SELECT count(*) FROM trades WHERE sec_code = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i < 11 {
			want = 900 / 11
			if i < 900%11 {
				want++
			}
		}
		if got := res.Rows()[0][0].I; got != want {
			t.Fatalf("sec_code=%d: count %d, want %d", i, got, want)
		}
	}
	if st := c.PlanCacheStats(); st.Misses != 1 || st.Hits != 999 || st.Entries != 1 {
		t.Fatalf("cache after 1000 distinct literals: %+v, want 1 miss, 999 hits, 1 entry", st)
	}
}

// TestNonLiftedPositionsKeepDistinctEntries: literals that shape the
// plan or are matched as text stay literal, so statements differing in
// them keep their own cache entries — and their own results.
func TestNonLiftedPositionsKeepDistinctEntries(t *testing.T) {
	c := buildArgsFixture(t, 0)
	ref := buildArgsFixture(t, -1)
	pairs := []struct{ name, a, b string }{
		{"LIMIT",
			"SELECT acct_id FROM trades WHERE sec_code = 3 ORDER BY acct_id LIMIT 5",
			"SELECT acct_id FROM trades WHERE sec_code = 3 ORDER BY acct_id LIMIT 6"},
		{"IN",
			"SELECT count(*) FROM trades WHERE sec_code IN (1, 2)",
			"SELECT count(*) FROM trades WHERE sec_code IN (1, 3)"},
		{"LIKE",
			"SELECT count(*) FROM trades WHERE side LIKE 'B%'",
			"SELECT count(*) FROM trades WHERE side LIKE 'S%'"},
		{"DATE",
			"SELECT count(*) FROM trades WHERE trade_date = DATE '2010-10-30'",
			"SELECT count(*) FROM trades WHERE trade_date = DATE '2010-10-29'"},
		{"INTERVAL",
			"SELECT count(*) FROM trades WHERE trade_date > DATE '2010-10-30' - INTERVAL '2' DAY",
			"SELECT count(*) FROM trades WHERE trade_date > DATE '2010-10-30' - INTERVAL '3' DAY"},
		{"select list",
			"SELECT acct_id + 1 FROM trades WHERE sec_code = 4",
			"SELECT acct_id + 2 FROM trades WHERE sec_code = 4"},
	}
	for _, pc := range pairs {
		before := c.PlanCacheStats().Entries
		for _, q := range []string{pc.a, pc.b} {
			got, want := outcome(c.Run(q)), outcome(ref.Run(q))
			if got != want {
				t.Errorf("%s: %s:\ncached:\n%s\nliteral:\n%s", pc.name, q, got, want)
			}
		}
		if n := c.PlanCacheStats().Entries - before; n != 2 {
			t.Errorf("%s: the pair added %d cache entries, want 2", pc.name, n)
		}
	}
}

// TestLiftFallsBackOnInexactArgs: a lifted literal that does not fit
// its slot exactly runs as the literal text, with the literal text's
// result or error.
func TestLiftFallsBackOnInexactArgs(t *testing.T) {
	c := buildArgsFixture(t, 0)
	ref := buildArgsFixture(t, -1)
	for _, q := range []string{
		"SELECT count(*) FROM trades WHERE sec_code = 'abc'", // string in an int slot
		"SELECT count(*) FROM trades WHERE sec_code = 2.0",   // float in an int slot
		"SELECT count(*) FROM trades WHERE trade_date = 'x'", // non-date string in a date slot
		"SELECT count(*) FROM trades WHERE trade_date = '2010-1-5'",
		// A short date-form string coerces to a date, but the literal
		// text compares it as a string: the results differ, so the
		// template must not run it.
		"SELECT count(*) FROM trades WHERE trade_date > '2010-1-5'",
		"SELECT count(*) FROM trades WHERE side = 2",            // number in a string slot
		"SELECT count(*) FROM trades WHERE side = '2010-10-30'", // date-form string in a string slot
		"SELECT count(*) FROM trades WHERE trade_volume > 50",   // int widens into a float slot
		"SELECT count(*) FROM trades WHERE nosuch = 3",          // template fails to compile
	} {
		// Twice: the second run takes the cached path.
		for i := 0; i < 2; i++ {
			if got, want := outcome(c.Run(q)), outcome(ref.Run(q)); got != want {
				t.Errorf("%s (run %d):\ncached:\n%s\nliteral:\n%s", q, i, got, want)
			}
		}
	}
}

// TestConcurrentExecuteAgreesWithSolo runs one shared template from
// many goroutines with different arguments: every execution must match
// the same arguments run alone. Under -race this also proves the plan
// is never written during execution.
func TestConcurrentExecuteAgreesWithSolo(t *testing.T) {
	c := buildArgsFixture(t, 0)
	p, _, _, err := c.CompileCached(
		"SELECT acct_id, sum(trade_volume) FROM trades WHERE sec_code = $1 AND trade_volume > $2 GROUP BY acct_id")
	if err != nil {
		t.Fatal(err)
	}
	argsOf := func(i int) []types.Value {
		return []types.Value{types.IntVal(int64(i % 11)), types.IntVal(int64(i % 7 * 10))}
	}
	solo := make(map[int]string)
	for i := 0; i < 77; i++ {
		solo[i] = outcome(c.Execute(context.Background(), p, argsOf(i), "solo"))
	}
	before := p.String()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 77; i += 8 {
				if got := outcome(c.Execute(context.Background(), p, argsOf(i), "concurrent")); got != solo[i] {
					errs <- fmt.Sprintf("args %v: concurrent result differs from solo", argsOf(i))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if after := p.String(); after != before {
		t.Fatalf("execution modified the template:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestExecuteArgChecks covers argument arity at execution: too few,
// too many, none for a template, and any for a parameter-free plan.
func TestExecuteArgChecks(t *testing.T) {
	c := buildArgsFixture(t, 0)
	ctx := context.Background()
	p, _, _, err := c.CompileCached("SELECT count(*) FROM trades WHERE sec_code = $1 AND acct_id < $2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(ctx, p, []types.Value{types.IntVal(1)}, ""); err == nil {
		t.Error("short arg list: want error")
	}
	if _, err := c.Execute(ctx, p, []types.Value{types.IntVal(1), types.IntVal(2), types.IntVal(3)}, ""); err == nil {
		t.Error("long arg list: want error")
	}
	if _, err := c.Execute(ctx, p, nil, ""); err == nil || !strings.Contains(err.Error(), "unbound parameters") {
		t.Errorf("template without args: got %v, want the unbound-parameters error", err)
	}
	pf, _, _, err := c.CompileCached("SELECT count(*) FROM trades")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(ctx, pf, nil, ""); err != nil {
		t.Errorf("parameter-free plan without args: %v", err)
	}
	if _, err := c.Execute(ctx, pf, []types.Value{types.IntVal(1)}, ""); err == nil {
		t.Error("args for a parameter-free plan: want error")
	}
}

// TestExecuteCoercesArgKinds: a string argument in date form runs in a
// date slot exactly like the date, garbage does not run, and an int
// argument widens into a float slot.
func TestExecuteCoercesArgKinds(t *testing.T) {
	c := buildArgsFixture(t, 0)
	ctx := context.Background()
	p, _, _, err := c.CompileCached("SELECT count(*) FROM trades WHERE trade_date = $1")
	if err != nil {
		t.Fatal(err)
	}
	asDate := outcome(c.Execute(ctx, p, []types.Value{types.DateVal(types.MustParseDate("2010-10-30"))}, ""))
	asStr := outcome(c.Execute(ctx, p, []types.Value{types.StrVal("2010-10-30")}, ""))
	if asStr != asDate || strings.HasPrefix(asDate, "error") {
		t.Fatalf("date string arg: %s, date arg: %s", asStr, asDate)
	}
	if _, err := c.Execute(ctx, p, []types.Value{types.StrVal("not-a-date")}, ""); err == nil {
		t.Error("bad date string: want error")
	}

	pf, _, _, err := c.CompileCached("SELECT count(*) FROM trades WHERE trade_volume > $1")
	if err != nil {
		t.Fatal(err)
	}
	asInt := outcome(c.Execute(ctx, pf, []types.Value{types.IntVal(10)}, ""))
	asFloat := outcome(c.Execute(ctx, pf, []types.Value{types.FloatVal(10)}, ""))
	if asInt != asFloat || strings.HasPrefix(asInt, "error") {
		t.Fatalf("int->float widening: int arg %s, float arg %s", asInt, asFloat)
	}
}

// TestExecuteLeavesTemplateUntouched: executing a template binds the
// arguments for that execution only — the cached plan still renders
// its slot and counts its parameters afterwards.
func TestExecuteLeavesTemplateUntouched(t *testing.T) {
	c := buildArgsFixture(t, 0)
	p, _, _, err := c.CompileCached("SELECT count(*) FROM trades WHERE sec_code = $1")
	if err != nil {
		t.Fatal(err)
	}
	before := p.String()
	if _, err := c.Execute(context.Background(), p, []types.Value{types.IntVal(600036)}, ""); err != nil {
		t.Fatal(err)
	}
	if after := p.String(); after != before {
		t.Fatalf("Execute mutated the template:\nbefore: %s\nafter:  %s", before, after)
	}
	if !strings.Contains(before, "$1") || strings.Contains(before, "600036") || p.NumParams != 1 {
		t.Fatalf("template lost its slot:\n%s", before)
	}
}

// TestArgBinderSharesParamFreeExprs: substitution shares every
// parameter-free expression, and substitutes a parameterized one once
// per execution however many node instances ask for it.
func TestArgBinderSharesParamFreeExprs(t *testing.T) {
	col := expr.NewCol(0, "a")
	free := expr.NewCmp(expr.GT, col, expr.NewConst(types.IntVal(1)))
	withParam := expr.NewCmp(expr.EQ, col, expr.NewParam(1))
	b := &argBinder{vals: []types.Value{types.IntVal(7)}}

	if got := b.expr(free); got != free {
		t.Error("parameter-free expression was copied")
	}
	if and := expr.NewAnd(free, expr.NewNot(free)); b.expr(and) != and {
		t.Error("parameter-free conjunction was copied")
	}
	list := []expr.Expr{col, free}
	if got := b.list(list); &got[0] != &list[0] {
		t.Error("parameter-free list was copied")
	}
	s1, s2 := b.expr(withParam), b.expr(withParam)
	if s1 == withParam || s1 != s2 {
		t.Fatal("parameterized expression not substituted once and shared")
	}
	if got := s1.String(); got != "(a = 7)" {
		t.Fatalf("substituted expression = %s", got)
	}
	if withParam.String() != "(a = $1)" {
		t.Fatalf("substitution mutated the template: %s", withParam)
	}
	var none argBinder
	if got := none.expr(withParam); got != withParam {
		t.Error("binder without arguments must leave expressions alone")
	}
}

// TestExplainAnalyzeRendersLiftedArgs: EXPLAIN ANALYZE of ad-hoc text
// runs the shared template but renders the plan the literal text
// compiles to.
func TestExplainAnalyzeRendersLiftedArgs(t *testing.T) {
	c := buildArgsFixture(t, 0)
	for _, q := range []string{
		"SELECT count(*) FROM trades WHERE sec_code = 5",
		"SELECT acct_id FROM trades WHERE trade_volume > 50 AND trade_date = '2010-10-29'",
	} {
		_, an, err := c.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Args) == 0 {
			t.Fatalf("%s: analyzed run carried no lifted args", q)
		}
		lit, err := plan.Compile(q, c.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := an.Plan.Render(plan.Annotations{Args: an.Args}), lit.String(); got != want {
			t.Errorf("%s: analyzed plan renders\n%s\nliteral plan\n%s", q, got, want)
		}
		if r := an.Render(); strings.Contains(r, "$1") {
			t.Errorf("%s: analysis renders a parameter slot:\n%s", q, r)
		}
	}
}
