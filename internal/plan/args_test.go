package plan

import (
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

func TestCompileCountsParams(t *testing.T) {
	p := compile(t, "SELECT count(*) FROM trades WHERE sec_code = $1 AND trade_date = $2")
	if p.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", p.NumParams)
	}
	if compile(t, "SELECT count(*) FROM trades").NumParams != 0 {
		t.Fatal("parameter-free plan reports parameters")
	}
}

// TestLiftedTemplateRendersLikeLiteral checks that a template compiled
// from Parameterize's output, rendered with the lifted arguments, is
// the plan the literal text compiles to: same operators, same [vec]
// marks, same constants. This is what keeps EXPLAIN ANALYZE of ad-hoc
// text unchanged when its plan comes from a shared template.
func TestLiftedTemplateRendersLikeLiteral(t *testing.T) {
	for _, q := range []string{
		"SELECT count(*) FROM trades WHERE sec_code = 600036",
		"SELECT acct_id FROM trades WHERE order_price > 100 AND trade_date = '2010-10-30'",
		"SELECT count(*) FROM trades WHERE trade_time BETWEEN 93000 AND 113000",
		"SELECT count(*) FROM trades WHERE order_price >= 12.5",
		`SELECT t.acct_id a, sum(t.trade_volume)
		 FROM trades t JOIN securities s ON t.acct_id = s.acct_id
		 WHERE t.order_price > 100 AND s.sec_code = 7
		 GROUP BY t.acct_id ORDER BY a LIMIT 10`,
		"SELECT o_orderkey FROM orders WHERE o_comment = 'urgent'",
	} {
		l, err := sql.Parameterize(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Args) == 0 {
			t.Fatalf("%s: nothing lifted", q)
		}
		tmpl := compile(t, l.Template)
		if tmpl.NumParams != len(l.Args) {
			t.Fatalf("%s: template has %d slots for %d args", q, tmpl.NumParams, len(l.Args))
		}
		if !tmpl.ArgsExact(l.Args) {
			t.Fatalf("%s: lifted args %v not exact for their slots", q, l.Args)
		}
		got := tmpl.Render(Annotations{Args: l.Args})
		if want := compile(t, q).String(); got != want {
			t.Errorf("%s:\ntemplate with args:\n%s\nliteral:\n%s", q, got, want)
		}
	}
}

func TestArgsExact(t *testing.T) {
	p := compile(t, "SELECT count(*) FROM trades WHERE order_price > $1 AND trade_date = $2 AND trade_time < $3")
	cases := []struct {
		args []types.Value
		want bool
	}{
		{[]types.Value{types.FloatVal(1.5), types.DateVal(3), types.IntVal(4)}, true},
		// Integers widen into float and date slots exactly as
		// Value.Compare would compare the literal.
		{[]types.Value{types.IntVal(1), types.IntVal(3), types.IntVal(4)}, true},
		// A float in an int slot, or a string in a date slot, would
		// coerce — and compare differently from the literal text.
		{[]types.Value{types.FloatVal(1), types.DateVal(3), types.FloatVal(4)}, false},
		{[]types.Value{types.FloatVal(1), types.StrVal("2010-1-5"), types.IntVal(4)}, false},
		{[]types.Value{types.FloatVal(1), types.DateVal(3)}, false},
	}
	for i, c := range cases {
		if got := p.ArgsExact(c.args); got != c.want {
			t.Errorf("case %d %v: ArgsExact = %v, want %v", i, c.args, got, c.want)
		}
	}
}
