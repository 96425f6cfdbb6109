package sql

import (
	"testing"

	"repro/internal/types"
)

func TestParameterize(t *testing.T) {
	cases := []struct {
		in, template string
		args         []types.Value
	}{
		{"SELECT * FROM t WHERE a = 5",
			"select * from t where a = $1", []types.Value{types.IntVal(5)}},
		{"select a from t where b >= 1.5 and c <> 'x' and d != 7",
			"select a from t where b >= $1 and c <> $2 and d <> $3",
			[]types.Value{types.FloatVal(1.5), types.StrVal("x"), types.IntVal(7)}},
		{"SELECT count(*) FROM t WHERE d = '2010-10-30'",
			"select count ( * ) from t where d = $1", []types.Value{types.DateVal(types.MustParseDate("2010-10-30"))}},
		{"SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b = 2",
			"select a from t where a between $1 and $2 and b = $3",
			[]types.Value{types.IntVal(1), types.IntVal(10), types.IntVal(2)}},
		// ON conditions and derived tables' WHERE clauses lift too.
		{"SELECT x.a FROM x JOIN y ON x.k = y.k AND y.z = 7",
			"select x . a from x join y on x . k = y . k and y . z = $1", []types.Value{types.IntVal(7)}},
		{"SELECT m FROM (SELECT min(v) m, k FROM t WHERE v > 3 GROUP BY k) s WHERE m > 0",
			"select m from ( select min ( v ) m , k from t where v > $1 group by k ) s where m > $2",
			[]types.Value{types.IntVal(3), types.IntVal(0)}},
		{"SELECT a FROM t WHERE extract(year from d) = 1995",
			"select a from t where extract ( year from d ) = $1", []types.Value{types.IntVal(1995)}},
		// Literals that shape the plan or are matched as text stay.
		{"SELECT a, 5 FROM t WHERE a > 5 + b ORDER BY a LIMIT 3",
			"select a , 5 from t where a > 5 + b order by a limit 3", nil},
		{"SELECT a FROM t WHERE a IN (1, 2) AND s LIKE 'x%' AND d < DATE '1998-12-01' - INTERVAL '90' DAY",
			"select a from t where a in ( 1 , 2 ) and s like 'x%' and d < date '1998-12-01' - interval '90' day", nil},
		{"SELECT k, CASE WHEN a > 1 THEN 2 END FROM t GROUP BY k HAVING count(*) > 5",
			"select k , case when a > 1 then 2 end from t group by k having count ( * ) > 5", nil},
		{"SELECT a FROM t WHERE a > -5", "select a from t where a > - 5", nil},
		{"SELECT a FROM t WHERE a = 99999999999999999999", "select a from t where a = 99999999999999999999", nil},
		// An explicit parameter turns lifting off for the statement.
		{"SELECT a FROM t WHERE a = $1 AND b = 5", "select a from t where a = $1 and b = 5", nil},
	}
	for _, c := range cases {
		l, err := Parameterize(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if l.Template != c.template {
			t.Errorf("%s:\ntemplate %q\nwant     %q", c.in, l.Template, c.template)
		}
		if len(l.Args) != len(c.args) {
			t.Errorf("%s: args %v, want %v", c.in, l.Args, c.args)
			continue
		}
		for i := range c.args {
			if l.Args[i] != c.args[i] {
				t.Errorf("%s: arg %d = %v, want %v", c.in, i+1, l.Args[i], c.args[i])
			}
		}
	}
}

func TestParameterizeKeys(t *testing.T) {
	key := func(q string) string {
		t.Helper()
		l, err := Parameterize(q)
		if err != nil {
			t.Fatal(err)
		}
		return l.Key
	}
	// Statements differing only in a lifted number share a key — and
	// the key of the same statement written with $n.
	if a, b, p := key("SELECT a FROM t WHERE k = 1"), key("select a from t where k = 2"),
		key("SELECT a FROM t WHERE k = $1"); a != b || a != p {
		t.Fatalf("keys differ: %q %q %q", a, b, p)
	}
	// The lexical class is part of the key.
	if a, b := key("SELECT a FROM t WHERE k = 1"), key("SELECT a FROM t WHERE k = '1'"); a == b {
		t.Fatalf("number and string literal share key %q", a)
	}
	if a, b := key("SELECT a FROM t WHERE k = 'x'"), key("SELECT a FROM t WHERE k = 'y'"); a != b {
		t.Fatalf("string literals of one shape: %q vs %q", a, b)
	}
	// Non-lifted literals keep statements apart.
	if a, b := key("SELECT a FROM t WHERE k = 1 LIMIT 5"), key("SELECT a FROM t WHERE k = 1 LIMIT 6"); a == b {
		t.Fatalf("LIMIT variants share key %q", a)
	}
}
