package sql

import (
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// fuzzSeeds are drawn from the unit-test corpora: the paper's SSE
// queries, TPC-H shapes, and syntax edge cases, plus inputs aimed at
// the lexer's quoting, comment and number paths.
var fuzzSeeds = []string{
	"SELECT a, b FROM t WHERE a > 5",
	"SELECT * FROM orders",
	`SELECT * FROM orders WHERE o_comment NOT LIKE '%special%requests%'`,
	`SELECT l_returnflag, l_linestatus, sum(l_quantity), avg(l_discount)
	 FROM lineitem GROUP BY l_returnflag, l_linestatus`,
	`SELECT count(*) FROM Trades T, Securities S
	 WHERE S.sec_code = 600036 AND T.trade_date = '2010-10-30'
	 AND S.acct_id = T.acct_id`,
	`SELECT acct_id, sum(trade_volume) AS v FROM trades
	 GROUP BY acct_id HAVING count(*) > 5 ORDER BY v DESC LIMIT 10`,
	`SELECT m, x FROM (SELECT min(v) m, k x FROM t GROUP BY k) sub WHERE m > 0`,
	`SELECT * FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey`,
	"SELECT a -- trailing comment\nFROM t",
	"SELECT * FROM t WHERE d = '2010-10-30' AND s = 'hello'",
	`SELECT sum(a) s FROM t WHERE a NOT LIKE '%x%' AND b IN (1, 2)`,
	"SELECT 1.5e10, -0.25, .5 FROM t",
	"SELECT 'unterminated",
	"SELECT \x00\xff FROM t",
	"((((((((((",
	"SELECT * FROM t WHERE a = 'it''s'",
	`SELECT * FROM t WHERE a = 'back\\slash'`,
	`SELECT * FROM t WHERE a = 'quote\'inside'`,
	`SELECT * FROM t WHERE a = 'unknown\descape'`,
	`SELECT * FROM t WHERE a = '\'`,
	`SELECT * FROM t WHERE a = '\`,
	"SELECT * FROM t WHERE a = $1 AND b < $2",
	"PREPARE q AS SELECT a FROM t WHERE a = $1",
	"EXECUTE q (42, 'x')",
	"DEALLOCATE q",
	"$",
	"SELECT $ FROM t",
}

// FuzzParse asserts the full parser is panic-free on arbitrary input and
// never returns a nil statement without an error.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned nil statement and nil error", input)
		}
		st, err := ParseStatement(input)
		if err == nil && st == nil {
			t.Fatalf("ParseStatement(%q) returned nil statement and nil error", input)
		}
		if _, err := Normalize(input); err == nil {
			// Normalization must be idempotent: the canonical form lexes
			// back to itself.
			n1, _ := Normalize(input)
			n2, err := Normalize(n1)
			if err != nil || n1 != n2 {
				t.Fatalf("Normalize not idempotent on %q: %q -> %q (%v)", input, n1, n2, err)
			}
		}
	})
}

// FuzzLex asserts the lexer is panic-free, terminates, and produces
// tokens whose text actually appears in the input (no out-of-bounds
// slicing on multi-byte or truncated runes).
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := lex(input)
		if err != nil {
			return
		}
		for _, tok := range toks {
			if tok.pos < 0 || tok.pos > len(input) {
				t.Fatalf("lex(%q) produced token %q with out-of-range pos %d", input, tok.text, tok.pos)
			}
			// Every token's pos points at its first source byte; strings
			// and params must start on their quote / dollar sign.
			if tok.kind == tokString && input[tok.pos] != '\'' && input[tok.pos] != '"' {
				t.Fatalf("lex(%q): string token %q pos %d not at a quote", input, tok.text, tok.pos)
			}
			if tok.kind == tokParam && input[tok.pos] != '$' {
				t.Fatalf("lex(%q): param token %q pos %d not at '$'", input, tok.text, tok.pos)
			}
			if tok.text == "" {
				continue
			}
			// String literals are unquoted/unescaped and != is canonicalized
			// to <>, so only check tokens that pass through verbatim.
			if tok.kind == tokString || tok.text == "<>" || !utf8.ValidString(input) {
				continue
			}
			if !strings.Contains(input, tok.text) && !strings.Contains(strings.ToLower(input), strings.ToLower(tok.text)) {
				t.Fatalf("lex(%q) produced token %q not present in input", input, tok.text)
			}
		}
	})
}

// FuzzParameterize checks the plan cache's literal lifting against
// Normalize: substituting the lifted literals back into the template
// reproduces Normalize's output, each lifted value is the one its
// literal token denotes, and whenever the literal text parses, the
// template parses too.
func FuzzParameterize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add("SELECT a FROM t WHERE a BETWEEN 1 AND 'x' AND b <> 2.5 AND c >= 'it''s'")
	f.Add("SELECT a FROM (SELECT b a FROM t WHERE b > 3) s WHERE a = 4 ORDER BY a LIMIT 2")
	f.Fuzz(func(t *testing.T, input string) {
		l, err := Parameterize(input)
		norm, nerr := Normalize(input)
		if (err == nil) != (nerr == nil) {
			t.Fatalf("Parameterize err %v, Normalize err %v", err, nerr)
		}
		if err != nil {
			return
		}
		if len(l.Args) == 0 {
			if l.Template != norm || l.Key != norm {
				t.Fatalf("nothing lifted, yet template %q / key %q != normalized %q", l.Template, l.Key, norm)
			}
		} else {
			// The template re-lexes token for token against the input;
			// put each lifted literal's token back in its slot.
			in, _ := lex(input)
			tmpl, err := lex(l.Template)
			if err != nil || len(tmpl) != len(in) {
				t.Fatalf("template %q does not re-lex against the input (%v)", l.Template, err)
			}
			toks := make([]token, len(tmpl))
			slots := 0
			for i, tk := range tmpl {
				toks[i] = tk
				if tk.kind != tokParam {
					continue
				}
				n, err := strconv.Atoi(tk.text)
				if err != nil || n < 1 || n > len(l.Args) {
					t.Fatalf("template %q has slot $%s for %d args", l.Template, tk.text, len(l.Args))
				}
				if v, _ := literalValue(in[i]); v != l.Args[n-1] {
					t.Fatalf("$%d holds %v, its literal %q denotes %v", n, l.Args[n-1], in[i].text, v)
				}
				toks[i] = in[i]
				slots++
			}
			if slots != len(l.Args) {
				t.Fatalf("template %q has %d slots for %d args", l.Template, slots, len(l.Args))
			}
			if got := render(toks, nil).Template; got != norm {
				t.Fatalf("substituted template %q != normalized %q", got, norm)
			}
		}
		if _, err := Parse(input); err == nil {
			if _, err := Parse(l.Template); err != nil {
				t.Fatalf("%q parses but its template %q does not: %v", input, l.Template, err)
			}
		}
	})
}
