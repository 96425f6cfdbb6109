package sql

import (
	"strconv"
	"strings"

	"repro/internal/types"
)

// Normalize renders the statement's canonical token form — the plan
// cache's key. Whitespace, comments and letter case collapse (the
// lexer lower-cases identifiers), and string literals are re-quoted
// with escapes so distinct literals can never collide:
//
//	"SELECT  a FROM t -- x"  ->  "select a from t"
//
// Inputs that do not lex return an error; callers fall back to the
// verbatim text (such statements fail to parse anyway).
func Normalize(input string) (string, error) {
	toks, err := lex(input)
	if err != nil {
		return "", err
	}
	return render(toks, nil).Template, nil
}

// writeToken renders one token in Normalize's canonical form.
func writeToken(sb *strings.Builder, t token) {
	switch t.kind {
	case tokString:
		sb.WriteByte('\'')
		for j := 0; j < len(t.text); j++ {
			switch t.text[j] {
			case '\\', '\'':
				sb.WriteByte('\\')
			}
			sb.WriteByte(t.text[j])
		}
		sb.WriteByte('\'')
	case tokParam:
		sb.WriteByte('$')
		sb.WriteString(t.text)
	default:
		sb.WriteString(t.text)
	}
}

// Lifted is a statement whose value literals Parameterize has turned
// into parameters: the plan-cache template plus the literals it took
// out, which execute as the template's arguments.
type Lifted struct {
	// Template is the normalized statement with $n in place of the
	// n-th lifted literal. It compiles like any parameterized text.
	Template string
	// Key is the plan-cache key: Template, followed by the lifted
	// literals' lexical classes when any of them is a string, so that
	// "a = 1" and "a = '1'" never share an entry. Number-only keys stay
	// bare, which is what lets ad-hoc text share the entry of a
	// prepared statement written with $n.
	Key string
	// Args holds each lifted literal's value exactly as the parser
	// would build it: int or float by the presence of a '.', and a
	// 10-character string in date form as a date.
	Args []types.Value
}

// Parameterize normalizes the statement like Normalize, from the same
// single lexer walk, and lifts each value literal that only supplies a
// comparison operand into a $n parameter. A literal is lifted when all
// of these hold:
//
//   - it is a number or a string in a WHERE or ON clause;
//   - it directly follows a comparison operator (= <> != < <= > >=),
//     BETWEEN, or that BETWEEN's AND;
//   - the next token is not an arithmetic operator;
//   - the statement contains no explicit $n.
//
// Everything else stays literal: LIMIT, IN lists, LIKE patterns,
// DATE/INTERVAL literals, the select list, GROUP BY, HAVING and
// ORDER BY. Those literals shape the plan or are matched against each
// other as text, so two statements that differ in them are different
// plans. A number the parser would reject stays literal too, so the
// template never parses where the literal text would not.
func Parameterize(input string) (Lifted, error) {
	toks, err := lex(input)
	if err != nil {
		return Lifted{}, err
	}
	return render(toks, liftable(toks)), nil
}

// render writes the normalized token stream, replacing each token
// marked in lift (which may be nil) by the next $n, and derives the
// cache key.
func render(toks []token, lift []bool) Lifted {
	var out Lifted
	var sb strings.Builder
	sb.Grow(toks[len(toks)-1].pos) // the EOF token sits at len(input)
	var buf [16]byte
	classes, strs := buf[:0], false
	for i, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		if lift == nil || !lift[i] {
			writeToken(&sb, t)
			continue
		}
		v, _ := literalValue(t)
		out.Args = append(out.Args, v)
		sb.WriteByte('$')
		sb.WriteString(strconv.Itoa(len(out.Args)))
		class := byte('n')
		if t.kind == tokString {
			class, strs = 's', true
		}
		classes = append(classes, class)
	}
	out.Template, out.Key = sb.String(), sb.String()
	if strs {
		// "/*" never occurs between two tokens of a normalized
		// statement (operators are space-separated), and a string token
		// would have to close with a quote the suffix lacks, so the
		// suffix cannot collide with any other statement's key.
		out.Key += " /*" + string(classes) + "*/"
	}
	return out
}

// liftable marks the tokens Parameterize lifts (nil when none). Clause
// context is tracked per parenthesis level: WHERE and ON open a
// liftable clause, every other clause keyword closes it, and a
// parenthesised group inherits its enclosing clause until a keyword
// inside it says otherwise (a subquery's SELECT, EXTRACT's FROM).
func liftable(toks []token) []bool {
	for _, t := range toks {
		if t.kind == tokParam {
			return nil
		}
	}
	type level struct {
		clause  bool // inside WHERE or ON
		between bool // a BETWEEN still awaits its AND
	}
	var stack []level
	var cur level
	var lift []bool
	// slot records that the previous token opened a comparison operand:
	// a comparison operator, BETWEEN, or the AND closing a BETWEEN.
	slot := false
	for i, t := range toks {
		opens := false
		switch t.kind {
		case tokOp:
			switch t.text {
			case "(":
				stack = append(stack, cur)
				cur.between = false
			case ")":
				if n := len(stack); n > 0 {
					cur, stack = stack[n-1], stack[:n-1]
				}
			case "=", "<>", "<", "<=", ">", ">=":
				opens = true
			}
		case tokIdent:
			switch t.text {
			case "where", "on":
				cur.clause = true
			case "select", "from", "group", "having", "order", "limit":
				cur.clause = false
			case "between":
				cur.between, opens = true, true
			case "and":
				opens, cur.between = cur.between, false
			}
		case tokNumber, tokString:
			if _, ok := literalValue(t); ok && slot && cur.clause && !arithmetic(toks[i+1]) {
				if lift == nil {
					lift = make([]bool, len(toks))
				}
				lift[i] = true
			}
		}
		slot = opens
	}
	return lift
}

// arithmetic reports whether t is an arithmetic operator token.
func arithmetic(t token) bool {
	return t.kind == tokOp && len(t.text) == 1 && strings.ContainsRune("+-*/", rune(t.text[0]))
}

// literalValue converts a number or string token to the value the
// parser gives the same literal; ok is false for a number the parser
// would reject.
func literalValue(t token) (types.Value, bool) {
	if t.kind == tokString {
		if days, err := types.ParseDate(t.text); err == nil && len(t.text) == 10 {
			return types.DateVal(days), true
		}
		return types.StrVal(t.text), true
	}
	if strings.ContainsRune(t.text, '.') {
		f, err := strconv.ParseFloat(t.text, 64)
		return types.FloatVal(f), err == nil
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	return types.IntVal(n), err == nil
}
