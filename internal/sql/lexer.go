package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam // positional parameter: $1, $2, ...
	tokOp    // punctuation and operators
	tokError
)

type token struct {
	kind tokKind
	text string // identifiers lower-cased; strings unquoted
	pos  int
}

// lowerASCII folds A-Z to a-z and leaves every other byte alone, so
// normalized text re-lexes token for token (full Unicode folding can
// produce bytes the lexer rejects, or U+FFFD for invalid UTF-8).
func lowerASCII(s string) string {
	if strings.IndexAny(s, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") < 0 {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// lex tokenizes SQL input.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			toks = append(toks, token{tokIdent, lowerASCII(input[start:i]), start})
		case unicode.IsDigit(rune(c)):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (!seenDot && input[i] == '.')) {
				if input[i] == '.' {
					// Distinguish "1.5" from "t.col is impossible here
					// since we started on a digit; accept the dot.
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'' || c == '"':
			quote := c
			start := i
			i++
			var sb strings.Builder
			for i < n && input[i] != quote {
				if input[i] == '\\' {
					if i+1 >= n {
						return nil, fmt.Errorf("sql: unterminated string at %d", start)
					}
					// Escapes: \\ \' \" map to the bare character; any
					// other sequence passes through verbatim (backslash
					// kept), so '\d' survives for downstream consumers
					// instead of silently collapsing to 'd'.
					switch input[i+1] {
					case '\\', '\'', '"':
						sb.WriteByte(input[i+1])
					default:
						sb.WriteByte('\\')
						sb.WriteByte(input[i+1])
					}
					i += 2
					continue
				}
				sb.WriteByte(input[i])
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("sql: unterminated string at %d", start)
			}
			i++ // closing quote
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '$':
			start := i
			i++
			ds := i
			for i < n && unicode.IsDigit(rune(input[i])) {
				i++
			}
			if i == ds {
				return nil, fmt.Errorf("sql: expected parameter number after '$' at %d", start)
			}
			toks = append(toks, token{tokParam, input[ds:i], start})
		case strings.ContainsRune("()+-*/,.;", rune(c)):
			toks = append(toks, token{tokOp, string(c), i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '<':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "<=", i})
				i += 2
			} else if i+1 < n && input[i+1] == '>' {
				toks = append(toks, token{tokOp, "<>", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokOp, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, ">", i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokOp, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at %d", i)
			}
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}
