package sqlparser

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single- or double-character operator/punctuation
	tokParam // plan-cache parameter marker: NUL '?' digits NUL
)

// token is one lexical unit. For tokIdent, Text preserves the original
// spelling and Upper holds the upper-cased form for keyword matching.
// Pos/End delimit the token's raw byte span in the source (quotes
// included), so callers can splice replacement text back into the query.
type token struct {
	Kind  tokenKind
	Text  string
	Upper string
	Pos   int // byte offset, for error messages
	End   int // byte offset one past the token's raw spelling
}

// lexer turns SQL text into tokens. Identifiers may be [bracket-quoted] or
// "double-quoted"; strings use single quotes with ” escaping; comments
// (-- line and /* block */) are skipped.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errf(pos int, format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &ParseError{Offset: pos, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errf(l.pos, "unterminated block comment")
			}
			l.pos += end + 4
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || c == '#' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpace(); err != nil {
		return token{}, err
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{Kind: tokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		return token{Kind: tokIdent, Text: text, Upper: strings.ToUpper(text), Pos: start}, nil

	case c == '[':
		end := strings.IndexByte(l.src[l.pos:], ']')
		if end < 0 {
			return token{}, l.errf(start, "unterminated [identifier]")
		}
		text := l.src[l.pos+1 : l.pos+end]
		l.pos += end + 1
		return token{Kind: tokIdent, Text: text, Upper: strings.ToUpper(text), Pos: start}, nil

	case c == '"':
		end := strings.IndexByte(l.src[l.pos+1:], '"')
		if end < 0 {
			return token{}, l.errf(start, `unterminated "identifier"`)
		}
		text := l.src[l.pos+1 : l.pos+1+end]
		l.pos += end + 2
		return token{Kind: tokIdent, Text: text, Upper: strings.ToUpper(text), Pos: start}, nil

	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot {
				// Do not consume a dot followed by an identifier (x.1 is
				// not legal anyway; 1.e requires a digit after the dot).
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		// Exponent suffix (1e+06, 2.5E-3): floats folded at compile time
		// render in shortest form, which may use scientific notation.
		// Only consumed when a digit follows, so "1e" stays number+ident.
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			j := l.pos + 1
			if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
				j++
			}
			if j < len(l.src) && isDigit(l.src[j]) {
				for j < len(l.src) && isDigit(l.src[j]) {
					j++
				}
				l.pos = j
			}
		}
		return token{Kind: tokNumber, Text: l.src[start:l.pos], Pos: start}, nil

	case c == 0x00:
		// Plan-cache parameter marker (Marker): NUL '?' digits NUL. Text
		// carries the decimal slot index without the framing.
		i := l.pos + 1
		if i >= len(l.src) || l.src[i] != '?' {
			return token{}, l.errf(start, "stray NUL byte")
		}
		i++
		ds := i
		for i < len(l.src) && isDigit(l.src[i]) {
			i++
		}
		if i == ds || i >= len(l.src) || l.src[i] != 0x00 {
			return token{}, l.errf(start, "malformed parameter marker")
		}
		l.pos = i + 1
		return token{Kind: tokParam, Text: l.src[ds:i], Pos: start}, nil

	case c == '\'':
		var b strings.Builder
		i := l.pos + 1
		for {
			if i >= len(l.src) {
				return token{}, l.errf(start, "unterminated string literal")
			}
			if l.src[i] == '\'' {
				if i+1 < len(l.src) && l.src[i+1] == '\'' {
					b.WriteByte('\'')
					i += 2
					continue
				}
				i++
				break
			}
			b.WriteByte(l.src[i])
			i++
		}
		l.pos = i
		return token{Kind: tokString, Text: b.String(), Pos: start}, nil

	default:
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "<=", ">=", "!=":
			l.pos += 2
			if two == "!=" {
				two = "<>"
			}
			return token{Kind: tokPunct, Text: two, Pos: start}, nil
		}
		switch c {
		case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/':
			l.pos++
			return token{Kind: tokPunct, Text: string(c), Pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected character %q", string(c))
	}
}

// lexAll tokenizes the whole input; the parser works on the slice.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		// next always leaves l.pos exactly one past the token it returned
		// (EOF's span is empty), so the end offset is set centrally here.
		t.End = l.pos
		if t.Kind == tokEOF {
			t.End = t.Pos
		}
		out = append(out, t)
		if t.Kind == tokEOF {
			return out, nil
		}
	}
}
