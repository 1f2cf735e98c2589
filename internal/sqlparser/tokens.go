package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"pdwqo/internal/types"
)

// Exported lexer surface. The plan cache's parameterizer needs the raw
// token stream — literal values plus their byte spans — without parsing,
// so it can strip constants out of a query and splice new ones back in.

// TokenKind classifies a lexed token for external consumers.
type TokenKind uint8

const (
	// TokenEOF terminates every Lex result.
	TokenEOF TokenKind = iota
	// TokenIdent is an identifier or keyword ([quoted] and "quoted"
	// identifiers lex identically to bare ones, as the parser treats them).
	TokenIdent
	// TokenNumber is an integer or decimal numeric literal.
	TokenNumber
	// TokenString is a single-quoted string literal; Text holds the
	// unescaped value, the Pos:End span includes the quotes.
	TokenString
	// TokenPunct is operator/punctuation text.
	TokenPunct
)

// Token is one lexical unit with its raw byte span in the source.
type Token struct {
	Kind  TokenKind
	Text  string // unescaped value for strings; raw spelling otherwise
	Upper string // upper-cased Text for identifiers, "" otherwise
	Pos   int    // byte offset of the first byte of the raw spelling
	End   int    // byte offset one past the raw spelling
}

// Lex tokenizes src with the exact lexer the parser uses — comments
// skipped, doubled-quote escapes resolved — ending with a TokenEOF entry.
func Lex(src string) ([]Token, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	out := make([]Token, len(toks))
	for i, t := range toks {
		out[i] = Token{Kind: TokenKind(t.Kind), Text: t.Text, Upper: t.Upper, Pos: t.Pos, End: t.End}
	}
	return out, nil
}

// Marker is the text of the parameter marker of slot (ParamExpr): NUL '?'
// digits NUL. The NUL delimiters cannot occur in generated SQL
// (identifiers are c<id>/T<n>, literals are escaped), so substitution can
// never corrupt surrounding text and a leftover marker is detectable.
func Marker(slot int) string { return fmt.Sprintf("\x00?%d\x00", slot) }

// ParseLiteral reads text that is exactly what the parser reads as one
// literal: a single number or string token spanning the whole text, a
// number optionally signed (the sign folded by negate, so int64's minimum
// stays unrepresentable). ok is false for anything else — NULL, an
// expression, or a literal with blanks or a comment around it.
func ParseLiteral(text string) (v types.Value, ok bool) {
	sign := ""
	if text != "" && (text[0] == '-' || text[0] == '+') {
		sign, text = text[:1], text[1:]
	}
	l := newLexer(text)
	t, err := l.next()
	if err != nil || t.Pos != 0 || l.pos != len(text) ||
		!(t.Kind == tokNumber || t.Kind == tokString && sign == "") {
		return types.Value{}, false
	}
	if v, err = literalValue(t.Kind, t.Text); err != nil {
		return types.Value{}, false
	}
	if sign == "-" {
		v = negate(v)
	}
	return v, true
}

// negate is the numeric literal v with a minus sign before it: the parser
// folds such a sign into the literal, and so does ParseLiteral.
func negate(v types.Value) types.Value {
	if v.Kind() == types.KindInt {
		return types.NewInt(-v.Int())
	}
	return types.NewFloat(-v.Float())
}

func literalValue(kind tokenKind, text string) (types.Value, error) {
	switch {
	case kind == tokString:
		return types.NewString(text), nil
	case kind != tokNumber:
		return types.Value{}, fmt.Errorf("%q is not a literal", text)
	case strings.ContainsAny(text, ".eE"):
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("invalid number %q", text)
		}
		return types.NewFloat(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return types.Value{}, fmt.Errorf("invalid number %q", text)
	}
	return types.NewInt(n), nil
}
