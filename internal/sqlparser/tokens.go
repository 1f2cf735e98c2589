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

// LiteralValue is the value the parser materializes for a literal token: a
// string token's unescaped text, a number spelled with '.', 'e' or 'E' as a
// FLOAT, any other number as a BIGINT. Everything that reads a literal
// outside the parser (the plan cache's parameterizer, DSQL re-binding)
// reads it through this rule.
func LiteralValue(t Token) (types.Value, error) {
	return literalValue(tokenKind(t.Kind), t.Text)
}

// ParseLiteral reads text that is exactly one literal token, as the parser
// would; ok is false for anything else (a signed number, NULL, an
// expression).
func ParseLiteral(text string) (v types.Value, ok bool) {
	l := newLexer(text)
	t, err := l.next()
	if err != nil || (t.Kind != tokNumber && t.Kind != tokString) {
		return types.Value{}, false
	}
	if end, err := l.next(); err != nil || end.Kind != tokEOF {
		return types.Value{}, false
	}
	v, err = literalValue(t.Kind, t.Text)
	return v, err == nil
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
