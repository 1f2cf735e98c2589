package normalize

// Literal parameterization for the plan cache. Parameterize strips the
// constants out of a query at the lexer level — the same "forced
// parameterization" a production control node applies before probing its
// plan cache — yielding a canonical literal-free form (the cache key's
// shape component) plus the literal slot vector with raw byte spans, so a
// cached plan template can be re-bound to new constants by splicing
// replacement text back into the original query.
//
// Slots are deduplicated by value: every occurrence of the same (kind,
// value) literal shares one slot. This keeps the downstream pipeline's
// value-based deduplication (normalization merging duplicate predicates,
// the memo merging fingerprint-equal expressions, GROUP BY matching
// select items textually) consistent with re-binding — two constants the
// optimizer may treat as interchangeable are guaranteed to receive the
// same replacement value. The slot pattern is part of the canonical form,
// so `a = 1 AND b = 1` (slots 0,0) and `a = 1 AND b = 2` (slots 0,1)
// fingerprint differently and can never alias to each other's plan.
//
// The plan cache compiles a parameterized query as a template: each slot
// spliced out for a parameter marker (dsql.Placeholder) that binds to the
// slot's value. Five classes of literal are deliberately NOT
// parameterized, because their value is structurally load-bearing rather
// than a runtime argument, or the grammar admits no marker there:
//
//   - the number after TOP/LIMIT: it compiles into the dsql.Plan's Top
//     field (an int64, not SQL text), which text-level re-binding cannot
//     reach;
//   - every literal inside a DATEADD(...) call: normalization
//     constant-folds DATEADD, so the literal never survives into the
//     generated DSQL and a placeholder there would vanish;
//   - every literal inside an ORDER BY clause: `ORDER BY 2` selects an
//     output column by ordinal, a property of the plan, not a value;
//   - the string after LIKE: the pattern compiles into the Like scalar
//     (a Go string, not a constant), and the grammar wants a literal;
//   - the string after DATE: `DATE '1995-01-01'` is one literal the
//     grammar spells with a keyword.
//
// Retained literals stay part of the canonical form, so queries differing
// in them get distinct fingerprints and can never share a plan.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// LitKind classifies a parameterized literal.
type LitKind uint8

const (
	// LitInt is an integer numeric literal.
	LitInt LitKind = iota
	// LitFloat is a decimal numeric literal.
	LitFloat
	// LitString is a single-quoted string literal (which the binder may
	// later coerce to a date).
	LitString
)

// String names the kind for signatures and error messages.
func (k LitKind) String() string {
	switch k {
	case LitInt:
		return "int"
	case LitFloat:
		return "float"
	default:
		return "string"
	}
}

// Span is one raw byte range a literal occupied in the source text
// (quotes included for strings).
type Span struct {
	Pos int
	End int
}

// Literal is one stripped constant slot: a typed value plus every byte
// span where it occurred. Occurrences of the same (kind, value) pair
// share a slot.
type Literal struct {
	Kind  LitKind
	Val   types.Value
	Spans []Span // in source order
}

// ParamQuery is the parameterized form of one query.
type ParamQuery struct {
	// SQL is the original text.
	SQL string
	// Canon is the canonical literal-free rendering: one line per token,
	// keywords/identifiers upper-cased, each stripped literal reduced to a
	// typed, slot-numbered placeholder. Queries with equal Canon parse to
	// the same shape with the same slot pattern.
	Canon string
	// Lits are the literal slots; slot i corresponds to placeholder
	// `? <kind> i` of Canon.
	Lits []Literal
}

// Parameterize lexes sql and strips its literals. It fails only when the
// lexer rejects the text or a numeric literal does not parse — cases in
// which the parser would reject the query too, so callers can simply fall
// back to a cold compile and surface that error.
func Parameterize(sql string) (*ParamQuery, error) {
	toks, err := sqlparser.Lex(sql)
	if err != nil {
		return nil, err
	}
	pq := &ParamQuery{SQL: sql}
	slotOf := make(map[string]int) // kind+value -> slot index
	var canon strings.Builder
	// retainAt stacks the minimum paren depth at which each enclosing
	// retain region (DATEADD argument list, ORDER BY clause) is live; a
	// region ends when a ')' drops the depth below its entry. Non-empty
	// means "inside one, retain".
	var retainAt []int
	parenDepth := 0
	prevUpper := "" // Upper of the previous identifier/punct token
	for _, t := range toks {
		switch t.Kind {
		case sqlparser.TokenEOF:
			// nothing
		case sqlparser.TokenIdent:
			if t.Upper == "BY" && prevUpper == "ORDER" {
				retainAt = append(retainAt, parenDepth)
			}
			canon.WriteString("I ")
			canon.WriteString(t.Upper)
			canon.WriteByte('\n')
			prevUpper = t.Upper
		case sqlparser.TokenPunct:
			switch t.Text {
			case "(":
				parenDepth++
				if prevUpper == "DATEADD" {
					// Live inside the argument list, i.e. at this depth.
					retainAt = append(retainAt, parenDepth)
				}
			case ")":
				parenDepth--
				for n := len(retainAt); n > 0 && retainAt[n-1] > parenDepth; n = len(retainAt) {
					retainAt = retainAt[:n-1]
				}
			}
			canon.WriteString("P ")
			canon.WriteString(t.Text)
			canon.WriteByte('\n')
			prevUpper = t.Text
		case sqlparser.TokenNumber, sqlparser.TokenString:
			retain := len(retainAt) > 0
			switch prevUpper {
			case "TOP", "LIMIT":
				retain = retain || t.Kind == sqlparser.TokenNumber
			case "LIKE", "DATE":
				retain = retain || t.Kind == sqlparser.TokenString
			}
			if retain {
				if t.Kind == sqlparser.TokenNumber {
					canon.WriteString("N ")
				} else {
					canon.WriteString("S ")
				}
				canon.WriteString(t.Text)
				canon.WriteByte('\n')
			} else {
				kind, val, err := literalOf(t)
				if err != nil {
					return nil, err
				}
				key := kind.String() + "\x00" + val.String()
				slot, ok := slotOf[key]
				if !ok {
					slot = len(pq.Lits)
					slotOf[key] = slot
					pq.Lits = append(pq.Lits, Literal{Kind: kind, Val: val})
				}
				pq.Lits[slot].Spans = append(pq.Lits[slot].Spans, Span{Pos: t.Pos, End: t.End})
				fmt.Fprintf(&canon, "? %s %d\n", kind, slot)
			}
			prevUpper = ""
		}
	}
	pq.Canon = canon.String()
	return pq, nil
}

// literalOf converts a lexed literal token to its kind and the value the
// parser materializes for it (sqlparser.LiteralValue).
func literalOf(t sqlparser.Token) (LitKind, types.Value, error) {
	v, err := sqlparser.LiteralValue(t)
	if err != nil {
		return 0, types.Value{}, fmt.Errorf("normalize: %v", err)
	}
	switch v.Kind() {
	case types.KindString:
		return LitString, v, nil
	case types.KindFloat:
		return LitFloat, v, nil
	}
	return LitInt, v, nil
}

// Fingerprint hashes the canonical shape together with an environment
// signature (optimizer options, topology — anything plan-affecting beyond
// the text). Literal kinds and the slot pattern are part of Canon, so
// "a > 1" and "a > 1.0" fingerprint differently, as do "a = 1 AND b = 1"
// and "a = 1 AND b = 2".
func (pq *ParamQuery) Fingerprint(env string) string {
	h := sha256.New()
	h.Write([]byte(pq.Canon))
	h.Write([]byte{0})
	h.Write([]byte(env))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// LitSig hashes the literal slot values themselves; two same-shape
// queries share it only when every constant matches. It keys the
// exact-match fallback for queries whose plans are value-dependent
// (constant folding consumed a literal) and guards re-binding against
// aliasing.
func (pq *ParamQuery) LitSig() string {
	h := sha256.New()
	for _, l := range pq.Lits {
		fmt.Fprintf(h, "%s=%s\x00", l.Kind, l.Val.String())
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// BindTexts renders each slot's value as a SQL literal, the texts to
// substitute into a cached plan template compiled from a same-shape
// query.
func (pq *ParamQuery) BindTexts() []string {
	out := make([]string, len(pq.Lits))
	for i, l := range pq.Lits {
		out[i] = l.Val.SQLLiteral()
	}
	return out
}

// Splice rebuilds the query text with texts[i] substituted at every
// occurrence of literal slot i. texts must have exactly one entry per
// slot. A text never merges with a neighbour into another token (a -3
// after a minus would open a -- comment): a space sets it apart from any
// neighbour but white space, a parenthesis or a comma.
func (pq *ParamQuery) Splice(texts []string) (string, error) {
	if len(texts) != len(pq.Lits) {
		return "", fmt.Errorf("normalize: splice got %d texts for %d literal slots", len(texts), len(pq.Lits))
	}
	type occ struct {
		span Span
		slot int
	}
	var occs []occ
	for slot, l := range pq.Lits {
		for _, s := range l.Spans {
			occs = append(occs, occ{span: s, slot: slot})
		}
	}
	sort.Slice(occs, func(i, j int) bool { return occs[i].span.Pos < occs[j].span.Pos })
	var b strings.Builder
	prev := 0
	for _, o := range occs {
		b.WriteString(pq.SQL[prev:o.span.Pos])
		if o.span.Pos > 0 && !apart(pq.SQL[o.span.Pos-1]) {
			b.WriteByte(' ')
		}
		b.WriteString(texts[o.slot])
		if o.span.End < len(pq.SQL) && !apart(pq.SQL[o.span.End]) {
			b.WriteByte(' ')
		}
		prev = o.span.End
	}
	b.WriteString(pq.SQL[prev:])
	return b.String(), nil
}

// apart reports whether c is a token boundary nothing spliced beside it
// can lex together with.
func apart(c byte) bool { return c <= ' ' || c == '(' || c == ')' || c == ',' }
