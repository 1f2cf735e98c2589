package normalize

import (
	"strings"
	"testing"

	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

func mustParam(t *testing.T, sql string) *ParamQuery {
	t.Helper()
	pq, err := Parameterize(sql)
	if err != nil {
		t.Fatalf("Parameterize(%q): %v", sql, err)
	}
	return pq
}

func TestParameterizeStripsLiterals(t *testing.T) {
	pq := mustParam(t, "SELECT a FROM t WHERE b > 5 AND c = 'x' AND d < 1.5")
	if len(pq.Lits) != 3 {
		t.Fatalf("got %d slots, want 3: %+v", len(pq.Lits), pq.Lits)
	}
	wantKinds := []LitKind{LitInt, LitString, LitFloat}
	for i, k := range wantKinds {
		if pq.Lits[i].Kind != k {
			t.Errorf("slot %d kind = %s, want %s", i, pq.Lits[i].Kind, k)
		}
	}
	for _, want := range []string{"? int 0", "? string 1", "? float 2"} {
		if !strings.Contains(pq.Canon, want) {
			t.Errorf("Canon missing %q:\n%s", want, pq.Canon)
		}
	}
	if strings.Contains(pq.Canon, "5") || strings.Contains(pq.Canon, "'x'") {
		t.Errorf("Canon leaked a literal:\n%s", pq.Canon)
	}
}

func TestParameterizeValueDedup(t *testing.T) {
	// Equal (kind, value) occurrences share one slot — the property that
	// keeps re-binding consistent with the optimizer's value-based
	// expression dedup.
	pq := mustParam(t, "SELECT a FROM t WHERE b = 7 AND c = 7")
	if len(pq.Lits) != 1 {
		t.Fatalf("got %d slots, want 1", len(pq.Lits))
	}
	if len(pq.Lits[0].Spans) != 2 {
		t.Fatalf("slot 0 has %d spans, want 2", len(pq.Lits[0].Spans))
	}
	// Different values get distinct slots, making the slot pattern — and
	// hence the fingerprint — different from the deduped form.
	pq2 := mustParam(t, "SELECT a FROM t WHERE b = 7 AND c = 8")
	if len(pq2.Lits) != 2 {
		t.Fatalf("got %d slots, want 2", len(pq2.Lits))
	}
	if pq.Fingerprint("") == pq2.Fingerprint("") {
		t.Error("slot patterns (0,0) and (0,1) must fingerprint differently")
	}
	// Same kind matters: int 7 and float 7.0 never share a slot.
	pq3 := mustParam(t, "SELECT a FROM t WHERE b = 7 AND c = 7.0")
	if len(pq3.Lits) != 2 {
		t.Fatalf("int/float with equal value collapsed: %+v", pq3.Lits)
	}
}

func TestParameterizeRetainsStructuralLiterals(t *testing.T) {
	cases := []struct {
		sql   string
		slots int
		keep  string // literal that must stay in Canon
	}{
		{"SELECT TOP 10 a FROM t WHERE b > 5", 1, "10"},
		{"SELECT a FROM t WHERE d >= DATEADD(month, 3, '1994-01-01') AND b > 5", 1, "3"},
		{"SELECT a, b FROM t WHERE b > 5 ORDER BY 2", 1, "2"},
		{"SELECT a, b FROM t WHERE b > 5 ORDER BY a + 1", 1, "1"},
		{"SELECT a FROM t WHERE c LIKE 'PROMO%' AND b > 5", 1, "PROMO%"},
		{"SELECT a FROM t WHERE c NOT LIKE '%x%' AND b > 5", 1, "%x%"},
		{"SELECT a FROM t WHERE d >= DATE '1995-01-01' AND b > 5", 1, "1995-01-01"},
		{"SELECT CAST(a AS DECIMAL(12,2)) AS p FROM t WHERE b > 5", 1, "N 12\nP ,\nN 2"},
		{"SELECT a FROM t WHERE d >= DATEADD(day, -7, '1994-01-01') AND b > 5", 1, "P -\nN 7"},
	}
	for _, c := range cases {
		pq := mustParam(t, c.sql)
		if len(pq.Lits) != c.slots {
			t.Errorf("%q: %d slots, want %d (%+v)", c.sql, len(pq.Lits), c.slots, pq.Lits)
			continue
		}
		if !strings.Contains(pq.Canon, c.keep) {
			t.Errorf("%q: Canon dropped structural literal %q:\n%s", c.sql, c.keep, pq.Canon)
		}
	}
}

func TestParameterizeDateaddRegionEnds(t *testing.T) {
	// Literals after the DATEADD call closes are parameterized again.
	pq := mustParam(t, "SELECT a FROM t WHERE d < DATEADD(year, 1, '1995-01-01') AND b = 9")
	if len(pq.Lits) != 1 {
		t.Fatalf("got %d slots, want 1: %+v", len(pq.Lits), pq.Lits)
	}
	if pq.Lits[0].Kind != LitInt || pq.Lits[0].Val.Int() != 9 {
		t.Errorf("wrong slot captured: %+v", pq.Lits[0])
	}
}

func TestSpliceRoundTrip(t *testing.T) {
	sql := "SELECT a FROM t WHERE b = 7 AND c = 'O''Brien' AND d = 7"
	pq := mustParam(t, sql)
	// Splicing each slot's own SQL literal reproduces an equivalent query.
	out, err := pq.Splice(pq.BindTexts())
	if err != nil {
		t.Fatal(err)
	}
	pq2 := mustParam(t, out)
	if pq2.Canon != pq.Canon {
		t.Errorf("round-trip changed shape:\n%s\nvs\n%s", pq.Canon, pq2.Canon)
	}
	if pq2.LitSig() != pq.LitSig() {
		t.Error("round-trip changed literal values")
	}
	// New constants land at every occurrence of their slot.
	texts := pq.BindTexts()
	texts[0] = "42"
	out, err = pq.Splice(texts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "42") != 2 {
		t.Errorf("deduped slot must splice into both spans: %q", out)
	}
	if _, err := pq.Splice([]string{"1"}); err == nil {
		t.Error("Splice must reject a wrong-arity text vector")
	}
}

// TestSpliceKeepsTokens: a spliced text never merges with its neighbours.
// Each result lexes to the template's tokens with every slot occurrence
// replaced by its own text's tokens — a signed argument after a minus, a
// plus or a slash included (10-5 with -3 must not become a -- comment).
func TestSpliceKeepsTokens(t *testing.T) {
	templates := []string{
		"SELECT a FROM t WHERE b > 10-5 AND c < 7",
		"SELECT a FROM t WHERE b > 10+5 AND c < 7",
		"SELECT a FROM t WHERE b > 10/5 AND c < 7",
		"SELECT a FROM t WHERE b > 1.5-2.5 AND c < 7.5",
		"SELECT a FROM t WHERE b > 1.5+2.5 AND c < 7.5",
		"SELECT a FROM t WHERE b > 1.5/2.5 AND c < 7.5",
		"SELECT a FROM t WHERE b>-5 AND c<7",
	}
	signed := map[LitKind][]string{
		LitInt:   {"-3", "+3", "3"},
		LitFloat: {"-1.5", "+2.5e-3", "-1e+06", ".5"},
	}
	lex := func(src string) []sqlparser.Token {
		toks, err := sqlparser.Lex(src)
		if err != nil {
			t.Fatalf("lex %q: %v", src, err)
		}
		return toks[:len(toks)-1] // drop EOF
	}
	for _, sql := range templates {
		pq := mustParam(t, sql)
		// A span may cover a sign and its number: two tokens, one slot.
		type slotSpan struct{ slot, end int }
		slotAt := map[int]slotSpan{}
		for slot, l := range pq.Lits {
			for _, sp := range l.Spans {
				slotAt[sp.Pos] = slotSpan{slot, sp.End}
			}
		}
		for v := 0; v < 4; v++ {
			texts := make([]string, len(pq.Lits))
			for slot, l := range pq.Lits {
				pool := signed[l.Kind]
				texts[slot] = pool[(v+slot)%len(pool)]
			}
			out, err := pq.Splice(texts)
			if err != nil {
				t.Fatal(err)
			}
			var want []sqlparser.Token
			inSpan := 0
			for _, tok := range lex(sql) {
				if ss, ok := slotAt[tok.Pos]; ok {
					want = append(want, lex(texts[ss.slot])...)
					inSpan = ss.end
				} else if tok.Pos >= inSpan {
					want = append(want, tok)
				}
			}
			got := lex(out)
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].Kind == want[i].Kind && got[i].Text == want[i].Text
			}
			if !same {
				t.Errorf("%q with %v spliced to %q: tokens %v, want %v", sql, texts, out, got, want)
			}
		}
	}
}

func TestFingerprintShapeAndEnv(t *testing.T) {
	a := mustParam(t, "SELECT a FROM t WHERE b > 5")
	b := mustParam(t, "select a from t where b > 99")
	if a.Fingerprint("env") != b.Fingerprint("env") {
		t.Error("same shape, different constants must share a fingerprint")
	}
	if a.Fingerprint("env") == a.Fingerprint("other") {
		t.Error("environment must be part of the fingerprint")
	}
	c := mustParam(t, "SELECT a FROM t WHERE b > 5.0")
	if a.Fingerprint("env") == c.Fingerprint("env") {
		t.Error("literal kind must be part of the fingerprint")
	}
	if a.LitSig() == b.LitSig() {
		t.Error("different constants must have different literal signatures")
	}
}

func TestParameterizeLexError(t *testing.T) {
	if _, err := Parameterize("SELECT 'unterminated"); err == nil {
		t.Error("Parameterize must surface lexer errors")
	}
}

// TestParameterizeSignedLiterals: a minus where an operand starts is the
// literal's sign — the slot holds the signed value and its span starts at
// the sign — and anywhere else it is an operator.
func TestParameterizeSignedLiterals(t *testing.T) {
	cases := []struct {
		sql  string
		vals []string // slot values
		span string   // the first slot's first span
	}{
		{"SELECT a FROM t WHERE b>-5", []string{"-5"}, "-5"},
		{"SELECT a FROM t WHERE b > 10-5", []string{"10", "5"}, "10"},
		{"SELECT a FROM t WHERE b = - -7", []string{"-7"}, "-7"},
		{"SELECT a FROM t WHERE b = 10 - -7", []string{"10", "-7"}, "10"},
		{"SELECT a FROM t WHERE b = - /* c */ 7", []string{"7"}, "7"},
		{"SELECT a FROM t WHERE b IN (-1,-2)", []string{"-1", "-2"}, "-1"},
		{"SELECT a FROM t WHERE b = -1.5 AND -2 < c", []string{"-1.5", "-2"}, "-1.5"},
		{"SELECT -1 AS x FROM t WHERE b -5 > 0", []string{"-1", "5", "0"}, "-1"},
		{"SELECT a FROM t WHERE [b] -5 > 0", []string{"5", "0"}, "5"},
		{"SELECT CASE WHEN b > 0 THEN -1 ELSE -2 END -3 AS x FROM t", []string{"0", "-1", "-2", "3"}, "0"},
	}
	for _, c := range cases {
		pq := mustParam(t, c.sql)
		var vals []string
		for _, l := range pq.Lits {
			vals = append(vals, l.Val.String())
		}
		if strings.Join(vals, " ") != strings.Join(c.vals, " ") {
			t.Errorf("%q: slot values %v, want %v", c.sql, vals, c.vals)
			continue
		}
		if sp := pq.Lits[0].Spans[0]; c.sql[sp.Pos:sp.End] != c.span {
			t.Errorf("%q: first span %q, want %q", c.sql, c.sql[sp.Pos:sp.End], c.span)
		}
	}
	pos, neg := mustParam(t, "SELECT a FROM t WHERE b = 7"), mustParam(t, "SELECT a FROM t WHERE b = -7")
	if pos.Canon != neg.Canon {
		t.Errorf("b = 7 and b = -7 differ in shape:\n%s\nvs\n%s", pos.Canon, neg.Canon)
	}
	if _, err := Parameterize("SELECT a FROM t WHERE b = -9223372036854775808"); err == nil {
		t.Error("int64's minimum must stay unrepresentable, as in the parser")
	}
}

// FuzzParameterize: for any text that parameterizes, splicing each slot's
// own literal text back gives the same shape and values, and each text
// reads back through the parser's literal rule as its slot's value.
func FuzzParameterize(f *testing.F) {
	for _, q := range tpch.Queries() {
		f.Add(q.SQL)
	}
	for _, sql := range []string{
		"SELECT a FROM t WHERE b>-5",
		"SELECT a FROM t WHERE b > 10-5",
		"SELECT a FROM t WHERE b = - -7",
		"SELECT a FROM t WHERE b IN (-1,-2)",
		"SELECT CAST(a AS DECIMAL(12,2)) AS p FROM t WHERE b = -0.0 AND c < 'x''y'",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		pq, err := Parameterize(sql)
		if err != nil {
			return
		}
		texts := pq.BindTexts()
		for i, l := range pq.Lits {
			if v, ok := sqlparser.ParseLiteral(texts[i]); !ok || v.Kind() != l.Val.Kind() || v.String() != l.Val.String() {
				t.Fatalf("slot %d: %q reads back as %v, %v; want %v", i, texts[i], v, ok, l.Val)
			}
		}
		out, err := pq.Splice(texts)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parameterize(out)
		if err != nil {
			t.Fatalf("%q spliced to %q: %v", sql, out, err)
		}
		if again.Canon != pq.Canon || again.LitSig() != pq.LitSig() {
			t.Fatalf("%q spliced to %q changed shape or values:\n%s\nvs\n%s", sql, out, pq.Canon, again.Canon)
		}
	})
}
