package transval

import (
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

func TestSQLTypeName(t *testing.T) {
	cases := map[types.Kind]string{
		types.KindBool:   "BIT",
		types.KindInt:    "BIGINT",
		types.KindFloat:  "FLOAT",
		types.KindString: "VARCHAR",
		types.KindDate:   "DATE",
		types.KindNull:   "BIGINT",
	}
	for k, want := range cases {
		if got := sqlTypeName(k); got != want {
			t.Errorf("sqlTypeName(%v) = %s, want %s", k, got, want)
		}
	}
}

func TestCanonBinary(t *testing.T) {
	// > and >= flip into < and <= with swapped operands; symmetric ops
	// sort their operand texts, so a = b and b = a canonicalize equal.
	if got := canonBinary(sqlparser.OpGt, "c1", "c2"); got != "(c2 < c1)" {
		t.Errorf("Gt canon = %s", got)
	}
	if got := canonBinary(sqlparser.OpGe, "c1", "c2"); got != "(c2 <= c1)" {
		t.Errorf("Ge canon = %s", got)
	}
	if canonBinary(sqlparser.OpEq, "b", "a") != canonBinary(sqlparser.OpEq, "a", "b") {
		t.Error("Eq not operand-order independent")
	}
}

func TestMergeOrigins(t *testing.T) {
	a := map[string]struct{}{"t.a": {}}
	b := map[string]struct{}{"t.b": {}, "t.a": {}}
	got := mergeOrigins(a, b, nil)
	if len(got) != 2 {
		t.Fatalf("merged = %v", got)
	}
}

// col builds column metadata for scalar-helper tests.
func col(id algebra.ColumnID, k types.Kind) *algebra.ColRef {
	return algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: k})
}

func lookupOf(cols ...absCol) colLookup {
	return func(id algebra.ColumnID) *absCol {
		for i := range cols {
			if cols[i].ID == id {
				return &cols[i]
			}
		}
		return nil
	}
}

func TestScalarHelpersPlanSide(t *testing.T) {
	look := lookupOf(
		absCol{ID: 1, Type: types.KindInt, Nullable: true, Origins: map[string]struct{}{"t.a": {}}},
		absCol{ID: 2, Type: types.KindFloat, Origins: map[string]struct{}{"t.b": {}}},
		absCol{ID: 3, Type: types.KindString, Origins: map[string]struct{}{"t.c": {}}},
	)
	c1, c2, c3 := col(1, types.KindInt), col(2, types.KindFloat), col(3, types.KindString)

	caseExpr := &algebra.Case{
		Whens: []algebra.CaseWhen{{Cond: &algebra.IsNull{E: c1}, Then: c2}},
		Else:  &algebra.Const{Val: types.NewFloat(0)},
	}
	if typeOfScalar(caseExpr, look) != types.KindFloat {
		t.Error("case type")
	}
	if nullableScalar(caseExpr, look) {
		t.Error("case with else over non-null arms should be non-nullable")
	}
	noElse := &algebra.Case{Whens: []algebra.CaseWhen{{Cond: &algebra.IsNull{E: c1}, Then: c2}}}
	if !nullableScalar(noElse, look) {
		t.Error("case without else must be nullable")
	}

	sub := &algebra.Func{Name: "SUBSTRING", Args: []algebra.Scalar{c3,
		&algebra.Const{Val: types.NewInt(1)}, &algebra.Const{Val: types.NewInt(2)}}, Out: types.KindString}
	if typeOfScalar(sub, look) != types.KindString {
		t.Error("substring type")
	}
	yr := &algebra.Func{Name: "YEAR", Args: []algebra.Scalar{c1}, Out: types.KindInt}
	if typeOfScalar(yr, look) != types.KindInt {
		t.Error("year type")
	}
	if !nullableScalar(yr, look) {
		t.Error("year over nullable arg must be nullable")
	}

	like := &algebra.Like{E: c3, Pattern: "%x%"}
	if typeOfScalar(like, look) != types.KindBool {
		t.Error("like type")
	}
	if got := canonScalar(like); !strings.Contains(got, "LIKE") {
		t.Errorf("like canon = %s", got)
	}

	neg := &algebra.Neg{E: &algebra.Const{Val: types.NewInt(7)}}
	if got := canonScalar(neg); got != "-7" {
		t.Errorf("folded neg canon = %s", got)
	}
	negf := &algebra.Neg{E: &algebra.Const{Val: types.NewFloat(1.5)}}
	if got := canonScalar(negf); got != "-1.5" {
		t.Errorf("folded float neg canon = %s", got)
	}

	cast := &algebra.Cast{E: c1, To: types.KindFloat}
	if got := canonScalar(cast); !strings.Contains(got, "AS FLOAT") {
		t.Errorf("cast canon = %s", got)
	}

	param := &algebra.Const{Val: types.NewInt(9), Param: 3}
	if got := canonScalar(param); got != "?2" {
		t.Errorf("param canon = %s", got)
	}
	if !scalarValueBearing(param) {
		t.Error("param const must be value-bearing")
	}
	if scalarValueBearing(&algebra.Const{Val: types.NewInt(9)}) {
		t.Error("plain const alone is not value-bearing")
	}

	inl := &algebra.InList{E: c1, List: []algebra.Scalar{
		&algebra.Const{Val: types.NewInt(1)}, &algebra.Const{Val: types.NewInt(2)}}}
	if ks := killSet(inl); !ks.Has(1) {
		t.Error("IN-list must kill its subject")
	}
	notNull := &algebra.IsNull{E: c1, Negated: true}
	if ks := killSet(notNull); !ks.Has(1) {
		t.Error("IS NOT NULL must kill its subject")
	}
	if ks := killSet(&algebra.IsNull{E: c1}); ks.Has(1) {
		t.Error("IS NULL must not kill")
	}
	if nd := nullDeps(caseExpr); nd.Len() != 0 {
		t.Error("case has no simple null deps")
	}
}

// sqlInterpFor builds an interpreter over the TPC-H shell with the fuzz
// temp registered, mirroring a mid-plan boundary.
func sqlInterpFor() *sqlInterp {
	return &sqlInterp{
		shell:     fuzzShell(),
		temps:     map[string]*absRel{"TEMP_ID_1": fuzzTemp()},
		slotKinds: map[int]types.Kind{0: types.KindInt},
		acc:       newFragAcc(),
	}
}

func mustSelect(t *testing.T, sql string) *sqlparser.SelectStmt {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

func TestSelectRelUnion(t *testing.T) {
	si := sqlInterpFor()
	rel, err := si.selectRel(mustSelect(t,
		"SELECT c1, c2 FROM [tempdb].[TEMP_ID_1] UNION ALL SELECT c1, c2 FROM [tempdb].[TEMP_ID_1]"),
		nil, false, false)
	if err != nil {
		t.Fatalf("clean union: %v", err)
	}
	if len(rel.cols) != 2 || rel.cols[0].ID != 1 {
		t.Fatalf("union cols = %+v", rel.cols)
	}
	if rel.dist.Kind != core.DistHash {
		t.Errorf("hash+hash union dist = %v", rel.dist)
	}

	if _, err := si.selectRel(mustSelect(t,
		"SELECT c1, c2 FROM [tempdb].[TEMP_ID_1] UNION ALL SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
		nil, false, false); err == nil {
		t.Error("arity mismatch union must fail")
	}
	if _, err := si.selectRel(mustSelect(t,
		"SELECT c1 FROM [tempdb].[TEMP_ID_1] UNION ALL SELECT c2 FROM [tempdb].[TEMP_ID_1]"),
		nil, false, false); err == nil {
		t.Error("positional ID mismatch union must fail")
	}
}

func TestBranchRelRejects(t *testing.T) {
	si := sqlInterpFor()
	for _, sql := range []string{
		"SELECT DISTINCT c1 FROM [tempdb].[TEMP_ID_1]",
		"SELECT c1 FROM [tempdb].[TEMP_ID_1] GROUP BY c1 HAVING COUNT(*) > 1",
		"SELECT * FROM [tempdb].[TEMP_ID_1]",
		"SELECT AVG(c1) AS c9 FROM [tempdb].[TEMP_ID_1]",
	} {
		if _, err := si.selectRel(mustSelect(t, sql), nil, false, false); err == nil {
			t.Errorf("%q: expected bind error", sql)
		}
	}
}

func TestBindJoinRejects(t *testing.T) {
	si := sqlInterpFor()
	// The generator never joins base tables directly; both sides must be
	// derived tables or temps.
	if _, err := si.selectRel(mustSelect(t,
		"SELECT T1.[c_custkey] AS c1 FROM [dbo].[customer] AS T1 INNER JOIN (SELECT c2 FROM [tempdb].[TEMP_ID_1]) AS T6 ON (T1.[c_custkey] = T6.c2)"),
		nil, false, false); err == nil {
		t.Error("base-table join side must fail")
	}
	if _, err := si.selectRel(mustSelect(t,
		"SELECT T5.c1 AS c1 FROM (SELECT c1 FROM [tempdb].[TEMP_ID_1]) AS T5 RIGHT JOIN (SELECT c2 FROM [tempdb].[TEMP_ID_1]) AS T6 ON (T5.c1 = T6.c2)"),
		nil, false, false); err == nil {
		t.Error("RIGHT JOIN must fail")
	}
}

// TestBindJoinKinds pins the SQL side's joins: outer joins null-extend,
// and the placement comes from the shared rules over the equi-pairs the
// ON clause resolves to — falling back to the left side where the rules
// reject the pair.
func TestBindJoinKinds(t *testing.T) {
	const (
		left  = "(SELECT c1 FROM [tempdb].[TEMP_ID_1]) AS T5"
		right = "(SELECT c1 AS c13 FROM [tempdb].[TEMP_ID_1]) AS T6"
	)
	for _, c := range []struct {
		join     string
		nullable [2]bool
		dist     string
	}{
		{"INNER JOIN " + right + " ON (T5.c1 = T6.c13)", [2]bool{false, false}, "hash(c1,c13)"},
		{"LEFT JOIN " + right + " ON (T5.c1 = T6.c13)", [2]bool{false, true}, "hash(c1)"},
		{"FULL JOIN " + right + " ON (T5.c1 = T6.c13)", [2]bool{true, true}, "hash(c1)"},
		{"CROSS JOIN " + right, [2]bool{false, false}, "hash(c1)"},
	} {
		si := sqlInterpFor()
		rel, err := si.selectRel(mustSelect(t, "SELECT T5.c1 AS c1, T6.c13 AS c13 FROM "+left+" "+c.join), nil, false, false)
		if err != nil {
			t.Fatalf("%s: %v", c.join, err)
		}
		if got := [2]bool{rel.cols[0].Nullable, rel.cols[1].Nullable}; got != c.nullable || rel.dist.String() != c.dist {
			t.Errorf("%s: nullable %v placed %s, want %v placed %s", c.join, got, rel.dist, c.nullable, c.dist)
		}
	}
}

func TestReturnRelRejects(t *testing.T) {
	for _, sql := range []string{
		"SELECT c1 FROM [tempdb].[TEMP_ID_1]",                                                    // not a derived table
		"SELECT (T9.c1 + 1) AS [x] FROM (SELECT c1 FROM [tempdb].[TEMP_ID_1]) AS T9",             // non-colref item
		"SELECT T9.c1 AS [x] FROM (SELECT c1 FROM [tempdb].[TEMP_ID_1]) AS T9 WHERE (T9.c1 = 1)", // WHERE on wrapper
	} {
		si := sqlInterpFor()
		if _, _, err := si.returnRel(mustSelect(t, sql)); err == nil {
			t.Errorf("%q: expected returnRel error", sql)
		}
	}
	si := sqlInterpFor()
	rel, outs, err := si.returnRel(mustSelect(t,
		"SELECT T9.c1 AS [key], T9.c2 AS [val] FROM (SELECT c1, c2 FROM [tempdb].[TEMP_ID_1]) AS T9"))
	if err != nil {
		t.Fatalf("clean returnRel: %v", err)
	}
	if len(outs) != 2 || outs[0].name != "key" || outs[0].id != 1 {
		t.Fatalf("outs = %+v", outs)
	}
	if len(rel.cols) != 2 {
		t.Fatalf("rel cols = %+v", rel.cols)
	}
}

func TestExprHelpersSQLSide(t *testing.T) {
	si := sqlInterpFor()
	// Build a scope over the temp's columns.
	bf, err := si.bindRef(&sqlparser.TableName{Name: "TEMP_ID_1"})
	if err != nil {
		t.Fatal(err)
	}
	sc := &scope{items: bf.items}

	parseExpr := func(s string) sqlparser.Expr {
		sel := mustSelect(t, "SELECT c1 FROM [tempdb].[TEMP_ID_1] WHERE "+s)
		return sel.Where
	}

	caseE := parseExpr("CASE WHEN c1 = 1 THEN c2 ELSE c3 END = c2")
	if k, err := si.exprType(caseE, sc); err != nil || k != types.KindBool {
		t.Errorf("case cmp type = %v, %v", k, err)
	}
	dateE := parseExpr("DATEADD(mm, 3, c1) = c2")
	if _, err := si.exprType(dateE, sc); err != nil {
		t.Errorf("dateadd: %v", err)
	}
	between := parseExpr("c1 BETWEEN 1 AND 2")
	if _, err := si.canonExpr(between, sc); err == nil {
		t.Error("BETWEEN must not canonicalize")
	}
	inSub := parseExpr("c1 IN (SELECT c2 FROM [tempdb].[TEMP_ID_1])")
	if _, err := si.canonExpr(inSub, sc); err == nil {
		t.Error("IN-subquery must not canonicalize")
	}
	neg := parseExpr("-c1 = c2")
	if got, err := si.canonExpr(neg, sc); err != nil || !strings.Contains(got, "(-c1)") {
		t.Errorf("neg canon = %q, %v", got, err)
	}
	cast := parseExpr("CAST(c1 AS FLOAT) = c2")
	if got, err := si.canonExpr(cast, sc); err != nil || !strings.Contains(got, "AS FLOAT") {
		t.Errorf("cast canon = %q, %v", got, err)
	}
	isNull := parseExpr("c1 IS NOT NULL")
	kills, err := si.killConjExpr(isNull, sc)
	if err != nil || len(kills) != 1 {
		t.Errorf("IS NOT NULL kills = %v, %v", kills, err)
	}
	inList := parseExpr("c1 IN (1, 2)")
	kills, err = si.killConjExpr(inList, sc)
	if err != nil || len(kills) != 1 {
		t.Errorf("IN-list kills = %v, %v", kills, err)
	}
	notNullable := parseExpr("COALESCE(c1) = 1")
	if _, err := si.exprType(notNullable, sc); err == nil {
		t.Error("unknown function must not type-check")
	}
}

func TestScopeResolve(t *testing.T) {
	si := sqlInterpFor()
	bf, err := si.bindRef(&sqlparser.TableName{Name: "TEMP_ID_1"})
	if err != nil {
		t.Fatal(err)
	}
	bf.items[0].alias = "T5"
	sc := &scope{items: bf.items}
	if c, _, _ := sc.resolve("T5", "c1"); c == nil {
		t.Error("qualified resolve failed")
	}
	if c, _, _ := sc.resolve("T9", "c1"); c != nil {
		t.Error("wrong qualifier must not resolve")
	}
	if c, _, _ := sc.resolve("", "C1"); c == nil {
		t.Error("resolve must be case-insensitive")
	}
	outer := &scope{parent: sc}
	if c, _, _ := outer.resolve("", "c1"); c == nil {
		t.Error("parent-scope resolve failed")
	}
}
