package exec

import (
	"math"
	"math/rand"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// --- Evaluator tests ---

func env(cols []algebra.ColumnMeta, row types.Row) *Env {
	e := NewEnv(cols)
	e.Row = row
	return e
}

func col(id algebra.ColumnID, k types.Kind) *algebra.ColRef {
	return algebra.NewColRef(algebra.ColumnMeta{ID: id, Name: "x", Type: k})
}

func cnst(v types.Value) *algebra.Const { return &algebra.Const{Val: v} }

func TestEvalComparisons(t *testing.T) {
	cols := []algebra.ColumnMeta{{ID: 1, Type: types.KindInt}}
	e := env(cols, types.Row{types.NewInt(5)})
	cases := []struct {
		op   sqlparser.BinOp
		rhs  int64
		want bool
	}{
		{sqlparser.OpEq, 5, true}, {sqlparser.OpEq, 4, false},
		{sqlparser.OpNe, 4, true}, {sqlparser.OpLt, 6, true},
		{sqlparser.OpLe, 5, true}, {sqlparser.OpGt, 4, true},
		{sqlparser.OpGe, 6, false},
	}
	for _, c := range cases {
		expr := &algebra.Binary{Op: c.op, L: col(1, types.KindInt), R: cnst(types.NewInt(c.rhs))}
		v, err := Eval(expr, e)
		if err != nil || v.Bool() != c.want {
			t.Errorf("5 %s %d = %v (%v)", c.op, c.rhs, v, err)
		}
	}
}

func TestEvalNullPropagation(t *testing.T) {
	cols := []algebra.ColumnMeta{{ID: 1, Type: types.KindInt}}
	e := env(cols, types.Row{types.Null})
	cmp := &algebra.Binary{Op: sqlparser.OpEq, L: col(1, types.KindInt), R: cnst(types.NewInt(1))}
	v, err := Eval(cmp, e)
	if err != nil || !v.IsNull() {
		t.Errorf("NULL = 1 should be NULL: %v", v)
	}
	if ok, err := TruthyChecked(v); err != nil || ok {
		t.Errorf("NULL is not truthy (ok=%v err=%v)", ok, err)
	}
	// NULL AND FALSE = FALSE; NULL OR TRUE = TRUE (three-valued logic).
	and := &algebra.Binary{Op: sqlparser.OpAnd, L: cmp, R: cnst(types.NewBool(false))}
	if v, _ := Eval(and, e); v.IsNull() || v.Bool() {
		t.Errorf("NULL AND FALSE = %v", v)
	}
	or := &algebra.Binary{Op: sqlparser.OpOr, L: cmp, R: cnst(types.NewBool(true))}
	if v, _ := Eval(or, e); v.IsNull() || !v.Bool() {
		t.Errorf("NULL OR TRUE = %v", v)
	}
	andNull := &algebra.Binary{Op: sqlparser.OpAnd, L: cmp, R: cnst(types.NewBool(true))}
	if v, _ := Eval(andNull, e); !v.IsNull() {
		t.Errorf("NULL AND TRUE = %v", v)
	}
}

func TestEvalInList(t *testing.T) {
	cols := []algebra.ColumnMeta{{ID: 1, Type: types.KindInt}}
	e := env(cols, types.Row{types.NewInt(2)})
	in := &algebra.InList{E: col(1, types.KindInt), List: []algebra.Scalar{cnst(types.NewInt(1)), cnst(types.NewInt(2))}}
	if v, _ := Eval(in, e); !v.Bool() {
		t.Error("2 IN (1,2)")
	}
	in.Negated = true
	if v, _ := Eval(in, e); v.Bool() {
		t.Error("2 NOT IN (1,2)")
	}
	// x IN (1, NULL) with x=3: unknown.
	in2 := &algebra.InList{E: col(1, types.KindInt), List: []algebra.Scalar{cnst(types.NewInt(1)), cnst(types.Null)}}
	e.Row = types.Row{types.NewInt(3)}
	if v, _ := Eval(in2, e); !v.IsNull() {
		t.Errorf("3 IN (1,NULL) = %v, want NULL", v)
	}
}

func TestEvalCaseAndCast(t *testing.T) {
	cols := []algebra.ColumnMeta{{ID: 1, Type: types.KindInt}}
	e := env(cols, types.Row{types.NewInt(7)})
	ce := &algebra.Case{
		Whens: []algebra.CaseWhen{
			{Cond: &algebra.Binary{Op: sqlparser.OpGt, L: col(1, types.KindInt), R: cnst(types.NewInt(10))}, Then: cnst(types.NewString("big"))},
			{Cond: &algebra.Binary{Op: sqlparser.OpGt, L: col(1, types.KindInt), R: cnst(types.NewInt(5))}, Then: cnst(types.NewString("mid"))},
		},
		Else: cnst(types.NewString("small")),
	}
	if v, _ := Eval(ce, e); v.Str() != "mid" {
		t.Errorf("case = %v", v)
	}
	cast := &algebra.Cast{E: col(1, types.KindInt), To: types.KindFloat}
	if v, _ := Eval(cast, e); v.Kind() != types.KindFloat || v.Float() != 7 {
		t.Errorf("cast = %v", v)
	}
	if _, err := CastValue(types.NewString("1994-01-01"), types.KindDate); err != nil {
		t.Errorf("string→date cast: %v", err)
	}
	if _, err := CastValue(types.NewBool(true), types.KindDate); err == nil {
		t.Error("bool→date must fail")
	}
}

func TestEvalLike(t *testing.T) {
	cols := []algebra.ColumnMeta{{ID: 1, Type: types.KindString}}
	e := env(cols, types.Row{types.NewString("forest green")})
	like := &algebra.Like{E: col(1, types.KindString), Pattern: "forest%"}
	if v, _ := Eval(like, e); !v.Bool() {
		t.Error("LIKE prefix")
	}
	e.Row = types.Row{types.Null}
	if v, _ := Eval(like, e); !v.IsNull() {
		t.Error("NULL LIKE → NULL")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"forest green", "forest%", true},
		{"enchanted forest", "forest%", false},
		{"enchanted forest", "%forest", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "abc", true},
		{"abc", "%b%", true},
		{"", "%", true},
		{"x", "", false},
		{"mississippi", "%iss%ppi", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestEvalConstFunc(t *testing.T) {
	day := types.NewString("day")
	date, _ := types.ParseDate("1994-01-31")
	str := types.NewString("forest green")
	i := types.NewInt
	cases := []struct {
		name string
		args []types.Value
		want string // the value, or "error"
	}{
		{"DATEADD", []types.Value{types.NewString("month"), i(1), date}, "1994-02-28"},
		{"DATEADD", []types.Value{day, types.Null, date}, "NULL"},
		{"DATEADD", []types.Value{day, types.NewFloat(1.5), date}, "error"},
		{"DATEADD", []types.Value{i(1), i(1), date}, "error"},
		{"YEAR", []types.Value{date}, "1994"},
		{"YEAR", []types.Value{i(5)}, "error"},
		{"SUBSTRING", []types.Value{str, i(8), i(5)}, "green"},
		{"SUBSTRING", []types.Value{str, i(0), i(3)}, "for"},
		{"SUBSTRING", []types.Value{str, i(20), i(3)}, ""},
		{"SUBSTRING", []types.Value{str, i(2), i(math.MaxInt64)}, "orest green"},
		{"SUBSTRING", []types.Value{str, i(math.MinInt64), i(2)}, ""},
		{"SUBSTRING", []types.Value{types.Null, i(1), i(2)}, "NULL"},
		{"SUBSTRING", []types.Value{str, i(1), i(-1)}, "error"},
		{"SUBSTRING", []types.Value{i(5), i(1), i(2)}, "error"},
		{"SUBSTRING", []types.Value{str, types.NewFloat(1), i(2)}, "error"},
		{"SUBSTRING", []types.Value{str, i(1), types.NewFloat(2)}, "error"},
		{"NOPE", nil, "error"},
	}
	for _, c := range cases {
		v, err := EvalConstFunc(c.name, c.args)
		got := v.String()
		if err != nil {
			got = "error"
		}
		if got != c.want {
			t.Errorf("%s%v = %q (%v), want %q", c.name, c.args, got, err, c.want)
		}
	}
}

// --- Executor tests over hand-built relations ---

func meta(id algebra.ColumnID, name string, k types.Kind) algebra.ColumnMeta {
	return algebra.ColumnMeta{ID: id, Name: name, Type: k}
}

func intRows(vals ...int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, v := range vals {
		out[i] = types.Row{types.NewInt(v)}
	}
	return out
}

func testTable(name string, cols []catalog.Column, rows []types.Row) TableSource {
	return func(n string) ([]types.Row, []string, error) {
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.Name
		}
		return rows, names, nil
	}
}

func getOp(tblName string, cols []algebra.ColumnMeta) (*algebra.Tree, TableSource, []types.Row) {
	catCols := make([]catalog.Column, len(cols))
	for i, c := range cols {
		catCols[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	tbl := &catalog.Table{Name: tblName, Columns: catCols, Dist: catalog.Distribution{Kind: catalog.DistReplicated}}
	get := &algebra.Get{Table: tbl, Alias: tblName, Cols: cols}
	return algebra.NewTree(get), nil, nil
}

func TestRunHashJoinKinds(t *testing.T) {
	lCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt)}
	rCols := []algebra.ColumnMeta{meta(2, "b", types.KindInt)}
	l := &Relation{Cols: lCols, Rows: intRows(1, 2, 3, 3)}
	r := &Relation{Cols: rCols, Rows: intRows(2, 3, 3, 4)}
	on := &algebra.Binary{Op: sqlparser.OpEq, L: algebra.NewColRef(lCols[0]), R: algebra.NewColRef(rCols[0])}

	cases := []struct {
		kind algebra.JoinKind
		want int
	}{
		{algebra.JoinInner, 5},     // 2:1, 3×3:4
		{algebra.JoinLeftOuter, 6}, // + unmatched 1
		{algebra.JoinSemi, 3},      // 2, 3, 3
		{algebra.JoinAnti, 1},      // 1
		{algebra.JoinFullOuter, 7}, // + unmatched 4
	}
	for _, c := range cases {
		out, err := runJoin(&algebra.Join{Kind: c.kind, On: on}, l, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rows) != c.want {
			t.Errorf("%v join rows = %d, want %d", c.kind, len(out.Rows), c.want)
		}
	}
}

func TestRunJoinNullKeysNeverMatch(t *testing.T) {
	lCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt)}
	rCols := []algebra.ColumnMeta{meta(2, "b", types.KindInt)}
	l := &Relation{Cols: lCols, Rows: []types.Row{{types.Null}, {types.NewInt(1)}}}
	r := &Relation{Cols: rCols, Rows: []types.Row{{types.Null}, {types.NewInt(1)}}}
	on := &algebra.Binary{Op: sqlparser.OpEq, L: algebra.NewColRef(lCols[0]), R: algebra.NewColRef(rCols[0])}
	out, err := runJoin(&algebra.Join{Kind: algebra.JoinInner, On: on}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Errorf("NULL keys must not join: %d rows", len(out.Rows))
	}
}

func TestRunJoinResidualPredicate(t *testing.T) {
	lCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt), meta(3, "v", types.KindInt)}
	rCols := []algebra.ColumnMeta{meta(2, "b", types.KindInt), meta(4, "w", types.KindInt)}
	l := &Relation{Cols: lCols, Rows: []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(1), types.NewInt(1)},
	}}
	r := &Relation{Cols: rCols, Rows: []types.Row{{types.NewInt(1), types.NewInt(5)}}}
	on := algebra.AndAll([]algebra.Scalar{
		&algebra.Binary{Op: sqlparser.OpEq, L: algebra.NewColRef(lCols[0]), R: algebra.NewColRef(rCols[0])},
		&algebra.Binary{Op: sqlparser.OpGt, L: algebra.NewColRef(lCols[1]), R: algebra.NewColRef(rCols[1])},
	})
	out, err := runJoin(&algebra.Join{Kind: algebra.JoinInner, On: on}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][1].Int() != 10 {
		t.Errorf("residual: %v", out.Rows)
	}
}

func TestRunCrossJoinUsesLoops(t *testing.T) {
	lCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt)}
	rCols := []algebra.ColumnMeta{meta(2, "b", types.KindInt)}
	l := &Relation{Cols: lCols, Rows: intRows(1, 2)}
	r := &Relation{Cols: rCols, Rows: intRows(10, 20, 30)}
	out, err := runJoin(&algebra.Join{Kind: algebra.JoinCross}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 6 {
		t.Errorf("cross join: %d rows", len(out.Rows))
	}
}

func TestRunGroupByAggregates(t *testing.T) {
	cols := []algebra.ColumnMeta{meta(1, "k", types.KindInt), meta(2, "v", types.KindFloat)}
	in := &Relation{Cols: cols, Rows: []types.Row{
		{types.NewInt(1), types.NewFloat(2)},
		{types.NewInt(1), types.NewFloat(3)},
		{types.NewInt(2), types.NewFloat(5)},
		{types.NewInt(2), types.Null},
	}}
	gb := &algebra.GroupBy{
		Keys: []algebra.ColumnID{1},
		Aggs: []algebra.AggDef{
			{Func: algebra.AggSum, Arg: algebra.NewColRef(cols[1]), ID: 10, Name: "s"},
			{Func: algebra.AggCount, Arg: algebra.NewColRef(cols[1]), ID: 11, Name: "c"},
			{Func: algebra.AggCount, ID: 12, Name: "star"},
			{Func: algebra.AggMin, Arg: algebra.NewColRef(cols[1]), ID: 13, Name: "mn"},
			{Func: algebra.AggMax, Arg: algebra.NewColRef(cols[1]), ID: 14, Name: "mx"},
		},
	}
	outCols := algebra.OutputColsFromSchemas(gb, [][]algebra.ColumnMeta{cols})
	out, err := runGroupBy(gb, in, outCols)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("groups: %d", len(out.Rows))
	}
	byKey := map[int64]types.Row{}
	for _, r := range out.Rows {
		byKey[r[0].Int()] = r
	}
	g1 := byKey[1]
	if g1[1].Float() != 5 || g1[2].Int() != 2 || g1[3].Int() != 2 || g1[4].Float() != 2 || g1[5].Float() != 3 {
		t.Errorf("group 1: %v", g1)
	}
	g2 := byKey[2]
	// COUNT(v) skips the NULL; COUNT(*) does not; SUM skips NULL.
	if g2[1].Float() != 5 || g2[2].Int() != 1 || g2[3].Int() != 2 {
		t.Errorf("group 2: %v", g2)
	}
}

func TestRunScalarAggregateEmptyInput(t *testing.T) {
	cols := []algebra.ColumnMeta{meta(1, "v", types.KindInt)}
	in := &Relation{Cols: cols}
	gb := &algebra.GroupBy{
		Aggs: []algebra.AggDef{
			{Func: algebra.AggSum, Arg: algebra.NewColRef(cols[0]), ID: 10, Name: "s"},
			{Func: algebra.AggCount, ID: 11, Name: "c"},
		},
	}
	outCols := algebra.OutputColsFromSchemas(gb, [][]algebra.ColumnMeta{cols})
	out, err := runGroupBy(gb, in, outCols)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 {
		t.Fatalf("scalar agg over empty input must emit one row: %d", len(out.Rows))
	}
	if !out.Rows[0][0].IsNull() || out.Rows[0][1].Int() != 0 {
		t.Errorf("SUM=NULL COUNT=0 expected: %v", out.Rows[0])
	}
}

func TestRunDistinctAggregate(t *testing.T) {
	cols := []algebra.ColumnMeta{meta(1, "v", types.KindInt)}
	in := &Relation{Cols: cols, Rows: intRows(1, 1, 2, 2, 3)}
	gb := &algebra.GroupBy{
		Aggs: []algebra.AggDef{
			{Func: algebra.AggCount, Arg: algebra.NewColRef(cols[0]), Distinct: true, ID: 10, Name: "d"},
			{Func: algebra.AggSum, Arg: algebra.NewColRef(cols[0]), Distinct: true, ID: 11, Name: "sd"},
		},
	}
	outCols := algebra.OutputColsFromSchemas(gb, [][]algebra.ColumnMeta{cols})
	out, err := runGroupBy(gb, in, outCols)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].Int() != 3 || out.Rows[0][1].Int() != 6 {
		t.Errorf("distinct aggs: %v", out.Rows[0])
	}
}

func TestRunSortAndTop(t *testing.T) {
	cols := []algebra.ColumnMeta{meta(1, "v", types.KindInt)}
	in := &Relation{Cols: cols, Rows: intRows(3, 1, 2, 5, 4)}
	out, err := runSort(&algebra.Sort{Keys: []algebra.SortKey{{ID: 1, Desc: true}}, Top: 3}, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 || out.Rows[0][0].Int() != 5 || out.Rows[2][0].Int() != 3 {
		t.Errorf("top3 desc: %v", out.Rows)
	}
	// NULLs sort first ascending.
	in2 := &Relation{Cols: cols, Rows: []types.Row{{types.NewInt(1)}, {types.Null}}}
	out2, err := runSort(&algebra.Sort{Keys: []algebra.SortKey{{ID: 1}}}, in2)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Rows[0][0].IsNull() {
		t.Error("NULL sorts first")
	}
}

func TestRunGetPrunedColumns(t *testing.T) {
	catCols := []catalog.Column{
		{Name: "a", Type: types.KindInt},
		{Name: "b", Type: types.KindInt},
		{Name: "c", Type: types.KindInt},
	}
	tbl := &catalog.Table{Name: "t", Columns: catCols, Dist: catalog.Distribution{Kind: catalog.DistReplicated}}
	// Scan only column c (pruned Get).
	get := &algebra.Get{Table: tbl, Alias: "t", Cols: []algebra.ColumnMeta{meta(9, "c", types.KindInt)}}
	src := testTable("t", catCols, []types.Row{{types.NewInt(1), types.NewInt(2), types.NewInt(3)}})
	out, err := Run(algebra.NewTree(get), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].Int() != 3 {
		t.Errorf("pruned scan: %v", out.Rows)
	}
}

// Property test: hash join ≡ nested-loop join on random data.
func TestHashJoinMatchesLoopJoin(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	lCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt), meta(3, "x", types.KindInt)}
	rCols := []algebra.ColumnMeta{meta(2, "b", types.KindInt), meta(4, "y", types.KindInt)}
	for trial := 0; trial < 20; trial++ {
		l := &Relation{Cols: lCols}
		rr := &Relation{Cols: rCols}
		for i := 0; i < 30; i++ {
			l.Rows = append(l.Rows, types.Row{types.NewInt(r.Int63n(10)), types.NewInt(r.Int63n(100))})
			rr.Rows = append(rr.Rows, types.Row{types.NewInt(r.Int63n(10)), types.NewInt(r.Int63n(100))})
		}
		on := &algebra.Binary{Op: sqlparser.OpEq, L: algebra.NewColRef(lCols[0]), R: algebra.NewColRef(rCols[0])}
		for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeftOuter, algebra.JoinSemi, algebra.JoinAnti} {
			op := &algebra.Join{Kind: kind, On: on}
			outCols := joinOutCols(op, l.Cols, rr.Cols)
			h, err := hashJoin(op, l, rr, []int{0}, []int{0}, nil, outCols)
			if err != nil {
				t.Fatal(err)
			}
			n, err := loopJoin(op, l, rr, on, outCols)
			if err != nil {
				t.Fatal(err)
			}
			if len(h.Rows) != len(n.Rows) {
				t.Fatalf("%v: hash %d vs loop %d rows", kind, len(h.Rows), len(n.Rows))
			}
		}
	}
}

func TestSemiAntiJoinResidualSeesRightColumns(t *testing.T) {
	// Regression: semi/anti joins output left columns only, but residual
	// predicates must still evaluate over the combined row.
	lCols := []algebra.ColumnMeta{meta(1, "a", types.KindInt), meta(3, "v", types.KindInt)}
	rCols := []algebra.ColumnMeta{meta(2, "b", types.KindInt), meta(4, "w", types.KindInt)}
	l := &Relation{Cols: lCols, Rows: []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(2), types.NewInt(10)},
	}}
	r := &Relation{Cols: rCols, Rows: []types.Row{
		{types.NewInt(1), types.NewInt(10)}, // matches a=1 but w == v
		{types.NewInt(2), types.NewInt(99)}, // matches a=2 with w <> v
	}}
	on := algebra.AndAll([]algebra.Scalar{
		&algebra.Binary{Op: sqlparser.OpEq, L: algebra.NewColRef(lCols[0]), R: algebra.NewColRef(rCols[0])},
		&algebra.Binary{Op: sqlparser.OpNe, L: algebra.NewColRef(rCols[1]), R: algebra.NewColRef(lCols[1])},
	})
	semi, err := runJoin(&algebra.Join{Kind: algebra.JoinSemi, On: on}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(semi.Rows) != 1 || semi.Rows[0][0].Int() != 2 {
		t.Errorf("semi: %v", semi.Rows)
	}
	anti, err := runJoin(&algebra.Join{Kind: algebra.JoinAnti, On: on}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(anti.Rows) != 1 || anti.Rows[0][0].Int() != 1 {
		t.Errorf("anti: %v", anti.Rows)
	}
}
