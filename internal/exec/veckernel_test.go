package exec

// Vec-vs-row property tests for the typed kernels. Generated tables carry
// NULLs in every column, -0 and NaN floats, an INT column that meets a
// FLOAT one as a join key, and a column that mixes kinds; each case runs
// through both executors, which must agree row for row and value for
// value. Predicates are projected as well as filtered on, so TRUE, FALSE
// and NULL are all compared, and an error must arise on both sides or on
// neither, with the same text (every erroring case has one error source).

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// kernelCols are one generated table's columns: k INT, f FLOAT, i INT
// (f's cross-kind partner), s VARCHAR, m mixed kinds, d DATE and t BIT,
// all with NULLs.
func kernelCols(base algebra.ColumnID) []algebra.ColumnMeta {
	return []algebra.ColumnMeta{
		{ID: base, Name: "k", Type: types.KindInt},
		{ID: base + 1, Name: "f", Type: types.KindFloat},
		{ID: base + 2, Name: "i", Type: types.KindInt},
		{ID: base + 3, Name: "s", Type: types.KindString},
		{ID: base + 4, Name: "m", Type: types.KindInt},
		{ID: base + 5, Name: "d", Type: types.KindDate},
		{ID: base + 6, Name: "t", Type: types.KindBool},
	}
}

var kernelNames = []string{"k", "f", "i", "s", "m", "d", "t"}

func kernelRows(r *rand.Rand, n int) []types.Row {
	pick := func(vals ...types.Value) types.Value {
		if r.Intn(8) == 0 {
			return types.Null
		}
		return vals[r.Intn(len(vals))]
	}
	negZero := types.NewFloat(math.Copysign(0, -1))
	otherNaN := types.NewFloat(math.Float64frombits(0x7FF8000000000002))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			pick(types.NewInt(0), types.NewInt(1), types.NewInt(2), types.NewInt(3)),
			pick(types.NewFloat(0), negZero, types.NewFloat(1), types.NewFloat(2.5), types.NewFloat(math.NaN()), otherNaN),
			pick(types.NewInt(0), types.NewInt(1), types.NewInt(2)),
			pick(types.NewString(""), types.NewString("a"), types.NewString("MAIL"), types.NewString("SHIP"), types.NewString("AIR REG")),
			pick(types.NewInt(1), types.NewFloat(1), types.NewString("1"), types.NewInt(2), types.NewDate(1)),
			pick(types.NewDate(0), types.NewDate(1), types.NewDate(2)),
			pick(types.NewBool(false), types.NewBool(true)),
		}
	}
	return rows
}

// kernelDB serves tables a and b to both executors.
type kernelDB struct {
	rows   map[string][]types.Row
	tables map[string]*vec.Table
	cols   map[string][]algebra.ColumnMeta
}

// newKernelDB generates a with na rows and b with nb; past vec.BatchSize
// rows a table spans several batches.
func newKernelDB(seed int64, na, nb int) *kernelDB {
	r := rand.New(rand.NewSource(seed))
	d := &kernelDB{
		rows:   map[string][]types.Row{"a": kernelRows(r, na), "b": kernelRows(r, nb)},
		tables: map[string]*vec.Table{},
		cols:   map[string][]algebra.ColumnMeta{"a": kernelCols(1), "b": kernelCols(11)},
	}
	for name, rows := range d.rows {
		d.put(name, rows)
	}
	return d
}

// put stores a table's rows for both executors, padding each row with
// NULLs to the generated width.
func (d *kernelDB) put(name string, rows []types.Row) {
	for i, r := range rows {
		for len(r) < len(kernelNames) {
			r = append(r, types.Null)
		}
		rows[i] = r
	}
	d.rows[name] = rows
	d.tables[name] = vec.FromRows(kernelNames, rows)
}

func (d *kernelDB) get(name string) *algebra.Tree {
	cols := d.cols[name]
	cat := make([]catalog.Column, len(cols))
	for i, c := range cols {
		cat[i] = catalog.Column{Name: c.Name, Type: c.Type}
	}
	tbl := &catalog.Table{Name: name, Columns: cat, Dist: catalog.Distribution{Kind: catalog.DistReplicated}}
	return algebra.NewTree(&algebra.Get{Table: tbl, Alias: name, Cols: cols})
}

func (d *kernelDB) ref(table string, col int) *algebra.ColRef {
	return algebra.NewColRef(d.cols[table][col])
}

// render spells a value with its kind, so -0, NaN and a kind change all
// show.
func render(row types.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.Kind().String() + ":" + v.String()
	}
	return strings.Join(parts, "|")
}

// sameRow reports whether two rows hold the same values as render spells
// them: the same kind and value, floats by their bits (so -0 is not 0)
// and any NaN equal to any NaN.
func sameRow(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		y := b[i]
		if x.Kind() == types.KindFloat && y.Kind() == types.KindFloat {
			fx, fy := x.Float(), y.Float()
			if math.Float64bits(fx) != math.Float64bits(fy) && !(math.IsNaN(fx) && math.IsNaN(fy)) {
				return false
			}
		} else if x != y {
			return false
		}
	}
	return true
}

// both runs a tree through the row and the vectorized executor and
// compares the outcomes. It reports the row count, for cases that must
// produce rows to mean anything.
func (d *kernelDB) both(t *testing.T, name string, tree *algebra.Tree) int {
	t.Helper()
	rowSrc := func(n string) ([]types.Row, []string, error) { return d.rows[n], d.tables[n].Names, nil }
	colSrc := func(n string) (*vec.Table, error) { return d.tables[n], nil }
	rrel, rerr := Run(tree, rowSrc)
	vrel, verr := RunVec(tree, colSrc)
	if (rerr == nil) != (verr == nil) {
		t.Fatalf("%s: row err=%v, vec err=%v", name, rerr, verr)
	}
	if rerr != nil {
		if rerr.Error() != verr.Error() {
			t.Fatalf("%s: row err %q, vec err %q", name, rerr, verr)
		}
		return -1
	}
	if len(rrel.Rows) != len(vrel.Rows) {
		t.Fatalf("%s: row engine %d rows, vectorized %d", name, len(rrel.Rows), len(vrel.Rows))
	}
	for i := range rrel.Rows {
		if !sameRow(rrel.Rows[i], vrel.Rows[i]) {
			t.Fatalf("%s: row %d: row engine %s, vectorized %s", name, i, render(rrel.Rows[i]), render(vrel.Rows[i]))
		}
	}
	return len(rrel.Rows)
}

func bin(op sqlparser.BinOp, l, r algebra.Scalar) algebra.Scalar {
	return &algebra.Binary{Op: op, L: l, R: r}
}

// predicateCases are the scalar predicates under test over table a.
func (d *kernelDB) predicateCases() map[string]algebra.Scalar {
	k, f, i, s, m := d.ref("a", 0), d.ref("a", 1), d.ref("a", 2), d.ref("a", 3), d.ref("a", 4)
	dt, t := d.ref("a", 5), d.ref("a", 6)
	c := func(v types.Value) algebra.Scalar { return cnst(v) }
	in := func(e algebra.Scalar, neg bool, vals ...types.Value) algebra.Scalar {
		list := make([]algebra.Scalar, len(vals))
		for j, v := range vals {
			list[j] = c(v)
		}
		return &algebra.InList{E: e, List: list, Negated: neg}
	}
	kIs := func(x int64) algebra.Scalar { return bin(sqlparser.OpEq, k, c(types.NewInt(x))) }
	fGt := bin(sqlparser.OpGt, f, c(types.NewFloat(1)))
	oneOverKMinus1 := bin(sqlparser.OpDiv, c(types.NewInt(1)), bin(sqlparser.OpSub, k, c(types.NewInt(1))))
	divByKMinus1 := bin(sqlparser.OpGt, oneOverKMinus1, c(types.NewInt(0)))
	when := func(cond, then algebra.Scalar) algebra.CaseWhen { return algebra.CaseWhen{Cond: cond, Then: then} }
	return map[string]algebra.Scalar{
		"s IN (MAIL, NULL, SHIP)":   in(s, false, types.NewString("MAIL"), types.Null, types.NewString("SHIP")),
		"s NOT IN (MAIL, SHIP)":     in(s, true, types.NewString("MAIL"), types.NewString("SHIP")),
		"k NOT IN (1, NULL)":        in(k, true, types.NewInt(1), types.Null),
		"k IN (1, 2.0, 'x')":        in(k, false, types.NewInt(1), types.NewFloat(2), types.NewString("x")),
		"f IN (0, 2.5)":             in(f, false, types.NewInt(0), types.NewFloat(2.5)),
		"f NOT IN (NaN)":            in(f, true, types.NewFloat(math.NaN())),
		"m IN (1, '1')":             in(m, false, types.NewInt(1), types.NewString("1")),
		"m NOT IN (2.0, NULL, d1)":  in(m, true, types.NewFloat(2), types.Null, types.NewDate(1)),
		"k+i IN (2, 3)":             in(bin(sqlparser.OpAdd, k, i), false, types.NewInt(2), types.NewInt(3)),
		"s LIKE 'M%'":               &algebra.Like{E: s, Pattern: "M%"},
		"s NOT LIKE '%A%'":          &algebra.Like{E: s, Pattern: "%A%", Negated: true},
		"s LIKE '_'":                &algebra.Like{E: s, Pattern: "_"},
		"m LIKE '1' (errors)":       &algebra.Like{E: m, Pattern: "1"},
		"k=1 AND f>1":               bin(sqlparser.OpAnd, kIs(1), fGt),
		"k=1 OR f>1":                bin(sqlparser.OpOr, kIs(1), fGt),
		"(k=1 OR f>1) AND NOT k=2":  bin(sqlparser.OpAnd, bin(sqlparser.OpOr, kIs(1), fGt), &algebra.Not{E: kIs(2)}),
		"k=0 OR 1/k > 0":            bin(sqlparser.OpOr, kIs(0), bin(sqlparser.OpGt, bin(sqlparser.OpDiv, c(types.NewInt(1)), k), c(types.NewInt(0)))),
		"k<>0 AND 1/k > 0":          bin(sqlparser.OpAnd, bin(sqlparser.OpNe, k, c(types.NewInt(0))), bin(sqlparser.OpGt, bin(sqlparser.OpDiv, c(types.NewInt(1)), k), c(types.NewInt(0)))),
		"f>100 OR 1/(k-1) (errors)": bin(sqlparser.OpOr, bin(sqlparser.OpGt, f, c(types.NewFloat(100))), bin(sqlparser.OpGt, bin(sqlparser.OpDiv, c(types.NewInt(1)), bin(sqlparser.OpSub, k, c(types.NewInt(1)))), c(types.NewInt(0)))),
		"k AND f>1 (errors)":        bin(sqlparser.OpAnd, k, fGt),
		"k=1 AND s AND f>1 (NULL)":  bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, kIs(1), bin(sqlparser.OpEq, s, c(types.Null))), fGt),
		// Unordered floats compare equal, as types.CompareChecked has it.
		"f = 2.5":  bin(sqlparser.OpEq, f, c(types.NewFloat(2.5))),
		"f <= 2.5": bin(sqlparser.OpLe, f, c(types.NewFloat(2.5))),
		"f <> 1":   bin(sqlparser.OpNe, f, c(types.NewFloat(1))),
		"f >= f":   bin(sqlparser.OpGe, f, f),
		"f = i":    bin(sqlparser.OpEq, f, i),
		// The shapes filters narrow in place.
		"1 < k":                 bin(sqlparser.OpLt, c(types.NewInt(1)), k),
		"2.5 >= f":              bin(sqlparser.OpGe, c(types.NewFloat(2.5)), f),
		"'MAIL' <= s":           bin(sqlparser.OpLe, c(types.NewString("MAIL")), s),
		"d > d1":                bin(sqlparser.OpGt, dt, c(types.NewDate(1))),
		"d1 <> d":               bin(sqlparser.OpNe, c(types.NewDate(1)), dt),
		"t = TRUE":              bin(sqlparser.OpEq, t, c(types.NewBool(true))),
		"k < 1.5":               bin(sqlparser.OpLt, k, c(types.NewFloat(1.5))),
		"f > 1 (INT constant)":  bin(sqlparser.OpGt, f, c(types.NewInt(1))),
		"k <= i":                bin(sqlparser.OpLe, k, i),
		"s > s":                 bin(sqlparser.OpGt, s, s),
		"i < f":                 bin(sqlparser.OpLt, i, f),
		"k = NULL":              bin(sqlparser.OpEq, k, c(types.Null)),
		"d = k (errors)":        bin(sqlparser.OpEq, dt, k),
		"m = 1 (errors)":        bin(sqlparser.OpEq, m, c(types.NewInt(1))),
		"d IN (d0, NULL)":       in(dt, false, types.NewDate(0), types.Null),
		"t AND k > 1":           bin(sqlparser.OpAnd, t, bin(sqlparser.OpGt, k, c(types.NewInt(1)))),
		"k>1 OR s LIKE 'A%'":    bin(sqlparser.OpOr, bin(sqlparser.OpGt, k, c(types.NewInt(1))), &algebra.Like{E: s, Pattern: "A%"}),
		"(k=1 AND f<>1) OR i=2": bin(sqlparser.OpOr, bin(sqlparser.OpAnd, kIs(1), bin(sqlparser.OpNe, f, c(types.NewFloat(1)))), bin(sqlparser.OpEq, i, c(types.NewInt(2)))),
		"(k=1 OR f<2) AND (i IN (0, NULL) OR s<>'a')": bin(sqlparser.OpAnd,
			bin(sqlparser.OpOr, kIs(1), bin(sqlparser.OpLt, f, c(types.NewInt(2)))),
			bin(sqlparser.OpOr, in(i, false, types.NewInt(0), types.Null), bin(sqlparser.OpNe, s, c(types.NewString("a"))))),
		// A NULL middle conjunct keeps its rows in flight, so the last one
		// runs, and errors, on exactly the rows the row engine's short
		// circuit evaluates it on.
		"k=1 AND s=NULL AND 1/(k-1) > 0 (errors)": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, kIs(1), bin(sqlparser.OpEq, s, c(types.Null))), divByKMinus1),
		"k<>1 AND i>0 AND 1/(k-1) > 0":            bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, bin(sqlparser.OpNe, k, c(types.NewInt(1))), bin(sqlparser.OpGt, i, c(types.NewInt(0)))), divByKMinus1),
		// CASE: rows that no WHEN takes get the ELSE, or NULL without
		// one; a NULL condition passes its row on, and of two WHENs that
		// both hold the first decides. A THEN, or an IN element, runs only
		// on the rows that reach it.
		"CASE k=1 THEN f>1 WHEN k=2 THEN t ELSE s LIKE 'M%'": caseOf(&algebra.Like{E: s, Pattern: "M%"}, when(kIs(1), fGt), when(kIs(2), t)),
		"CASE k=1 THEN f>1 WHEN k=2 THEN t (no ELSE)":        caseOf(nil, when(kIs(1), fGt), when(kIs(2), t)),
		"CASE s=NULL, t, k>0, k>1 (NULL and overlapping WHENs)": caseOf(bin(sqlparser.OpEq, s, c(types.NewString("a"))),
			when(bin(sqlparser.OpEq, s, c(types.Null)), c(types.NewBool(true))), when(t, kIs(1)),
			when(bin(sqlparser.OpGt, k, c(types.NewInt(0))), fGt), when(bin(sqlparser.OpGt, k, c(types.NewInt(1))), &algebra.Not{E: fGt})),
		"CASE WHEN k THEN t (errors)":           caseOf(nil, when(k, t)),
		"CASE WHEN k<>1 THEN 1/(k-1) > 0":       caseOf(nil, when(bin(sqlparser.OpNe, k, c(types.NewInt(1))), divByKMinus1)),
		"k IN (i, f, NULL)":                     &algebra.InList{E: k, List: []algebra.Scalar{i, f, c(types.Null)}},
		"m NOT IN (k, s)":                       &algebra.InList{E: m, List: []algebra.Scalar{k, s}, Negated: true},
		"1 IN (k, 1/(k-1)) (1/0 after a match)": &algebra.InList{E: c(types.NewInt(1)), List: []algebra.Scalar{k, oneOverKMinus1}},
		"k IN (i, 1/(k-1)) (errors)":            &algebra.InList{E: k, List: []algebra.Scalar{i, oneOverKMinus1}},
	}
}

// valueCases are scalars under test over table a that are not
// predicates.
func (d *kernelDB) valueCases() map[string]algebra.Scalar {
	k, f, i, s, dt := d.ref("a", 0), d.ref("a", 1), d.ref("a", 2), d.ref("a", 3), d.ref("a", 5)
	c := func(v types.Value) algebra.Scalar { return cnst(v) }
	kMinus := func(x int64) algebra.Scalar { return bin(sqlparser.OpSub, k, c(types.NewInt(x))) }
	fn := func(name string, out types.Kind, args ...algebra.Scalar) algebra.Scalar {
		return &algebra.Func{Name: name, Args: args, Out: out}
	}
	when := func(cond, then algebra.Scalar) algebra.CaseWhen { return algebra.CaseWhen{Cond: cond, Then: then} }
	return map[string]algebra.Scalar{
		// q08's shape: the branches' kinds differ, so the column mixes them.
		"CASE WHEN k=1 THEN i ELSE f (INT and FLOAT)": caseOf(f, when(bin(sqlparser.OpEq, k, c(types.NewInt(1))), i)),
		"CASE WHEN k<>1 THEN 1/(k-1)":                 caseOf(nil, when(bin(sqlparser.OpNe, k, c(types.NewInt(1))), bin(sqlparser.OpDiv, c(types.NewInt(1)), kMinus(1)))),
		"YEAR(d)":                                     fn("YEAR", types.KindInt, dt),
		"SUBSTRING(s, i, k)":                          fn("SUBSTRING", types.KindString, s, i, k),
		"DATEADD(month, k, d)":                        fn("DATEADD", types.KindDate, c(types.NewString("month")), k, dt),
		"DATEADD(day, i, d)":                          fn("DATEADD", types.KindDate, c(types.NewString("day")), i, dt),
		"SUBSTRING(s, i, k-2) (errors)":               fn("SUBSTRING", types.KindString, s, i, kMinus(2)),
		"YEAR(CASE WHEN k=1 THEN d END)":              fn("YEAR", types.KindInt, caseOf(nil, when(bin(sqlparser.OpEq, k, c(types.NewInt(1))), dt))),
		"CASE WHEN f>1 THEN YEAR(d) ELSE k":           caseOf(k, when(bin(sqlparser.OpGt, f, c(types.NewInt(1))), fn("YEAR", types.KindInt, dt))),
	}
}

// caseOf is CASE over whens with els as its ELSE, none when els is nil.
func caseOf(els algebra.Scalar, whens ...algebra.CaseWhen) algebra.Scalar {
	return &algebra.Case{Whens: whens, Else: els}
}

// TestVecKernelsMatchRows: every predicate, projected (three-valued) and
// filtered on, agrees between the executors over several generated
// tables, and so does every other scalar, projected over every row and
// over the rows a filter keeps; the cases marked as erroring fail on
// both, the others on neither.
func TestVecKernelsMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d := newKernelDB(seed, 2500, 0)
		project := func(name string, in *algebra.Tree, e algebra.Scalar) {
			t.Helper()
			proj := algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
				{Expr: d.ref("a", 0), ID: 100, Name: "k"},
				{Expr: e, ID: 101, Name: "p"},
			}}, in)
			n := d.both(t, fmt.Sprintf("seed %d project %s", seed, name), proj)
			if errs := strings.Contains(name, "(errors)"); errs != (n < 0) {
				t.Fatalf("seed %d %s: erroring=%v, want %v", seed, name, n < 0, errs)
			}
		}
		for name, pred := range d.predicateCases() {
			project(name, d.get("a"), pred)
			d.both(t, fmt.Sprintf("seed %d filter %s", seed, name), algebra.NewTree(&algebra.Select{Filter: pred}, d.get("a")))
		}
		kept := algebra.NewTree(&algebra.Select{Filter: bin(sqlparser.OpNe, d.ref("a", 0), cnst(types.NewInt(0)))}, d.get("a"))
		for name, e := range d.valueCases() {
			project(name, d.get("a"), e)
			project(name+" over k<>0", kept, e)
		}
	}
}

// TestVecJoinKeysMatchRows: composite, cross-kind, float, string and
// mixed-kind equi-join keys, with and without a residual, for every join
// kind, agree between the executors. So do conditions with confirm-only
// pairs (tableKeys): a probe column equated to two build columns, a build
// column equated to two probe columns, the same pair twice, and NULLs
// (every generated column has them) in confirm-only columns on each side.
// The build side spans two batches.
func TestVecJoinKeysMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		d := newKernelDB(seed, 150, 1100)
		a := func(c int) algebra.Scalar { return d.ref("a", c) }
		b := func(c int) algebra.Scalar { return d.ref("b", c) }
		eq := func(l, r algebra.Scalar) algebra.Scalar { return bin(sqlparser.OpEq, l, r) }
		ons := map[string]algebra.Scalar{
			"k=k AND f=i (cross-kind)": bin(sqlparser.OpAnd, eq(a(0), b(0)), eq(a(1), b(2))),
			"i=f AND s=s":              bin(sqlparser.OpAnd, eq(a(2), b(1)), eq(a(3), b(3))),
			"f=f (-0, NaN)":            eq(a(1), b(1)),
			"f=k (float probe)":        eq(a(1), b(0)),
			"m=m (mixed)":              eq(a(4), b(4)),
			"m=k AND s=s":              bin(sqlparser.OpAnd, eq(a(4), b(0)), eq(a(3), b(3))),
			"k=k AND f=f, f<f":         bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, eq(a(0), b(0)), eq(a(2), b(2))), bin(sqlparser.OpLt, a(1), b(1))),
			"k=k AND k=i (one probe column, two build columns)": bin(sqlparser.OpAnd, eq(a(0), b(0)), eq(a(0), b(2))),
			"k=k AND i=k (one build column, two probe columns)": bin(sqlparser.OpAnd, eq(a(0), b(0)), eq(a(2), b(0))),
			"k=k AND k=k (the same pair twice)":                 bin(sqlparser.OpAnd, eq(a(0), b(0)), eq(b(0), a(0))),
			"s=s AND s=s (the same pair twice, hashed)":         bin(sqlparser.OpAnd, eq(a(3), b(3)), eq(a(3), b(3))),
			"f=f AND f=i (the INT build column keys)":           bin(sqlparser.OpAnd, eq(a(1), b(1)), eq(a(1), b(2))),
			"s=s AND k=k AND k=i AND i=k (hashed, confirm-only on each side)": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, eq(a(3), b(3)), eq(a(0), b(0))),
				bin(sqlparser.OpAnd, eq(a(0), b(2)), eq(a(2), b(0)))),
			"k=k AND k=i AND i=k (confirm-only on each side)": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, eq(a(0), b(0)), eq(a(0), b(2))), eq(a(2), b(0))),
			"m=k AND m=i, f<f (mixed probe, residual)":        bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, eq(a(4), b(0)), eq(a(4), b(2))), bin(sqlparser.OpLt, a(1), b(1))),
		}
		kinds := []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeftOuter, algebra.JoinFullOuter, algebra.JoinSemi, algebra.JoinAnti}
		for name, on := range ons {
			for _, kind := range kinds {
				tree := algebra.NewTree(&algebra.Join{Kind: kind, On: on}, d.get("a"), d.get("b"))
				if n := d.both(t, fmt.Sprintf("seed %d %v %s", seed, kind, name), tree); n <= 0 && kind == algebra.JoinInner {
					t.Fatalf("seed %d %s: the inner join matched nothing, so the case tests nothing", seed, name)
				}
			}
		}
	}
}

// TestTableKeys pins the key policy on the TPC-H shapes: one table key
// per probe column and per build column, the same pair twice dropped, the
// rest confirm-only, and a lone table key moved to a typed INT build
// column where one is paired.
func TestTableKeys(t *testing.T) {
	intCols := func(cols ...int) func(int) bool {
		return func(c int) bool { return slices.Contains(cols, c) }
	}
	for _, tc := range []struct {
		name         string
		l, r         []int
		ints         func(int) bool
		wantL, wantR []int
		wantN        int
	}{
		{"lone pair", []int{3}, []int{5}, intCols(), []int{3}, []int{5}, 1},
		{"q18: one probe column, two build columns", []int{0, 0}, []int{7, 2}, intCols(7, 2), []int{0, 0}, []int{7, 2}, 1},
		{"q18: the same pair twice", []int{4, 4}, []int{1, 1}, intCols(1), []int{4}, []int{1}, 1},
		{"q09: two columns, each twice", []int{1, 1, 2, 2}, []int{0, 5, 1, 6}, intCols(0, 1, 5, 6), []int{1, 2, 1, 2}, []int{0, 1, 5, 6}, 2},
		{"q20: a probe column again", []int{0, 1, 0}, []int{2, 3, 4}, intCols(2, 3, 4), []int{0, 1, 0}, []int{2, 3, 4}, 2},
		{"one build column, two probe columns", []int{0, 1}, []int{2, 2}, intCols(2), []int{0, 1}, []int{2, 2}, 1},
		{"a lone key moves to the INT build column", []int{0, 0}, []int{1, 2}, intCols(2), []int{0, 0}, []int{2, 1}, 1},
		{"distinct pairs all key", []int{0, 1}, []int{2, 3}, intCols(), []int{0, 1}, []int{2, 3}, 2},
	} {
		l, r, n := tableKeys(tc.l, tc.r, tc.ints)
		if !slices.Equal(l, tc.wantL) || !slices.Equal(r, tc.wantR) || n != tc.wantN {
			t.Errorf("%s: got %v→%v with %d table keys, want %v→%v with %d", tc.name, l, r, n, tc.wantL, tc.wantR, tc.wantN)
		}
	}
}

// TestVecJoinWalksWholeChains: a semi and an anti join over a build side
// whose rows share their table key, where only an older duplicate (a
// later build row, deeper in the chain) satisfies the confirm-only pair
// or the residual. A probe that stops at a chain's first candidate keeps
// the semi join's row out and the anti join's row in.
func TestVecJoinWalksWholeChains(t *testing.T) {
	d := &kernelDB{rows: map[string][]types.Row{}, tables: map[string]*vec.Table{}, cols: map[string][]algebra.ColumnMeta{}}
	one := types.NewInt(1)
	x := types.NewString("x")
	d.put("a", []types.Row{{one, types.NewFloat(1), one, x}})
	d.put("b", []types.Row{
		{one, types.NewFloat(0), types.NewInt(2), x},
		{one, types.NewFloat(0), types.NewInt(3), x},
		{one, types.NewFloat(5), one, x},
	})
	d.cols["a"], d.cols["b"] = kernelCols(1), kernelCols(11)
	eq := func(l, r algebra.Scalar) algebra.Scalar { return bin(sqlparser.OpEq, l, r) }
	for name, on := range map[string]algebra.Scalar{
		"k=k AND k=i (confirm-only)": bin(sqlparser.OpAnd, eq(d.ref("a", 0), d.ref("b", 0)), eq(d.ref("a", 0), d.ref("b", 2))),
		"k=k, f<f (residual)":        bin(sqlparser.OpAnd, eq(d.ref("a", 0), d.ref("b", 0)), bin(sqlparser.OpLt, d.ref("a", 1), d.ref("b", 1))),
		"s=s AND k=k AND k=i (hashed)": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, eq(d.ref("a", 3), d.ref("b", 3)), eq(d.ref("a", 0), d.ref("b", 0))),
			eq(d.ref("a", 0), d.ref("b", 2))),
	} {
		for kind, want := range map[algebra.JoinKind]int{algebra.JoinSemi: 1, algebra.JoinAnti: 0} {
			tree := algebra.NewTree(&algebra.Join{Kind: kind, On: on}, d.get("a"), d.get("b"))
			if n := d.both(t, fmt.Sprintf("%v %s", kind, name), tree); n != want {
				t.Errorf("%v %s: %d rows, want %d", kind, name, n, want)
			}
		}
	}
}

// TestIDTableGrows: a table made for fewer keys than it receives grows at
// load ½ and still finds each key's newest id, and the ids insert
// displaced chain every key's ids newest first.
func TestIDTableGrows(t *testing.T) {
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = int64(i*7919%1237) - 600
	}
	tab := newIDTable[int64](3)
	start := len(tab.slots)
	prev := make([]int32, len(keys))
	newest := map[int64]int32{}
	for i := range keys {
		prev[i] = tab.insert(keys, int32(i))
		if want, ok := newest[keys[i]]; !ok && prev[i] != -1 || ok && prev[i] != want {
			t.Fatalf("insert of id %d displaced %d, want %d", i, prev[i], want)
		}
		newest[keys[i]] = int32(i)
	}
	if len(tab.slots) <= start || tab.used != len(newest) || 2*tab.used > len(tab.slots) {
		t.Fatalf("%d slots (from %d) for %d keys", len(tab.slots), start, tab.used)
	}
	for k, id := range newest {
		var chain []int32
		for ri := tab.find(keys, k); ri >= 0; ri = prev[ri] {
			chain = append(chain, ri)
		}
		if len(chain) == 0 || chain[0] != id {
			t.Fatalf("key %d: chain %v, want it to start at %d", k, chain, id)
		}
		for i, ri := range chain {
			if keys[ri] != k || i > 0 && ri >= chain[i-1] {
				t.Fatalf("key %d: chain %v is not its ids newest first", k, chain)
			}
		}
		for i := chain[len(chain)-1] - 1; i >= 0; i-- {
			if keys[i] == k {
				t.Fatalf("key %d: chain %v misses id %d", k, chain, i)
			}
		}
	}
	if tab.find(keys, 1<<40) != -1 {
		t.Fatal("found an absent key")
	}
}

// TestHashCollisionsAreConfirmed: a DATE and a VARCHAR share a hash tag,
// so the date whose eight payload bytes spell "aaaaaaaa" hashes exactly as
// that string does; the join key hash puts them in one bucket and the
// comparison that confirms candidates must keep them apart.
func TestHashCollisionsAreConfirmed(t *testing.T) {
	date, str := types.NewDate(0x6161616161616161), types.NewString("aaaaaaaa")
	if types.Hash(date) != types.Hash(str) {
		t.Fatal("the constructed collision no longer collides")
	}
	d := &kernelDB{rows: map[string][]types.Row{}, tables: map[string]*vec.Table{}, cols: map[string][]algebra.ColumnMeta{}}
	for name, v := range map[string]types.Value{"a": date, "b": str} {
		d.put(name, []types.Row{{types.NewInt(1), types.Null, types.Null, types.Null, v}})
	}
	d.cols["a"], d.cols["b"] = kernelCols(1), kernelCols(11)
	for name, on := range map[string]algebra.Scalar{
		"m=m":         bin(sqlparser.OpEq, d.ref("a", 4), d.ref("b", 4)),
		"k=k AND m=m": bin(sqlparser.OpAnd, bin(sqlparser.OpEq, d.ref("a", 0), d.ref("b", 0)), bin(sqlparser.OpEq, d.ref("a", 4), d.ref("b", 4))),
	} {
		join := algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: on}, d.get("a"), d.get("b"))
		if n := d.both(t, name, join); n != 0 {
			t.Errorf("%s: a DATE joined a VARCHAR (%d rows)", name, n)
		}
	}
}

// TestEqualFloatsGroupAndJoinAsOne: -0 and +0 (and integer 0), and NaNs of
// different payloads, are one group key and one join key in both
// executors.
func TestEqualFloatsGroupAndJoinAsOne(t *testing.T) {
	negZero := types.NewFloat(math.Copysign(0, -1))
	vals := []types.Value{types.NewFloat(0), negZero, types.NewFloat(math.NaN()),
		types.NewFloat(math.Float64frombits(0xFFF8000000000001)), negZero, types.NewFloat(0)}
	d := &kernelDB{rows: map[string][]types.Row{}, tables: map[string]*vec.Table{}, cols: map[string][]algebra.ColumnMeta{}}
	for _, name := range []string{"a", "b"} {
		var rows []types.Row
		for _, v := range vals {
			rows = append(rows, types.Row{types.NewInt(1), v, types.NewInt(0), types.Null, types.Null})
		}
		d.put(name, rows)
	}
	d.cols["a"], d.cols["b"] = kernelCols(1), kernelCols(11)
	group := algebra.NewTree(&algebra.GroupBy{
		Keys:  []algebra.ColumnID{2},
		Aggs:  []algebra.AggDef{{Func: algebra.AggCount, ID: 50, Name: "n"}},
		Phase: algebra.AggComplete,
	}, d.get("a"))
	if n := d.both(t, "GROUP BY f", group); n != 2 {
		t.Errorf("GROUP BY f over {±0, NaN, NaN'}: %d groups, want 2", n)
	}
	join := algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: bin(sqlparser.OpEq, d.ref("a", 1), d.ref("b", 1))}, d.get("a"), d.get("b"))
	if n := d.both(t, "a.f = b.f", join); n != 4*4+2*2 {
		t.Errorf("a.f = b.f: %d pairs, want %d (every zero meets every zero, every NaN every NaN)", n, 4*4+2*2)
	}
	cross := algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: bin(sqlparser.OpEq, d.ref("a", 1), d.ref("b", 2))}, d.get("a"), d.get("b"))
	if n := d.both(t, "a.f = b.i", cross); n != 4*len(vals) {
		t.Errorf("a.f = b.i (integer 0): %d pairs, want %d", n, 4*len(vals))
	}
}

// TestVecSelectionHandOff: a filter hands its batch on under a selection
// rather than gathering it, and every consumer reads that selection: a
// project, a filter, a group-by, a sort, a union, and a join's build and
// probe sides, for every join kind, hashed and nested-loop. The tables
// span several batches.
func TestVecSelectionHandOff(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		d := newKernelDB(seed, 2500, 1100)
		a := func(c int) algebra.Scalar { return d.ref("a", c) }
		b := func(c int) algebra.Scalar { return d.ref("b", c) }
		c := func(v types.Value) algebra.Scalar { return cnst(v) }
		filter := func(in *algebra.Tree, pred algebra.Scalar) *algebra.Tree {
			return algebra.NewTree(&algebra.Select{Filter: pred}, in)
		}
		// A conjunct over a column with NULLs beside a NULL-free one.
		fa := filter(d.get("a"), bin(sqlparser.OpAnd, bin(sqlparser.OpGt, a(0), c(types.NewInt(0))), bin(sqlparser.OpNe, a(3), c(types.NewString("a")))))
		cases := map[string]*algebra.Tree{
			"project": algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
				{Expr: bin(sqlparser.OpMul, a(1), c(types.NewInt(2))), ID: 100, Name: "x"},
				{Expr: a(0), ID: 101, Name: "k"},
			}}, fa),
			"filter": filter(fa, bin(sqlparser.OpEq, a(2), c(types.NewInt(1)))),
			"group by": algebra.NewTree(&algebra.GroupBy{
				Keys: []algebra.ColumnID{4},
				Aggs: []algebra.AggDef{
					{Func: algebra.AggCount, ID: 100, Name: "n"},
					{Func: algebra.AggSum, Arg: a(1), ID: 101, Name: "sf"},
					{Func: algebra.AggCount, Arg: a(2), ID: 102, Name: "ni"},
				},
				Phase: algebra.AggComplete,
			}, fa),
			"sort":  algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 1, Desc: true}, {ID: 4}}}, fa),
			"union": algebra.NewTree(&algebra.UnionAll{}, fa, filter(d.get("a"), bin(sqlparser.OpLe, a(0), c(types.NewInt(0))))),
		}
		// Join inputs of a few hundred rows each, spread over every batch;
		// a.k = 3 finds no b.i, so every join kind emits rows.
		pa := filter(d.get("a"), bin(sqlparser.OpAnd, bin(sqlparser.OpGt, a(0), c(types.NewInt(1))), bin(sqlparser.OpEq, a(3), c(types.NewString("SHIP")))))
		pb := filter(d.get("b"), bin(sqlparser.OpAnd, bin(sqlparser.OpEq, b(3), c(types.NewString("MAIL"))), bin(sqlparser.OpLt, b(1), c(types.NewFloat(2.5)))))
		intKey := bin(sqlparser.OpEq, a(0), b(2))
		ons := map[string]algebra.Scalar{
			"INT key":                 intKey,
			"composite key, residual": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, intKey, bin(sqlparser.OpEq, a(6), b(6))), bin(sqlparser.OpLt, a(1), b(1))),
			"nested loop":             bin(sqlparser.OpLt, a(2), b(2)),
		}
		for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeftOuter, algebra.JoinFullOuter, algebra.JoinSemi, algebra.JoinAnti} {
			for name, on := range ons {
				cases[fmt.Sprintf("%v join, %s", kind, name)] = algebra.NewTree(&algebra.Join{Kind: kind, On: on}, pa, pb)
			}
		}
		for name, tree := range cases {
			if n := d.both(t, fmt.Sprintf("seed %d %s", seed, name), tree); n <= 0 {
				t.Fatalf("seed %d %s: no rows, so the case tests nothing", seed, name)
			}
		}
	}
}

// groupByAggs are the aggregates TestVecGroupByMatchRows runs under every
// key set of table a.
func (d *kernelDB) groupByAggs() map[string]algebra.AggDef {
	k, f, i, s, m := d.ref("a", 0), d.ref("a", 1), d.ref("a", 2), d.ref("a", 3), d.ref("a", 4)
	dt, t := d.ref("a", 5), d.ref("a", 6)
	agg := func(fn algebra.AggFunc, arg algebra.Scalar, distinct bool) algebra.AggDef {
		return algebra.AggDef{Func: fn, Arg: arg, Distinct: distinct, ID: 100, Name: "x"}
	}
	return map[string]algebra.AggDef{
		"COUNT(*)":          agg(algebra.AggCount, nil, false),
		"COUNT(m)":          agg(algebra.AggCount, m, false),
		"SUM(f)":            agg(algebra.AggSum, f, false),
		"SUM(k)":            agg(algebra.AggSum, k, false),
		"SUM(i)":            agg(algebra.AggSum, i, false),
		"SUM(m)":            agg(algebra.AggSum, m, false),
		"MIN(s)":            agg(algebra.AggMin, s, false),
		"MIN(d)":            agg(algebra.AggMin, dt, false),
		"MIN(m)":            agg(algebra.AggMin, m, false),
		"MAX(f)":            agg(algebra.AggMax, f, false),
		"MAX(t)":            agg(algebra.AggMax, t, false),
		"COUNT(DISTINCT f)": agg(algebra.AggCount, f, true),
		"SUM(DISTINCT f)":   agg(algebra.AggSum, f, true),
	}
}

// groupBy aggregates in over keys (column IDs) with the given aggregates,
// renumbered so their IDs are distinct.
func groupBy(in *algebra.Tree, keys []algebra.ColumnID, aggs ...algebra.AggDef) *algebra.Tree {
	for j := range aggs {
		aggs[j].ID = algebra.ColumnID(100 + j)
	}
	return algebra.NewTree(&algebra.GroupBy{Keys: keys, Aggs: aggs, Phase: algebra.AggComplete}, in)
}

// TestVecGroupByMatchRows: every aggregate under every key set — each
// column alone, composite keys and no key — agrees between the executors
// over multi-batch generated tables, alone (an aggregate over m may error,
// and must error alike) and, for the aggregates that cannot error, all
// together.
func TestVecGroupByMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := newKernelDB(seed, 2500, 0)
		keySets := map[string][]algebra.ColumnID{
			"k": {1}, "f": {2}, "s": {4}, "m": {5}, "d": {6}, "t": {7},
			"k, f": {1, 2}, "m, s": {5, 4}, "k, i, t": {1, 3, 7}, "no key": nil,
		}
		aggs := d.groupByAggs()
		for keyName, keys := range keySets {
			var all []algebra.AggDef
			for aggName, a := range aggs {
				d.both(t, fmt.Sprintf("seed %d keys %s %s", seed, keyName, aggName), groupBy(d.get("a"), keys, a))
				if !strings.Contains(aggName, "m") {
					all = append(all, a)
				}
			}
			if n := d.both(t, fmt.Sprintf("seed %d keys %s every typed aggregate", seed, keyName), groupBy(d.get("a"), keys, all...)); n <= 0 {
				t.Fatalf("seed %d keys %s: no groups", seed, keyName)
			}
		}
	}
}

// TestVecGroupByModeChanges: hand-built streams that move a group-by off
// its typed paths mid-stream, or stress them. Each is a UNION ALL of two
// tables, so one input's batches reach the group-by ahead of the
// other's, typed differently.
func TestVecGroupByModeChanges(t *testing.T) {
	negZero := types.NewFloat(math.Copysign(0, -1))
	fill := func(n int, row func(i int) types.Row) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		return rows
	}
	intKeys := func(i int) types.Row {
		k := types.NewInt(int64(i % 5))
		if i%7 == 0 {
			k = types.Null
		}
		return types.Row{k, types.NewFloat(float64(i%9) / 4), types.NewInt(int64(i % 3))}
	}
	mixed := []types.Value{types.NewInt(1), types.NewFloat(1), types.NewString("1"), types.Null, types.NewInt(7)}
	cases := []struct {
		name   string
		a, b   []types.Row
		keys   []algebra.ColumnID
		groups int // the groups both executors must find
	}{
		{"INT key typed, then mixed (1, 1.0, '1')", fill(1100, intKeys),
			fill(300, func(i int) types.Row { return types.Row{mixed[i%5], types.NewFloat(1), types.NewInt(1)} }), []algebra.ColumnID{1}, 8},
		{"all-NULL key batches, then typed", fill(1100, func(int) types.Row { return types.Row{types.Null, types.NewFloat(2)} }),
			fill(1100, intKeys), []algebra.ColumnID{1}, 6},
		{"all-NULL keys only", fill(1100, func(int) types.Row { return types.Row{types.Null, types.NewFloat(2)} }),
			nil, []algebra.ColumnID{1}, 1},
		{"SUM FLOAT argument turns mixed", fill(1100, intKeys),
			fill(300, func(i int) types.Row { return types.Row{types.NewInt(int64(i % 5)), mixed[i%2], types.NewInt(2)} }), []algebra.ColumnID{1}, 6},
		{"groups of -0 only", fill(1100, func(i int) types.Row { return types.Row{types.NewInt(int64(i % 3)), negZero} }),
			fill(10, func(i int) types.Row { return types.Row{types.NewInt(int64(3 + i%2)), negZero, types.NewInt(5)} }), []algebra.ColumnID{1}, 5},
		{"-0 without a key", fill(1100, func(int) types.Row { return types.Row{types.NewInt(1), negZero} }),
			nil, nil, 1},
		{"12,000 distinct INT keys over 15 batches", fill(9000, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i*7) % 12000), types.NewFloat(float64(i)), types.NewInt(int64(i % 2))}
		}), fill(6000, func(i int) types.Row {
			return types.Row{types.NewInt(int64((9000+i)*7) % 12000), types.NewFloat(float64(i) / 8), types.NewInt(int64(i % 2))}
		}), []algebra.ColumnID{1}, 12000},
		{"12,000 distinct composite keys", fill(15000, func(i int) types.Row {
			return types.Row{types.NewInt(int64(i % 6000)), types.NewFloat(1), types.NewInt(int64(i / 6000 % 2))}
		}), nil, []algebra.ColumnID{1, 3}, 12000},
	}
	for _, tc := range cases {
		d := &kernelDB{rows: map[string][]types.Row{}, tables: map[string]*vec.Table{}, cols: map[string][]algebra.ColumnMeta{}}
		d.put("a", tc.a)
		d.put("b", tc.b)
		d.cols["a"], d.cols["b"] = kernelCols(1), kernelCols(11)
		in := d.get("a")
		if len(tc.b) > 0 {
			in = algebra.NewTree(&algebra.UnionAll{}, in, d.get("b"))
		}
		f, i := d.ref("a", 1), d.ref("a", 2)
		tree := groupBy(in, tc.keys,
			algebra.AggDef{Func: algebra.AggSum, Arg: f},
			algebra.AggDef{Func: algebra.AggCount},
			algebra.AggDef{Func: algebra.AggCount, Arg: f},
			algebra.AggDef{Func: algebra.AggSum, Arg: i},
			algebra.AggDef{Func: algebra.AggMax, Arg: f})
		if n := d.both(t, tc.name, tree); n != tc.groups {
			t.Errorf("%s: %d groups, want %d", tc.name, n, tc.groups)
		}
	}
}

// TestVecInPlaceBuildsMatchRows: a join build side drained as one batch is
// kept in place under its selection — a filtered scan, a rename-only
// projection over one, a filter over a filter, a bare scan, a group-by or
// a sort result — for every join kind, hashed (INT key; composite key
// with a residual over the build rows) and nested-loop, and a sort orders
// the selected positions of a filtered or renamed scan. The tables span
// several batches.
func TestVecInPlaceBuildsMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		d := newKernelDB(seed, 1100, 1100)
		a := func(c int) algebra.Scalar { return d.ref("a", c) }
		b := func(c int) algebra.Scalar { return d.ref("b", c) }
		c := func(v types.Value) algebra.Scalar { return cnst(v) }
		filter := func(in *algebra.Tree, pred algebra.Scalar) *algebra.Tree {
			return algebra.NewTree(&algebra.Select{Filter: pred}, in)
		}
		col := func(id algebra.ColumnID, kind types.Kind) algebra.Scalar {
			return algebra.NewColRef(algebra.ColumnMeta{ID: id, Type: kind})
		}
		// b's rows whose s is not 'a' and whose f is below 2.5 (NULLs fail).
		fb := filter(d.get("b"), bin(sqlparser.OpAnd, bin(sqlparser.OpNe, b(3), c(types.NewString("a"))), bin(sqlparser.OpLt, b(1), c(types.NewFloat(2.5)))))
		// The DSQL derived-table shape: b's i, k, f and t renamed, in a new
		// order, so the keys and the residual read renamed columns.
		renamed := algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
			{Expr: b(2), ID: 300, Name: "c0"},
			{Expr: b(0), ID: 301, Name: "c1"},
			{Expr: b(1), ID: 302, Name: "c2"},
			{Expr: b(6), ID: 303, Name: "c3"},
		}}, fb)
		grouped := groupBy(fb, []algebra.ColumnID{11},
			algebra.AggDef{Func: algebra.AggCount},
			algebra.AggDef{Func: algebra.AggMax, Arg: b(1)})
		sorted := algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 12, Desc: true}, {ID: 13}}, Top: 700}, fb)
		type build struct {
			tree     *algebra.Tree
			i, f, t  algebra.Scalar // the build's i, f and t columns
			nonEmpty bool           // every join kind yields rows
		}
		builds := map[string]build{
			"filtered scan":                        {fb, b(2), b(1), b(6), true},
			"rename-only projection over a filter": {renamed, col(300, types.KindInt), col(302, types.KindFloat), col(303, types.KindBool), true},
			"filter over a filter":                 {filter(fb, bin(sqlparser.OpNe, b(2), c(types.NewInt(2)))), b(2), b(1), b(6), true},
			"bare scan":                            {d.get("b"), b(2), b(1), b(6), true},
			"sort result with TOP":                 {sorted, b(2), b(1), b(6), true},
			"group-by result":                      {grouped, nil, col(101, types.KindFloat), col(100, types.KindInt), false},
		}
		kinds := []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeftOuter, algebra.JoinFullOuter, algebra.JoinSemi, algebra.JoinAnti}
		pa := filter(d.get("a"), bin(sqlparser.OpAnd, bin(sqlparser.OpGt, a(0), c(types.NewInt(1))), bin(sqlparser.OpEq, a(3), c(types.NewString("SHIP")))))
		for name, bd := range builds {
			intKey := bin(sqlparser.OpEq, a(2), bd.i)
			ons := map[string]algebra.Scalar{
				"INT key": intKey,
				"composite key, residual": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, intKey, bin(sqlparser.OpEq, a(6), bd.t)),
					bin(sqlparser.OpLt, bin(sqlparser.OpMul, a(1), c(types.NewInt(2))), bin(sqlparser.OpAdd, bd.f, c(types.NewInt(1))))),
				"nested loop": bin(sqlparser.OpLt, a(2), bd.i),
			}
			if name == "group-by result" {
				// Grouped on b.k: f is the group's MAX(f), t its COUNT(*).
				k := col(11, types.KindInt)
				ons = map[string]algebra.Scalar{
					"INT key":                 bin(sqlparser.OpEq, a(0), k),
					"composite key, residual": bin(sqlparser.OpAnd, bin(sqlparser.OpAnd, bin(sqlparser.OpEq, a(0), k), bin(sqlparser.OpEq, a(2), bin(sqlparser.OpSub, k, c(types.NewInt(1))))), bin(sqlparser.OpGt, a(1), bd.f)),
					"nested loop":             bin(sqlparser.OpLt, bin(sqlparser.OpMul, a(2), bd.t), c(types.NewInt(200))),
				}
			}
			for _, kind := range kinds {
				for on, cond := range ons {
					tree := algebra.NewTree(&algebra.Join{Kind: kind, On: cond}, pa, bd.tree)
					n := d.both(t, fmt.Sprintf("seed %d %v join over a %s, %s", seed, kind, name, on), tree)
					if n <= 0 && (bd.nonEmpty || kind == algebra.JoinInner) {
						t.Fatalf("seed %d %v join over a %s, %s: no rows, so the case tests nothing", seed, kind, name, on)
					}
				}
			}
		}
		for name, tree := range map[string]*algebra.Tree{
			"sort over a filtered scan":            algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 2}, {ID: 4, Desc: true}}}, filter(d.get("a"), bin(sqlparser.OpNe, a(2), c(types.NewInt(1))))),
			"sort with TOP over a filtered scan":   algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 6}}, Top: 40}, filter(d.get("a"), bin(sqlparser.OpGt, a(0), c(types.NewInt(1))))),
			"sort over a renamed filtered scan":    algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 302, Desc: true}}}, renamed),
			"rename-only projection at the root":   renamed,
			"sort over a group-by result as build": algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 4}, {ID: 100}}}, algebra.NewTree(&algebra.Join{Kind: algebra.JoinInner, On: bin(sqlparser.OpEq, a(0), col(11, types.KindInt))}, pa, grouped)),
		} {
			if n := d.both(t, fmt.Sprintf("seed %d %s", seed, name), tree); n <= 0 {
				t.Fatalf("seed %d %s: no rows, so the case tests nothing", seed, name)
			}
		}
	}
}

// TestVecScratchReuse: temporaries live in per-operator scratch vectors
// reused batch after batch, while a projection's outputs — and the NULL
// bitmaps they share with their operands — stay the consumer's. A sort
// keeps every batch of a projection of NULL-bearing arithmetic, a NOT and
// a comparison over a filtered three-batch table, and group-bys fold
// NULL-bearing computed arguments, under NULL and non-NULL keys, batch
// after batch.
func TestVecScratchReuse(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := newKernelDB(seed, 2500, 0)
		a := func(c int) algebra.Scalar { return d.ref("a", c) }
		c := func(v types.Value) algebra.Scalar { return cnst(v) }
		fa := algebra.NewTree(&algebra.Select{Filter: bin(sqlparser.OpNe, a(3), c(types.NewString("SHIP")))}, d.get("a"))
		proj := func(in *algebra.Tree) *algebra.Tree {
			return algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
				{Expr: bin(sqlparser.OpAdd, a(0), c(types.NewInt(1))), ID: 100, Name: "k1"},
				{Expr: bin(sqlparser.OpMul, a(1), bin(sqlparser.OpSub, c(types.NewInt(1)), a(2))), ID: 101, Name: "x"},
				{Expr: &algebra.Not{E: bin(sqlparser.OpEq, a(6), c(types.NewBool(true)))}, ID: 102, Name: "nt"},
				{Expr: bin(sqlparser.OpLe, a(1), a(2)), ID: 103, Name: "le"},
				{Expr: a(3), ID: 104, Name: "s"},
			}}, in)
		}
		cases := map[string]*algebra.Tree{
			"sort over a projection of a filter": algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 101}, {ID: 100, Desc: true}}}, proj(fa)),
			"sort over a projection of a scan":   algebra.NewTree(&algebra.Sort{Keys: []algebra.SortKey{{ID: 104}, {ID: 100}}}, proj(d.get("a"))),
		}
		args := []algebra.AggDef{
			{Func: algebra.AggSum, Arg: bin(sqlparser.OpMul, a(1), bin(sqlparser.OpSub, c(types.NewInt(1)), a(2)))},
			{Func: algebra.AggSum, Arg: bin(sqlparser.OpAdd, a(0), a(2))},
			{Func: algebra.AggCount, Arg: bin(sqlparser.OpSub, a(1), c(types.NewInt(1)))},
			{Func: algebra.AggMax, Arg: a(3)},
			{Func: algebra.AggMin, Arg: bin(sqlparser.OpMul, a(0), c(types.NewFloat(0.5)))},
			{Func: algebra.AggCount, Arg: &algebra.Not{E: bin(sqlparser.OpGt, a(0), a(2))}},
		}
		for name, keys := range map[string][]algebra.ColumnID{"k": {1}, "s, t": {4, 7}, "no key": nil} {
			cases["group-by on "+name+" over a filter"] = groupBy(fa, keys, slices.Clone(args)...)
			cases["group-by on "+name+" over a scan"] = groupBy(d.get("a"), keys, slices.Clone(args)...)
		}
		for name, tree := range cases {
			if n := d.both(t, fmt.Sprintf("seed %d %s", seed, name), tree); n <= 0 {
				t.Fatalf("seed %d %s: no rows, so the case tests nothing", seed, name)
			}
		}
	}
}
