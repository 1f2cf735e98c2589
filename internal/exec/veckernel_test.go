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
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// kernelCols are one generated table's columns: k INT, f FLOAT, i INT
// (f's cross-kind partner), s VARCHAR, m mixed kinds, all with NULLs.
func kernelCols(base algebra.ColumnID) []algebra.ColumnMeta {
	return []algebra.ColumnMeta{
		{ID: base, Name: "k", Type: types.KindInt},
		{ID: base + 1, Name: "f", Type: types.KindFloat},
		{ID: base + 2, Name: "i", Type: types.KindInt},
		{ID: base + 3, Name: "s", Type: types.KindString},
		{ID: base + 4, Name: "m", Type: types.KindInt},
	}
}

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
		d.tables[name] = vec.FromRows([]string{"k", "f", "i", "s", "m"}, rows)
	}
	return d
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
		if a, b := render(rrel.Rows[i]), render(vrel.Rows[i]); a != b {
			t.Fatalf("%s: row %d: row engine %s, vectorized %s", name, i, a, b)
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
	}
}

// TestVecKernelsMatchRows: every predicate, projected (three-valued) and
// filtered on, agrees between the executors over several generated
// tables; the cases marked as erroring fail on both, the others on
// neither.
func TestVecKernelsMatchRows(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d := newKernelDB(seed, 2500, 0)
		for name, pred := range d.predicateCases() {
			proj := algebra.NewTree(&algebra.Project{Defs: []algebra.ProjDef{
				{Expr: d.ref("a", 0), ID: 100, Name: "k"},
				{Expr: pred, ID: 101, Name: "p"},
			}}, d.get("a"))
			n := d.both(t, fmt.Sprintf("seed %d project %s", seed, name), proj)
			if errs := strings.Contains(name, "(errors)"); errs != (n < 0) {
				t.Fatalf("seed %d %s: erroring=%v, want %v", seed, name, n < 0, errs)
			}
			d.both(t, fmt.Sprintf("seed %d filter %s", seed, name), algebra.NewTree(&algebra.Select{Filter: pred}, d.get("a")))
		}
	}
}

// TestVecJoinKeysMatchRows: composite, cross-kind, float, string and
// mixed-kind equi-join keys, with and without a residual, for every join
// kind, agree between the executors. The build side spans two batches.
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
		rows := []types.Row{{types.NewInt(1), types.Null, types.Null, types.Null, v}}
		d.rows[name] = rows
		d.tables[name] = vec.FromRows([]string{"k", "f", "i", "s", "m"}, rows)
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
		d.rows[name] = rows
		d.tables[name] = vec.FromRows([]string{"k", "f", "i", "s", "m"}, rows)
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
