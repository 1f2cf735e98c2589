package normalize

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pdwqo/internal/algebra"
	"pdwqo/internal/exec"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// bindItem binds `SELECT <expr> AS x FROM customer` and returns the bound
// select item, before normalization.
func bindItem(t *testing.T, expr string) algebra.Scalar {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT " + expr + " AS x FROM customer")
	if err != nil {
		t.Fatalf("parse %s: %v", expr, err)
	}
	tree, err := algebra.NewBinder(testShell(t)).Bind(sel)
	if err != nil {
		t.Fatalf("bind %s: %v", expr, err)
	}
	var item algebra.Scalar
	algebra.VisitTree(tree, func(n *algebra.Tree) {
		if p, ok := n.Op.(*algebra.Project); ok && item == nil {
			item = p.Defs[0].Expr
		}
	})
	if item == nil {
		t.Fatalf("%s: no select item in\n%s", expr, tree)
	}
	return item
}

// sameValue compares kind and bits, so -0 differs from 0 and NaN equals
// itself.
func sameValue(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.IsNull() || types.Compare(a, b) == 0
}

// TestFoldIsEval is the fold's property: over closed expressions of every
// scalar kind, FoldScalar returns exactly exec.Eval's value or leaves the
// expression in place — and it leaves it only when Eval fails or yields
// a float DSQL cannot spell, in which case the expression still
// evaluates exactly as before. Folding evaluates with the vectorized
// evaluator (exec.EvalClosed), so this compares it with the reference.
func TestFoldIsEval(t *testing.T) {
	exprs := []string{
		// Arithmetic, comparison and logic, with NULL operands.
		"1 + 2", "7 - 10", "6 * 7", "7 / 2", "1 / 0", "2.5 * 4",
		"9223372036854775807 + 1", "-9223372036854775807 - 1",
		"1.0e308 * 10.0", "0.0 * -1.0", "0.0 / 0.0",
		"1 < 2", "'a' = 'b'", "1 = NULL", "NULL + 1",
		"1 < 2 AND 2 < 3", "1 > 2 OR NULL", "NULL AND 1 > 2", "(1 = 1) AND 5",
		"NOT (1 = 1)", "NOT NULL", "NOT 5", "-(5)", "-(2.5)", "-(NULL)",
		"NULL IS NULL", "1 IS NOT NULL",
		// LIKE and IN.
		"'forest green' LIKE 'forest%'", "'abc' NOT LIKE '_b_'", "NULL LIKE 'a%'",
		"3 IN (1, 2, 3)", "3 NOT IN (1, NULL)", "NULL IN (1)", "'x' IN (1)",
		// CASE.
		"CASE WHEN 1 > 2 THEN 'a' WHEN NULL THEN 'b' ELSE 'c' END",
		"CASE WHEN 1 < 2 THEN 10 END", "CASE WHEN 1 > 2 THEN 10 END",
		"CASE WHEN 1 THEN 10 END",
		// CAST.
		"CAST(1.9 AS BIGINT)", "CAST(1.0e300 AS BIGINT)",
		"CAST(9007199254740993 AS FLOAT)", "CAST(7 AS FLOAT)", "CAST(1 AS BIT)",
		"CAST('1994-01-01' AS DATE)", "CAST('abc' AS DATE)",
		"CAST(42 AS VARCHAR)", "CAST(NULL AS BIGINT)", "CAST(1.5 AS DATE)",
		// Functions.
		"DATEADD(year, 1, '1994-01-01')", "DATEADD(month, -3, CAST('1994-01-31' AS DATE))",
		"DATEADD(day, NULL, '1994-01-01')", "DATEADD(day, 1.5, '1994-01-01')",
		"YEAR(CAST('1995-06-17' AS DATE))", "YEAR(NULL)", "YEAR(5)",
		"SUBSTRING('forest green', 8, 5)", "SUBSTRING('abc', 0, 2)", "SUBSTRING(NULL, 1, 2)",
		"SUBSTRING('abc', 1, -1)", "SUBSTRING(5, 1, 2)", "SUBSTRING('abc', 2, 9223372036854775807)",
		// Nesting: a part that cannot fold does not stop its parent.
		"(1.0e308 * 10.0) > 0", "CASE WHEN 1 > 2 THEN 1 / 0 ELSE 2 END", "CASE WHEN 1 = 1 THEN YEAR(DATEADD(year, 2, '1994-01-01')) END",
	}
	kinds := map[string]bool{}
	for _, expr := range exprs {
		t.Run(expr, func(t *testing.T) {
			e := bindItem(t, expr)
			algebra.VisitScalar(e, func(s algebra.Scalar) { kinds[fmt.Sprintf("%T", s)] = true })
			want, err := exec.Eval(e, nil)
			fold := err == nil && spellable(want)
			got := FoldScalar(e)
			c, isConst := got.(*algebra.Const)
			switch {
			case fold && (!isConst || !sameValue(c.Val, want)):
				t.Errorf("FoldScalar = %s, want the value %s %s", got.Fingerprint(), want.Kind(), want)
			case !fold:
				// The node stays for the nodes to evaluate (its closed
				// parts may fold) and evaluates exactly as before.
				gv, gerr := exec.Eval(got, nil)
				if isConst || fmt.Sprint(gerr) != fmt.Sprint(err) || (err == nil && !sameValue(gv, want)) {
					t.Errorf("FoldScalar = %s, want %s kept (Eval: %v, %v; after: %v, %v)",
						got.Fingerprint(), e.Fingerprint(), want, err, gv, gerr)
				}
			}
		})
	}
	for _, k := range []string{"*algebra.Binary", "*algebra.Not", "*algebra.Neg", "*algebra.IsNull",
		"*algebra.Like", "*algebra.InList", "*algebra.Func", "*algebra.Case", "*algebra.Cast", "*algebra.Const"} {
		if !kinds[k] {
			t.Errorf("no expression in the table has a %s", k)
		}
	}
}

// TestFoldDateAdd binds and normalizes a DATEADD over literals: the
// binder types its string argument as a DATE and normalization folds the
// call to the date it evaluates to.
func TestFoldDateAdd(t *testing.T) {
	tree := normalizeSQL(t, "SELECT l_orderkey FROM lineitem WHERE l_shipdate < DATEADD(year, 1, '1994-01-01')")
	var found bool
	for _, c := range collectAllConjuncts(tree) {
		if b, ok := c.(*algebra.Binary); ok {
			if k, ok := b.R.(*algebra.Const); ok && k.Val.Kind() == types.KindDate && k.Val.String() == "1995-01-01" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("DATEADD(year, 1, '1994-01-01') should fold to 1995-01-01:\n%s", tree)
	}
}

// TestFoldIsLinear folds left-deep conjunctions of n and 4n column
// comparisons. FoldScalar decides closedness from the children it has
// just folded, so the longer one costs about 4 times as much; re-walking
// each node's subtree would cost about 16 times as much.
func TestFoldIsLinear(t *testing.T) {
	conjunction := func(n int) algebra.Scalar {
		col := algebra.NewColRef(algebra.ColumnMeta{ID: 1, Type: types.KindInt})
		var list []algebra.Scalar
		for i := 0; i < n; i++ {
			list = append(list, &algebra.Binary{Op: sqlparser.OpGt, L: col, R: &algebra.Const{Val: types.NewInt(int64(i))}})
		}
		return algebra.AndAll(list)
	}
	// The fastest of several runs, so a collector cycle or a busy
	// neighbour does not decide the ratio.
	fastest := func(e algebra.Scalar) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 15; i++ {
			start := time.Now()
			FoldScalar(e)
			best = min(best, time.Since(start))
		}
		return best
	}
	const n = 2000
	short, long := fastest(conjunction(n)), fastest(conjunction(4*n))
	if ratio := float64(long) / float64(short); ratio >= 8 {
		t.Errorf("folding %d conjuncts took %v, %d took %v: ratio %.1f, want below 8 (linear is about 4)",
			n, short, 4*n, long, ratio)
	}
}

// TestFoldAllocatesOnlyTheCopy pins FoldScalar's allocations on an
// expression with nothing to fold: the rebuilt nodes and their slices,
// and nothing per node beyond them. Every node re-normalizes every DSQL
// step it compiles, so the fold sits on the per-query path.
func TestFoldAllocatesOnlyTheCopy(t *testing.T) {
	e := bindItem(t, "CASE WHEN c_acctbal > 1 THEN SUBSTRING(c_name, 1, 3) ELSE 'x' END")
	if n := testing.AllocsPerRun(100, func() { FoldScalar(e) }); n > 5 {
		t.Errorf("FoldScalar allocates %v times per call, want at most 5", n)
	}
}

// TestSQLLiteralRoundTrip spells edge values of every kind the way DSQL
// does and reads them back as a node would: the text must parse, bind and
// fold to a constant of the same kind and bits.
func TestSQLLiteralRoundTrip(t *testing.T) {
	date := func(s string) types.Value {
		d, err := types.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	vals := []types.Value{
		types.Null, types.NewBool(true), types.NewBool(false),
		types.NewInt(0), types.NewInt(-1), types.NewInt(7),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64), types.NewInt(math.MinInt64 + 1),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(3), types.NewFloat(-3),
		types.NewFloat(0.1), types.NewFloat(1e21), types.NewFloat(-1e-300), types.NewFloat(1 << 53),
		types.NewFloat(math.MaxFloat64), types.NewFloat(math.SmallestNonzeroFloat64),
		types.NewString(""), types.NewString("O'Brien"), types.NewString("a%b_c"),
		date("1994-01-01"), date("1970-01-01"), date("1969-12-31"),
	}
	for _, v := range vals {
		lit := v.SQLLiteral()
		e := FoldScalar(bindItem(t, lit))
		if c, ok := e.(*algebra.Const); !ok || !sameValue(c.Val, v) {
			t.Errorf("%s %s spelled %s reads back as %s", v.Kind(), v, lit, e.Fingerprint())
		}
	}
}
