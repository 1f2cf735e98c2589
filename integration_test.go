package pdwqo

import (
	"strings"
	"testing"

	"pdwqo/internal/rowcmp"
)

var testDB *DB

func openTest(t testing.TB) *DB {
	t.Helper()
	if testDB == nil {
		db, err := OpenTPCH(0.002, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		testDB = db
	}
	return testDB
}

// relation renders a result for rowcmp under rule.
func relation(rule rowcmp.Rule, name string, r *Result) rowcmp.Relation {
	return rule.Render(name, r.Columns, r.Rows)
}

// assertSameResults runs a query both distributed and serially and
// compares them under the serial rule: the paper's correctness contract
// for any chosen plan.
func assertSameResults(t *testing.T, db *DB, sql string, opts Options, ordered bool) {
	t.Helper()
	dist, err := db.Execute(sql, opts)
	if err != nil {
		t.Fatalf("distributed: %v", err)
	}
	ref, err := db.ExecuteSerial(sql)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	rule := rowcmp.Serial(ordered)
	if err := rule.Compare(relation(rule, "distributed", dist), relation(rule, "serial", ref)); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndSimpleQueries(t *testing.T) {
	db := openTest(t)
	queries := []struct {
		sql     string
		ordered bool
	}{
		{`SELECT c_name FROM customer WHERE c_acctbal > 5000`, false},
		{`SELECT * FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`, false},
		{`SELECT c_custkey, o_orderdate FROM orders, customer WHERE o_custkey = c_custkey AND o_totalprice > 100`, false},
		{`SELECT o_orderdate FROM orders, lineitem WHERE o_orderkey = l_orderkey`, false},
		{`SELECT n_name, COUNT(*) AS c FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name`, false},
		{`SELECT o_custkey, COUNT(*) AS cnt, SUM(o_totalprice) AS total FROM orders GROUP BY o_custkey`, false},
		{`SELECT SUM(l_quantity) FROM lineitem`, false},
		{`SELECT TOP 7 c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC, c_name`, true},
		{`SELECT DISTINCT o_custkey FROM orders WHERE o_totalprice > 50000`, false},
		{`SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 100000)`, false},
		{`SELECT c_name FROM customer c WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)`, false},
		{`SELECT c_name FROM customer WHERE c_acctbal > 10 AND c_acctbal < 5`, false},
		{`SELECT l_quantity FROM part, lineitem WHERE p_partkey = l_partkey AND p_name LIKE 'forest%'`, false},
		{`SELECT c_name, COUNT(*) FROM customer LEFT JOIN orders ON c_custkey = o_custkey GROUP BY c_name`, false},
	}
	for _, q := range queries {
		q := q
		t.Run(q.sql[:min(40, len(q.sql))], func(t *testing.T) {
			assertSameResults(t, db, q.sql, Options{}, q.ordered)
		})
	}
}

func TestEndToEndTPCHSuite(t *testing.T) {
	db := openTest(t)
	for _, name := range TPCHQueryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sql, _ := TPCHQuery(name)
			// Ordered queries still compare unordered: the serial
			// reference applies the same sort, so ordered comparison also
			// holds except for ties; unordered is the robust contract.
			assertSameResults(t, db, sql, Options{}, false)
		})
	}
}

func TestEndToEndBaselineModeSameResults(t *testing.T) {
	// Plans differ between modes; results must not.
	db := openTest(t)
	for _, name := range []string{"q03", "q05", "q18", "q20"} {
		sql, _ := TPCHQuery(name)
		assertSameResults(t, db, sql, Options{Mode: ModeSerialBaseline}, false)
	}
}

func TestEndToEndAblationsSameResults(t *testing.T) {
	db := openTest(t)
	sql, _ := TPCHQuery("q20")
	assertSameResults(t, db, sql, Options{DisableAggSplit: true}, false)
	assertSameResults(t, db, sql, Options{DisableInterestingRetention: true}, false)
}

func TestEndToEndTopologies(t *testing.T) {
	// The same queries produce identical results regardless of node count.
	for _, nodes := range []int{2, 5} {
		db, err := OpenTPCH(0.001, nodes, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"q01", "q06", "q12", "q20"} {
			sql, _ := TPCHQuery(name)
			assertSameResults(t, db, sql, Options{}, false)
		}
	}
}

func TestQ20AgainstPaperExpectations(t *testing.T) {
	db := openTest(t)
	sql, _ := TPCHQuery("q20")
	plan, err := db.Optimize(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	moves := plan.Moves()
	if moves[MoveKind(3)] < 1 { // Broadcast
		t.Errorf("Q20 should broadcast the filtered part table: %v", moves)
	}
	out, err := plan.ExplainText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PartialGroupBy") || !strings.Contains(out, "FinalGroupBy") {
		t.Errorf("Q20 should split aggregation locally/globally:\n%s", out)
	}
}

// TestAggSplitGuards pins the decomposability guard rails: DISTINCT
// aggregates see each value once globally but possibly on many nodes, so
// their plans must never carry a partial phase, while HAVING filters sit
// above the finalizer and stay correct under the split.
func TestAggSplitGuards(t *testing.T) {
	db := openTest(t)

	distinctQueries := []string{
		`SELECT o_custkey, COUNT(DISTINCT o_orderstatus) AS s FROM orders GROUP BY o_custkey`,
		`SELECT COUNT(DISTINCT l_suppkey) AS s FROM lineitem`,
	}
	if sql, ok := TPCHQuery("q16"); ok {
		distinctQueries = append(distinctQueries, sql)
	}
	for _, sql := range distinctQueries {
		plan, err := db.Optimize(sql, Options{Verify: true})
		if err != nil {
			t.Fatalf("optimize %q: %v", sql[:min(40, len(sql))], err)
		}
		if out, err := plan.ExplainText(); err != nil || strings.Contains(out, "PartialGroupBy") {
			t.Errorf("DISTINCT aggregate was split (%v):\n%s", err, out)
		}
		assertSameResults(t, db, sql, Options{}, false)
	}

	havingSQL := `SELECT o_custkey, SUM(o_totalprice) AS total FROM orders
		GROUP BY o_custkey HAVING SUM(o_totalprice) > 100000`
	assertSameResults(t, db, havingSQL, Options{}, false)
	assertSameResults(t, db, havingSQL, Options{DisableAggSplit: true}, false)
}

func TestOptimizeErrors(t *testing.T) {
	db := openTest(t)
	if _, err := db.Optimize("SELECT bogus FROM nowhere", Options{}); err == nil {
		t.Error("expected error")
	}
	if _, err := db.Optimize("not sql", Options{}); err == nil {
		t.Error("expected error")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	db, err := OpenTPCH(0.001, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`SELECT * FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`, Options{}); err != nil {
		t.Fatal(err)
	}
	if db.Appliance().Metrics.TotalBytesMoved() == 0 {
		t.Error("DMS bytes should be metered")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEndToEndUnionAll(t *testing.T) {
	db := openTest(t)
	queries := []string{
		`SELECT c_custkey AS k FROM customer WHERE c_acctbal > 9000
		 UNION ALL SELECT o_custkey FROM orders WHERE o_totalprice > 200000`,
		`SELECT n_name FROM nation UNION ALL SELECT r_name FROM region`,
		`SELECT k, COUNT(*) AS c FROM (
		     SELECT c_nationkey AS k FROM customer
		     UNION ALL SELECT s_nationkey FROM supplier) u GROUP BY k`,
		`SELECT c_custkey AS k FROM customer
		 UNION ALL SELECT o_custkey FROM orders ORDER BY k`,
	}
	for _, sql := range queries {
		assertSameResults(t, db, sql, Options{}, false)
	}
}
