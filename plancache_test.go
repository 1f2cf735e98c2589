package pdwqo

import (
	"testing"

	"pdwqo/internal/normalize"
)

// TestPartlyFoldedSlotPinsThePlan: a slot whose value is used both in a
// column comparison and in a constant comparison that folds away keeps
// its placeholder in the DSQL, yet the plan depends on the value. The
// template must stay pinned to its literals, so a same-shape query whose
// constant comparison folds the other way compiles its own plan.
func TestPartlyFoldedSlotPinsThePlan(t *testing.T) {
	db := cachedTPCH(t)
	const (
		first  = "SELECT o_orderkey FROM orders WHERE o_custkey > 0 AND o_orderkey > 5 AND 5 > 0"
		second = "SELECT o_orderkey FROM orders WHERE o_custkey > 5 AND o_orderkey > 0 AND 0 > 5"
	)
	for _, sql := range []string{first, second} {
		plan, err := db.Optimize(sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.CacheStatus != "miss" {
			t.Errorf("%s: cache status %q, want miss", sql, plan.CacheStatus)
		}
		checkSerial(t, db, sql, plan)
	}
	res, err := db.Execute(second, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("%s: %d rows, want none", second, len(res.Rows))
	}
}

// CompileForCache is the plan cache's compile of sql under default
// options: through its marker template when pq is non-nil, else cold. It
// lets the external corpus test reach the unexported pipeline (that test
// reads the load generator's mix, and loadgen imports this package).
func (db *DB) CompileForCache(sql string, pq *normalize.ParamQuery) (*QueryPlan, bool, error) {
	return db.compile(sql, Options{}, pq)
}
