package pdwqo

import (
	"fmt"
	"testing"

	"pdwqo/internal/normalize"
)

// The literal-slot path: a signed number is one slot, a type's argument
// list stays in the shape, and the cache counts each lookup once and
// holds each template once. Every plan is compared with ExecuteSerial.

// sameTemplate optimizes each query of one shape through db's cache and
// requires the statuses want, in order; each plan must agree with the
// serial reference. It returns the step-compile outcomes of each run.
func sameTemplate(t *testing.T, db *DB, queries []string, want []string) [][]string {
	t.Helper()
	var runs [][]string
	for i, sql := range queries {
		plan, err := db.Optimize(sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.CacheStatus != want[i] {
			t.Errorf("%s: cache status %q, want %q", sql, plan.CacheStatus, want[i])
		}
		runs = append(runs, checkSerial(t, db, sql, plan))
	}
	return runs
}

// TestNegativeLiteralSharesTemplate: o_orderkey = -7, -8, -9 are one
// shape whose slot holds the signed value, so the second and third
// queries re-bind the first one's template, and the nodes reuse the tree
// they compiled for the first run.
func TestNegativeLiteralSharesTemplate(t *testing.T) {
	db := cachedTPCH(t)
	var queries []string
	for _, k := range []int{-7, -8, -9} {
		queries = append(queries, fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = %d", k))
	}
	runs := sameTemplate(t, db, queries, []string{"miss", "hit", "hit"})
	if !allAre(runs[1], "hit") {
		t.Errorf("second execution's step compiles %v, want all hit", runs[1])
	}
}

// TestCastTypeArgumentsStayInShape: DECIMAL(12,2)'s arguments are part of
// the shape, not slots that bind nothing, so the o_orderkey slot alone
// decides reuse.
func TestCastTypeArgumentsStayInShape(t *testing.T) {
	db := cachedTPCH(t)
	var queries []string
	for _, k := range []int{7, 8, 9} {
		queries = append(queries, fmt.Sprintf("SELECT CAST(o_totalprice AS DECIMAL(12,2)) AS p FROM orders WHERE o_orderkey = %d", k))
	}
	sameTemplate(t, db, queries, []string{"miss", "hit", "hit"})
}

// TestSignedSlots: a minus where an operand starts is the sign of the
// slot after it, so an IN list of negative numbers is a list of signed
// slots whose template serves other negative lists; after an operand a
// minus is an operator, and 10-5 slots 10 and 5.
func TestSignedSlots(t *testing.T) {
	const sql = "SELECT o_orderkey FROM orders WHERE o_orderkey IN (-1, -2) OR o_orderkey > 10-5"
	pq, err := normalize.Parameterize(sql)
	if err != nil {
		t.Fatal(err)
	}
	var vals []int64
	for _, l := range pq.Lits {
		vals = append(vals, l.Val.Int())
	}
	if fmt.Sprint(vals) != "[-1 -2 10 5]" {
		t.Fatalf("slot values %v, want [-1 -2 10 5]", vals)
	}
	db := cachedTPCH(t)
	sameTemplate(t, db, []string{
		"SELECT o_orderkey FROM orders WHERE o_orderkey IN (-1, -2) OR o_orderkey < 9",
		"SELECT o_orderkey FROM orders WHERE o_orderkey IN (-3, -4) OR o_orderkey < 5",
	}, []string{"miss", "hit"})
}

// TestCacheCountsEachLookupOnce: a cold compile is one miss, not a miss
// on the shape key and another on the exact key, and a rebindable
// template is held once, under its shape key.
func TestCacheCountsEachLookupOnce(t *testing.T) {
	db := cachedTPCH(t)
	shapes := []string{
		"SELECT o_orderkey FROM orders WHERE o_orderkey = %d",
		"SELECT c_name FROM customer WHERE c_custkey < %d",
		"SELECT n_name FROM nation WHERE n_nationkey > %d",
		"SELECT COUNT(*) AS n FROM lineitem WHERE l_orderkey < %d",
		// A folded comparison pins each value to its own compile.
		"SELECT o_orderkey FROM orders WHERE o_custkey > 0 AND o_orderkey > %[1]d AND %[1]d > 0",
	}
	compiles := 0
	for _, shape := range shapes {
		for _, v := range []int{3, 4} {
			plan, err := db.Optimize(fmt.Sprintf(shape, v), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.CacheStatus == "miss" {
				compiles++
			}
		}
	}
	// Four rebindable templates serve two queries each; the pinned shape
	// compiles one plan per value.
	const templates = 6
	if compiles != templates {
		t.Fatalf("%d cold compiles, want %d", compiles, templates)
	}
	m := db.PlanCache().Metrics()
	if m.Misses != int64(compiles) || m.Compiles != int64(compiles) || m.Hits != 4 {
		t.Errorf("metrics %+v: want %d misses and compiles, 4 hits", m, compiles)
	}
	if n := db.PlanCache().Len(); n != templates {
		t.Errorf("cache holds %d entries for %d templates", n, templates)
	}
}
