// Package transval_test drives translation validation end to end against
// real compiled TPC-H plans: the clean corpus must re-validate with zero
// violations, and a seeded mutation per domain — corrupted SQL, a
// dangling temp reference, a renamed output alias, a swapped projection
// source, a weakened join, a flipped placement, a loosened predicate —
// must each surface exactly its own typed code.
package transval_test

import (
	"strings"
	"sync"
	"testing"

	"pdwqo"
	"pdwqo/internal/catalog"
	"pdwqo/internal/planverify"
	"pdwqo/internal/planverify/transval"
)

var (
	dbOnce sync.Once
	dbVal  *pdwqo.DB
	dbErr  error
)

// sharedDB compiles against one appliance: every Optimize call hands back
// private artifacts, so mutation tests cannot poison each other.
func sharedDB(t *testing.T) *pdwqo.DB {
	t.Helper()
	dbOnce.Do(func() { dbVal, dbErr = pdwqo.OpenTPCH(0.01, 4, 1) })
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbVal
}

func freshPlan(t *testing.T, name string) (*pdwqo.QueryPlan, *catalog.Shell) {
	t.Helper()
	db := sharedDB(t)
	sql, ok := pdwqo.TPCHQuery(name)
	if !ok {
		t.Fatalf("unknown query %s", name)
	}
	qp, err := db.Optimize(sql, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return qp, db.Shell()
}

func runCheck(qp *pdwqo.QueryPlan, shell *catalog.Shell) []planverify.Violation {
	return transval.Check(qp.Distributed, qp.DSQL, shell)
}

// mutateSQL rewrites the first occurrence of old in step's SQL and fails
// the test if the pattern is not present (the fixture would be vacuous).
func mutateSQL(t *testing.T, qp *pdwqo.QueryPlan, step int, old, new string) {
	t.Helper()
	sql := qp.DSQL.Steps[step].SQL
	if !strings.Contains(sql, old) {
		t.Fatalf("step %d SQL does not contain %q:\n%s", step, old, sql)
	}
	qp.DSQL.Steps[step].SQL = strings.Replace(sql, old, new, 1)
}

// assertOnly demands at least one violation and that every violation
// carries the one expected code: a mutation must fire its own domain,
// not cascade into neighbours.
func assertOnly(t *testing.T, vs []planverify.Violation, code planverify.Code) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("mutation not detected; expected %s", code)
	}
	for _, v := range vs {
		if v.Code != code {
			t.Fatalf("expected only %s, got %s: %s (all: %v)", code, v.Code, v.Detail, vs)
		}
	}
}

// TestTransvalClean pins the baseline the mutations perturb: a
// representative slice of the corpus (aggregation, joins, TOP/ORDER BY,
// outer join, EXISTS, params) must re-validate violation-free. The full
// 22-query × N×regime sweep runs in internal/difftest.
func TestTransvalClean(t *testing.T) {
	for _, name := range pdwqo.TPCHQueryNames() {
		qp, shell := freshPlan(t, name)
		if vs := runCheck(qp, shell); len(vs) != 0 {
			t.Errorf("%s: clean plan rejected: %v", name, vs)
		}
	}
}

// TestMutationReparse corrupts a step's SQL text: the reparse domain must
// reject it with a byte offset before any semantic check runs.
func TestMutationReparse(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	mutateSQL(t, qp, 0, "SELECT", "SELEC T")
	vs := runCheck(qp, shell)
	assertOnly(t, vs, transval.CodeReparse)
	if vs[0].Step != 0 {
		t.Errorf("violation at step %d, want 0", vs[0].Step)
	}
}

// TestMutationRefs renames a temp table inside one step's SQL: the step
// then reads a relation no earlier step produced.
func TestMutationRefs(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	last := len(qp.DSQL.Steps) - 1
	mutateSQL(t, qp, last, "[tempdb].[TEMP_ID_1]", "[tempdb].[TEMP_ID_9]")
	vs := runCheck(qp, shell)
	assertOnly(t, vs, transval.CodeRefs)
	if vs[0].Step != last {
		t.Errorf("violation at step %d, want %d", vs[0].Step, last)
	}
}

// TestMutationSchema renames a final output alias: the return step's
// column list no longer matches the plan's declared output schema.
func TestMutationSchema(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	last := len(qp.DSQL.Steps) - 1
	mutateSQL(t, qp, last, "AS [l_returnflag]", "AS [mutant]")
	assertOnly(t, runCheck(qp, shell), transval.CodeSchema)
}

// TestMutationLineage swaps a projection's source column for another of
// the same type: types and names stay identical, but the column now
// descends from the wrong base column.
func TestMutationLineage(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	mutateSQL(t, qp, 0, "T1.[l_discount] AS c7", "T1.[l_tax] AS c7")
	assertOnly(t, runCheck(qp, shell), transval.CodeLineage)
}

// TestMutationNullability weakens an inner join to a left join: the
// preserved side's columns become nullable where the plan proved they
// cannot be.
func TestMutationNullability(t *testing.T) {
	qp, shell := freshPlan(t, "q05")
	sql := qp.DSQL.Steps[0].SQL
	i := strings.LastIndex(sql, " INNER JOIN ")
	if i < 0 {
		t.Fatalf("no INNER JOIN in q05 step 0:\n%s", sql)
	}
	qp.DSQL.Steps[0].SQL = sql[:i] + " LEFT JOIN " + sql[i+len(" INNER JOIN "):]
	assertOnly(t, runCheck(qp, shell), transval.CodeNullability)
}

// TestMutationDistributionStep flips the placement a move step records
// for its source fragment: it no longer matches the fragment's recorded
// placement.
func TestMutationDistributionStep(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	qp.DSQL.Steps[0].Where = (qp.DSQL.Steps[0].Where + 1) % 3
	assertOnly(t, runCheck(qp, shell), transval.CodeDistribution)
}

// TestMutationReturnReparse corrupts the final Return step's SQL: the
// reparse domain must catch it at that step, after the move steps have
// validated cleanly.
func TestMutationReturnReparse(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	last := len(qp.DSQL.Steps) - 1
	mutateSQL(t, qp, last, "SELECT", "SELEC T")
	vs := runCheck(qp, shell)
	assertOnly(t, vs, transval.CodeReparse)
	if vs[0].Step != last {
		t.Errorf("violation at step %d, want %d", vs[0].Step, last)
	}
}

// TestMutationReturnArity duplicates one output column of the Return
// step: the selected column count no longer matches the plan's declared
// result schema.
func TestMutationReturnArity(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	last := len(qp.DSQL.Steps) - 1
	mutateSQL(t, qp, last,
		"T6.c9 AS [l_returnflag],",
		"T6.c9 AS [l_returnflag], T6.c9 AS [l_returnflag],")
	assertOnly(t, runCheck(qp, shell), transval.CodeSchema)
}

// TestMutationPredicate loosens a comparison: <= becomes <, so the step
// filters a strictly different row set than the plan fragment.
func TestMutationPredicate(t *testing.T) {
	qp, shell := freshPlan(t, "q01")
	mutateSQL(t, qp, 0, "(T2.c11 <= ", "(T2.c11 < ")
	assertOnly(t, runCheck(qp, shell), transval.CodePredicate)
}

// TestLineageAPI exercises the public column-lineage surface: the final
// outputs of q01 must trace to exactly the lineitem base columns the
// query reads.
func TestLineageAPI(t *testing.T) {
	qp, _ := freshPlan(t, "q01")
	lin := transval.Lineage(qp.Distributed)
	want := map[string]string{
		"l_returnflag":   "lineitem.l_returnflag",
		"sum_qty":        "lineitem.l_quantity",
		"sum_disc_price": "", // checked for multi-origin below
	}
	for _, oc := range qp.DSQL.OutCols {
		origin, ok := want[oc.Name]
		if !ok {
			continue
		}
		cl, ok := lin[oc.ID]
		if !ok {
			t.Fatalf("no lineage for output %s (c%d)", oc.Name, oc.ID)
		}
		if cl.Nullable {
			t.Errorf("%s derived nullable; base columns are NOT NULL", oc.Name)
		}
		if origin != "" {
			if len(cl.Origins) != 1 || cl.Origins[0] != origin {
				t.Errorf("%s origins = %v, want [%s]", oc.Name, cl.Origins, origin)
			}
			continue
		}
		// sum_disc_price = SUM(l_extendedprice * (1 - l_discount)).
		if len(cl.Origins) != 2 {
			t.Errorf("%s origins = %v, want extendedprice+discount", oc.Name, cl.Origins)
		}
	}
}

// TestNullabilityMatchesExecution cross-checks the nullability domain
// against the executor: any output column the abstract interpreter
// proves non-nullable must never materialize a NULL. This is the same
// invariant internal/vec's NULL-ordered comparators rely on.
func TestNullabilityMatchesExecution(t *testing.T) {
	db := sharedDB(t)
	for _, name := range []string{"q01", "q03", "q06", "q13"} {
		qp, _ := freshPlan(t, name)
		lin := transval.Lineage(qp.Distributed)
		res, err := db.ExecutePlan(qp)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		for i, oc := range qp.DSQL.OutCols {
			cl, ok := lin[oc.ID]
			if !ok || cl.Nullable {
				continue
			}
			for r, row := range res.Rows {
				if row[i].IsNull() {
					t.Errorf("%s: column %s proved non-nullable but row %d is NULL",
						name, oc.Name, r)
					break
				}
			}
		}
	}
}
