package pdwqo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pdwqo/internal/dsql"
	"pdwqo/internal/normalize"
	"pdwqo/internal/rowcmp"
)

// The node-compile rule: a compute node compiles each DSQL step's template
// text once per plan and reuses the tree while the text, the arguments'
// binding decisions, the surviving slots and the catalog epoch allow it.
// Every case compares the distributed result with ExecuteSerial.

// runCompiles executes plan under a fresh tracer and returns the result
// and each step compile's outcome, in step order. The step_compile
// counters must agree with the outcomes.
func runCompiles(db *DB, plan *QueryPlan) (*Result, []string, error) {
	tr := NewTracer()
	res, err := db.Run(context.Background(), plan, ExecConfig{Tracer: tr})
	var outcomes []string
	var hits int64
	for _, sp := range tr.Spans() {
		for _, a := range sp.Attrs {
			if sp.Name == "step-compile" && a.Key == "outcome" {
				outcomes = append(outcomes, a.Str)
				if a.Str == "hit" {
					hits++
				}
			}
		}
	}
	c := tr.Counters()
	if c.Get("exec.step_compile.hit") != hits || c.Get("exec.step_compile.miss") != int64(len(outcomes))-hits {
		return nil, nil, fmt.Errorf("counters hit=%d miss=%d disagree with outcomes %v",
			c.Get("exec.step_compile.hit"), c.Get("exec.step_compile.miss"), outcomes)
	}
	return res, outcomes, err
}

// serialDiff runs plan and compares it with the serial reference of sql:
// both must fail, or both succeed with agreeing rows. It returns the step
// compile outcomes.
func serialDiff(db *DB, sql string, plan *QueryPlan) ([]string, error) {
	got, outcomes, err := runCompiles(db, plan)
	want, serr := db.ExecuteSerial(sql)
	if (err != nil) != (serr != nil) {
		return nil, fmt.Errorf("%s: distributed error %v, serial error %v", sql, err, serr)
	}
	if err == nil {
		rule := rowcmp.Serial(false)
		if cerr := rule.Compare(relation(rule, "serial", want), relation(rule, "distributed", got)); cerr != nil {
			return nil, fmt.Errorf("%s: %v", sql, cerr)
		}
	}
	return outcomes, nil
}

func checkSerial(t *testing.T, db *DB, sql string, plan *QueryPlan) []string {
	t.Helper()
	outcomes, err := serialDiff(db, sql, plan)
	if err != nil {
		t.Fatal(err)
	}
	return outcomes
}

func cachedTPCH(t *testing.T) *DB {
	t.Helper()
	db, err := OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db.SetPlanCache(64)
}

// optimizeHit optimizes sql through the plan cache and requires a re-bound
// template, so its DSQL steps carry arguments.
func optimizeHit(t *testing.T, db *DB, sql string) *QueryPlan {
	t.Helper()
	qp, err := db.Optimize(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qp.CacheStatus != "hit" {
		t.Fatalf("%s: plan cache %q, want a hit", sql, qp.CacheStatus)
	}
	return qp
}

func count(outcomes []string, want string) int {
	n := 0
	for _, o := range outcomes {
		if o == want {
			n++
		}
	}
	return n
}

func allAre(outcomes []string, want string) bool {
	return len(outcomes) > 0 && count(outcomes, want) == len(outcomes)
}

// TestStepCompileConcurrentLiterals runs one cached template with
// different literals from several goroutines at once: a shared tree is
// read concurrently and each run fills in its own arguments.
func TestStepCompileConcurrentLiterals(t *testing.T) {
	db := cachedTPCH(t)
	const shape = `SELECT c_nationkey, COUNT(*) AS n, SUM(o_totalprice) AS s FROM customer JOIN orders ON c_custkey = o_custkey WHERE o_orderdate >= '%s' AND c_acctbal > %s GROUP BY c_nationkey`
	dates := []string{"1992-06-01", "1993-01-01", "1994-03-15", "1995-07-01", "1996-11-30", "1997-05-05"}
	bals := []string{"0.5", "1000.25", "4500.75", "9000.5"}
	var sqls []string
	for _, d := range dates {
		for _, b := range bals {
			sqls = append(sqls, fmt.Sprintf(shape, d, b))
		}
	}
	if _, err := db.Optimize(sqls[0], Options{}); err != nil {
		t.Fatal(err)
	}
	plans := make([]*QueryPlan, len(sqls))
	for i, sql := range sqls {
		plans[i] = optimizeHit(t, db, sql)
	}
	if outcomes := checkSerial(t, db, sqls[0], plans[0]); !allAre(outcomes, "miss") {
		t.Fatalf("first execution: outcomes %v, want every step a miss", outcomes)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	var errs []error
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sqls); i += 4 {
				outcomes, err := serialDiff(db, sqls[i], plans[i])
				mu.Lock()
				hits += count(outcomes, "hit")
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if hits == 0 {
		t.Fatal("no execution reused a compiled step")
	}
}

// TestStepCompileDateCoercion binds a DATE-context slot to a string that
// does not parse as a date and to one that does, in both orders: each
// argument takes the binder's own coercion decision, so the non-date
// string fails as it does serially and never reuses the coerced tree.
func TestStepCompileDateCoercion(t *testing.T) {
	db := cachedTPCH(t)
	for _, op := range []string{"<", ">="} {
		sql := func(lit string) string {
			return fmt.Sprintf(`SELECT COUNT(*) AS n FROM orders WHERE o_orderdate %s '%s'`, op, lit)
		}
		if _, err := db.Optimize(sql("1995-03-15"), Options{}); err != nil {
			t.Fatal(err)
		}
		order := []string{"not a date", "1996-01-01", "1994-01-01"}
		if op == ">=" {
			order = []string{"1996-01-01", "not a date", "1994-01-01"}
		}
		var outcomes [][]string
		for _, lit := range order {
			outcomes = append(outcomes, checkSerial(t, db, sql(lit), optimizeHit(t, db, sql(lit))))
		}
		for i, lit := range order {
			if lit == "not a date" && len(outcomes[i]) != 0 {
				t.Errorf("%s: the non-date string compiled to %v, want a bind failure", op, outcomes[i])
			}
		}
		if op == "<" && (!allAre(outcomes[1], "miss") || !allAre(outcomes[2], "hit")) {
			t.Errorf("%s: outcomes %v, want the date compiled after the failure, then reused", op, outcomes)
		}
		if op == ">=" && (!allAre(outcomes[0], "miss") || !allAre(outcomes[2], "hit")) {
			t.Errorf("%s: outcomes %v, want the date's tree kept through the failure", op, outcomes)
		}
	}
}

// TestStepCompileFoldedSlot: the control node's template keeps both range
// bounds, but for an empty range the node's normalization folds the
// filtering step's slots away, so that step compiles on every execution
// and is right each time; a non-empty range compiles it once and reuses
// it. The step above it reads only a temp table and is reused throughout.
func TestStepCompileFoldedSlot(t *testing.T) {
	db := cachedTPCH(t)
	sql := func(lo, hi string) string {
		return fmt.Sprintf(`SELECT COUNT(*) AS n FROM orders WHERE o_totalprice > %s AND o_totalprice < %s`, lo, hi)
	}
	if _, err := db.Optimize(sql("1000.5", "200000.5"), Options{}); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		lo, hi string
		want   string
	}{
		{"300000.5", "100.5", "per-execution"},
		{"500000.5", "10.5", "per-execution"},
		{"100.5", "300000.5", "miss"},
		{"50000.5", "150000.5", "hit"},
	} {
		q := sql(tc.lo, tc.hi)
		outcomes := checkSerial(t, db, q, optimizeHit(t, db, q))
		if len(outcomes) < 2 || outcomes[0] != tc.want || (i > 0 && !allAre(outcomes[1:], "hit")) {
			t.Fatalf("%s: outcomes %v, want the filtering step's %s and later steps reused", q, outcomes, tc.want)
		}
	}
}

// TestStepCompileEpoch: a tree is reused only at the catalog epoch it was
// compiled at.
func TestStepCompileEpoch(t *testing.T) {
	db, err := OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT o_orderpriority, COUNT(*) AS n FROM orders JOIN lineitem ON o_orderkey = l_orderkey WHERE l_quantity > 30 GROUP BY o_orderpriority`
	qp, err := db.Optimize(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"miss", "hit", "bump", "miss", "hit"} {
		if want == "bump" {
			db.Shell().BumpEpoch()
			continue
		}
		if outcomes := checkSerial(t, db, sql, qp); !allAre(outcomes, want) {
			t.Fatalf("execution %d: outcomes %v, want every step a %s", i, outcomes, want)
		}
	}
}

// TestStepCompileEditedSQL: a step whose SQL is edited after it ran
// executes the edited text, not the tree compiled from the original.
func TestStepCompileEditedSQL(t *testing.T) {
	db, err := OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT COUNT(*) AS n FROM orders WHERE o_orderstatus = 'F'`
	qp, err := db.Optimize(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSerial(t, db, sql, qp)
	edited := false
	for i := range qp.DSQL.Steps {
		s := &qp.DSQL.Steps[i]
		if strings.Contains(s.SQL, "'F'") {
			s.SQL = strings.Replace(s.SQL, "'F'", "'O'", 1)
			edited = true
		}
	}
	if !edited {
		t.Fatalf("no step carries the literal:\n%s", qp.DSQL)
	}
	if outcomes := checkSerial(t, db, strings.Replace(sql, "'F'", "'O'", 1), qp); count(outcomes, "per-execution") != 1 {
		t.Fatalf("outcomes %v, want the edited step compiled per execution", outcomes)
	}
}

// TestStepCompileUnboundMarkers: a step text that carries parameter
// markers but no arguments — the cached template itself, or a Bind whose
// texts are not literals — never reuses the slotted tree of a bound copy,
// and neither does the Bind of a template edited after Generate.
func TestStepCompileUnboundMarkers(t *testing.T) {
	db, err := OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 7 AND o_totalprice > 1000.5`
	pq, err := normalize.Parameterize(sql)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, rebindable, err := db.compile(sql, Options{}, pq)
	if err != nil {
		t.Fatal(err)
	}
	if !rebindable {
		t.Fatalf("template lost a slot:\n%s", tmpl.DSQL)
	}
	bound := *tmpl
	bound.DSQL = tmpl.DSQL.Bind(pq.BindTexts())
	for _, want := range []string{"miss", "hit"} {
		if outcomes := checkSerial(t, db, sql, &bound); !allAre(outcomes, want) {
			t.Fatalf("bound copy: outcomes %v, want %s", outcomes, want)
		}
	}
	if _, _, err := runCompiles(db, tmpl); err == nil || !strings.Contains(err.Error(), "no argument") {
		t.Fatalf("template executed without arguments: err %v", err)
	}
	texts := pq.BindTexts()
	for i, l := range pq.Lits {
		if l.Val.String() == "7" {
			texts[i] = "(3 + 4)"
		}
	}
	expr := *tmpl
	expr.DSQL = tmpl.DSQL.Bind(texts)
	if outcomes := checkSerial(t, db, sql, &expr); !allAre(outcomes, "per-execution") {
		t.Fatalf("non-literal argument: outcomes %v, want per-execution", outcomes)
	}
	if outcomes := checkSerial(t, db, sql, &bound); !allAre(outcomes, "hit") {
		t.Fatalf("bound copy after the others: outcomes %v, want hit", outcomes)
	}
	// A template edited before Bind: its copy executes the edited text.
	edited := *tmpl
	edited.DSQL = &dsql.Plan{}
	*edited.DSQL = *tmpl.DSQL
	edited.DSQL.Steps = append([]dsql.Step(nil), tmpl.DSQL.Steps...)
	last := &edited.DSQL.Steps[len(edited.DSQL.Steps)-1]
	if !strings.Contains(last.SQL, " > ") {
		t.Fatalf("no comparison to edit:\n%s", edited.DSQL)
	}
	last.SQL = strings.Replace(last.SQL, " > ", " < ", 1)
	edited.DSQL = edited.DSQL.Bind(pq.BindTexts())
	if outcomes := checkSerial(t, db, strings.Replace(sql, " > ", " < ", 1), &edited); !allAre(outcomes, "per-execution") {
		t.Fatalf("template edited before Bind: outcomes %v, want per-execution", outcomes)
	}
}
