package dsql

import (
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

var sharedShell *catalog.Shell

func shell(t *testing.T) *catalog.Shell {
	t.Helper()
	if sharedShell == nil {
		s, _, err := tpch.BuildShell(0.002, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		sharedShell = s
	}
	return sharedShell
}

func dsqlFor(t *testing.T, sql string, cfg core.Config) *Plan {
	t.Helper()
	s := shell(t)
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(s)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.OptimizeSeeded(s, norm, memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	data, err := memoxml.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := memoxml.Decode(data, s)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(s.Topology.ComputeNodes, cost.DefaultLambda())
	p, err := core.New(dec, s, model, cfg).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Generate(p, norm.OutputCols())
	if err != nil {
		t.Fatalf("generate %q: %v", sql, err)
	}
	return dp
}

// assertStepsParse re-parses every generated SQL string with the engine's
// own parser: DSQL text must stay inside the supported dialect, because
// compute nodes parse it themselves.
func assertStepsParse(t *testing.T, p *Plan) {
	t.Helper()
	for _, s := range p.Steps {
		if _, err := sqlparser.ParseSelect(s.SQL); err != nil {
			t.Errorf("step %d SQL does not parse: %v\nSQL: %s", s.ID, err, s.SQL)
		}
	}
}

func TestSection24TwoSteps(t *testing.T) {
	// The paper's §2.4 example compiles to two steps: a DMS operation
	// materializing one side, then the Return join.
	p := dsqlFor(t, `SELECT * FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`, core.Config{})
	if len(p.Steps) != 2 {
		t.Fatalf("want 2 steps, got %d:\n%s", len(p.Steps), p)
	}
	mv := p.Steps[0]
	if mv.Kind != StepMove || mv.MoveKind != cost.Shuffle {
		t.Fatalf("step 0 should shuffle: %+v", mv)
	}
	if !strings.Contains(mv.SQL, "[orders]") {
		t.Errorf("move source must scan orders:\n%s", mv.SQL)
	}
	if !strings.Contains(mv.SQL, "1000") {
		t.Errorf("filter must be inside the move source:\n%s", mv.SQL)
	}
	ret := p.Steps[1]
	if ret.Kind != StepReturn {
		t.Fatal("last step must return")
	}
	if !strings.Contains(ret.SQL, mv.Dest) {
		t.Errorf("return step must read the temp table:\n%s", ret.SQL)
	}
	if !strings.Contains(ret.SQL, "[customer]") {
		t.Errorf("return step must join customer:\n%s", ret.SQL)
	}
	assertStepsParse(t, p)
}

func TestCollocatedSingleStep(t *testing.T) {
	p := dsqlFor(t, `SELECT o_orderdate FROM orders, lineitem WHERE o_orderkey = l_orderkey`, core.Config{})
	if len(p.Steps) != 1 || p.Steps[0].Kind != StepReturn {
		t.Fatalf("collocated join is a single return step:\n%s", p)
	}
	assertStepsParse(t, p)
}

func TestQ20DSQLShape(t *testing.T) {
	q, _ := tpch.Get("q20")
	p := dsqlFor(t, q.SQL, core.Config{})
	// Figure 7: the plan is a short serial sequence ending in a Return;
	// it must include a broadcast step (part) and at least one shuffle.
	if len(p.Steps) < 3 {
		t.Fatalf("Q20 should need several steps:\n%s", p)
	}
	var kinds []cost.MoveKind
	for _, s := range p.Steps[:len(p.Steps)-1] {
		kinds = append(kinds, s.MoveKind)
	}
	hasBroadcast, hasShuffle := false, false
	for _, k := range kinds {
		if k == cost.Broadcast {
			hasBroadcast = true
		}
		if k == cost.Shuffle {
			hasShuffle = true
		}
	}
	if !hasBroadcast || !hasShuffle {
		t.Errorf("Q20 moves: %v; want broadcast + shuffle\n%s", kinds, p)
	}
	if p.Steps[len(p.Steps)-1].Kind != StepReturn {
		t.Error("final step must return")
	}
	// ORDER BY s_name → merge key on the first output column.
	if len(p.OrderBy) != 1 || p.OrderBy[0].Pos != 0 || p.OrderBy[0].Desc {
		t.Errorf("merge spec: %+v", p.OrderBy)
	}
	assertStepsParse(t, p)
}

func TestAggSplitSQL(t *testing.T) {
	// The wide aggregate makes the partial/final split profitable (partial
	// rows are much narrower than the input rows).
	p := dsqlFor(t, `SELECT o_custkey, COUNT(*) AS cnt, SUM(o_totalprice) AS total,
		MIN(o_orderdate) AS first_order FROM orders GROUP BY o_custkey`, core.Config{})
	// Expect: shuffle step whose source SQL contains a GROUP BY (the local
	// aggregate), then a return with the global SUM of partial counts.
	if len(p.Steps) != 2 {
		t.Fatalf("want 2 steps:\n%s", p)
	}
	if !strings.Contains(p.Steps[0].SQL, "GROUP BY") || !strings.Contains(p.Steps[0].SQL, "COUNT(*)") {
		t.Errorf("local aggregation missing from move source:\n%s", p.Steps[0].SQL)
	}
	if !strings.Contains(p.Steps[1].SQL, "SUM(") {
		t.Errorf("global phase must sum partial counts:\n%s", p.Steps[1].SQL)
	}
	assertStepsParse(t, p)
}

func TestTopOrderByMergeSpec(t *testing.T) {
	p := dsqlFor(t, `SELECT TOP 5 c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC`, core.Config{})
	if p.Top != 5 {
		t.Errorf("top: %d", p.Top)
	}
	if len(p.OrderBy) != 1 || p.OrderBy[0].Pos != 1 || !p.OrderBy[0].Desc {
		t.Errorf("merge keys: %+v", p.OrderBy)
	}
	assertStepsParse(t, p)
}

func TestAllQueriesGenerate(t *testing.T) {
	for _, q := range tpch.Queries() {
		p := dsqlFor(t, q.SQL, core.Config{})
		if p.Steps[len(p.Steps)-1].Kind != StepReturn {
			t.Errorf("%s: last step must return", q.Name)
		}
		assertStepsParse(t, p)
	}
}

func TestStepDestSchemas(t *testing.T) {
	p := dsqlFor(t, `SELECT * FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`, core.Config{})
	for _, s := range p.Steps {
		if s.Kind != StepMove {
			continue
		}
		if s.Dest == "" || len(s.DestCols) == 0 {
			t.Errorf("move step without destination schema: %+v", s)
		}
		for _, c := range s.DestCols {
			if !strings.HasPrefix(c.Name, "c") {
				t.Errorf("temp column naming: %q", c.Name)
			}
		}
		if s.MoveKind == cost.Shuffle && s.HashCol == "" {
			t.Error("shuffle needs a hash column")
		}
	}
}

func TestPlanRendering(t *testing.T) {
	p := dsqlFor(t, `SELECT * FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`, core.Config{})
	out := p.String()
	if !strings.Contains(out, "DSQL step 0") || !strings.Contains(out, "RETURN") {
		t.Errorf("rendering:\n%s", out)
	}
}

func TestContradictionPlanGenerates(t *testing.T) {
	p := dsqlFor(t, `SELECT c_name FROM customer WHERE c_acctbal > 10 AND c_acctbal < 5`, core.Config{})
	if len(p.Steps) == 0 {
		t.Fatal("empty plan")
	}
	assertStepsParse(t, p)
	if !strings.Contains(p.Steps[len(p.Steps)-1].SQL, "1 = 0") {
		t.Errorf("empty relation should render a false predicate:\n%s", p.Steps[len(p.Steps)-1].SQL)
	}
}
