package transval

import (
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/planverify"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

func getOption(table string) *core.Option {
	for _, tb := range tpch.Tables() {
		if tb.Name != table {
			continue
		}
		cols := make([]algebra.ColumnMeta, len(tb.Columns))
		for i, c := range tb.Columns {
			cols[i] = algebra.ColumnMeta{ID: algebra.ColumnID(i + 1), Name: c.Name, Type: c.Type}
		}
		return &core.Option{Op: &algebra.Get{Table: tb, Cols: cols}}
	}
	return nil
}

// TestCheckGuards pins the partial-input contract: nil or truncated
// artifacts yield no violations rather than panics, and structurally
// misaligned step lists are rejected before any per-step analysis.
func TestCheckGuards(t *testing.T) {
	shell := fuzzShell()
	get := getOption("lineitem")
	ret := dsql.Step{Kind: dsql.StepReturn, SQL: "SELECT 1 AS c1"}

	for _, c := range []struct {
		plan  *core.Plan
		dp    *dsql.Plan
		sh    bool
		label string
	}{
		{nil, &dsql.Plan{Steps: []dsql.Step{ret}}, true, "nil plan"},
		{&core.Plan{}, &dsql.Plan{Steps: []dsql.Step{ret}}, true, "rootless plan"},
		{&core.Plan{Root: get}, nil, true, "nil dsql"},
		{&core.Plan{Root: get}, &dsql.Plan{}, true, "empty steps"},
		{&core.Plan{Root: get}, &dsql.Plan{Steps: []dsql.Step{ret}}, false, "nil shell"},
	} {
		sh := shell
		if !c.sh {
			sh = nil
		}
		if vs := Check(c.plan, c.dp, sh); vs != nil {
			t.Errorf("%s: violations = %v, want none", c.label, vs)
		}
	}

	// A moveless plan with two DSQL steps cannot line up.
	vs := Check(&core.Plan{Root: get},
		&dsql.Plan{Steps: []dsql.Step{ret, ret}}, shell)
	if len(vs) != 1 || vs[0].Code != CodeRefs || vs[0].Step != -1 {
		t.Errorf("step count mismatch: %v", vs)
	}

	// A plan move must pair with a StepMove carrying a destination.
	move := &core.Option{Move: &core.MoveSpec{Kind: cost.Broadcast},
		Inputs: []*core.Option{get}, Dist: core.Replicated()}
	vs = Check(&core.Plan{Root: move},
		&dsql.Plan{Steps: []dsql.Step{ret, ret}}, shell)
	if len(vs) != 1 || vs[0].Code != CodeRefs || vs[0].Step != 0 {
		t.Errorf("misaligned move step: %v", vs)
	}

	// The step must move by its plan move's kind and routing column; a
	// missing or stray routing column is CheckDSQL's step shape.
	shuffle := &core.Option{Move: &core.MoveSpec{Kind: cost.Shuffle, Col: 1},
		Inputs: []*core.Option{get}, Dist: core.HashOn(1)}
	step := func(kind cost.MoveKind, hashCol string) []dsql.Step {
		return []dsql.Step{{Kind: dsql.StepMove, Dest: "T", MoveKind: kind, HashCol: hashCol, SQL: "SELECT 1 AS c1"}, ret}
	}
	for _, c := range []struct {
		kind    cost.MoveKind
		hashCol string
	}{{cost.Broadcast, ""}, {cost.Shuffle, "c2"}} {
		vs = Check(&core.Plan{Root: shuffle}, &dsql.Plan{Steps: step(c.kind, c.hashCol)}, shell)
		if len(vs) != 1 || vs[0].Code != CodeRefs || vs[0].Step != 0 {
			t.Errorf("%v on %q against Shuffle(c1): %v", c.kind, c.hashCol, vs)
		}
	}
	vs = Check(&core.Plan{Root: shuffle}, &dsql.Plan{Steps: step(cost.Shuffle, "")}, shell)
	for _, v := range vs {
		if v.Code == CodeRefs && v.Step == 0 && strings.Contains(v.Detail, "plan move") {
			t.Errorf("missing routing column reported as misalignment: %v", v)
		}
	}

	// The final step must be a Return step.
	vs = Check(&core.Plan{Root: get},
		&dsql.Plan{Steps: []dsql.Step{{Kind: dsql.StepMove, Dest: "T", SQL: "SELECT 1 AS c1"}}}, shell)
	if len(vs) != 1 || vs[0].Code != CodeRefs {
		t.Errorf("non-return final step: %v", vs)
	}
}

// TestCutMovesShared pins the shared-subtree rule: a move referenced from
// two parents is one DSQL step, not two.
func TestCutMovesShared(t *testing.T) {
	get := getOption("nation")
	move := &core.Option{Move: &core.MoveSpec{Kind: cost.Broadcast},
		Inputs: []*core.Option{get}}
	root := &core.Option{Op: &algebra.UnionAll{}, Inputs: []*core.Option{move, move}}
	if moves := cutMoves(root); len(moves) != 1 {
		t.Errorf("shared move emitted %d times", len(moves))
	}
}

// TestReparseNonSelect pins that a step whose SQL parses to something
// other than a SELECT is a reparse violation, not a crash.
func TestReparseNonSelect(t *testing.T) {
	pi := newPlanInterp()
	if _, ok := reparse(pi, "CREATE TABLE t (a BIGINT)"); ok {
		t.Fatal("CREATE TABLE accepted as a step statement")
	}
	if len(pi.vs) != 1 || pi.vs[0].Code != CodeReparse {
		t.Fatalf("violations = %v", pi.vs)
	}
	if !strings.Contains(pi.vs[0].Detail, "not a SELECT") {
		t.Errorf("detail = %s", pi.vs[0].Detail)
	}
}

// TestCompareFragmentOrder walks every mismatch branch of the per-step
// comparison in its fixed order: refs, schema, lineage, nullability,
// distribution, predicates — and confirms the checks stop at the first
// disagreement.
func TestCompareFragmentOrder(t *testing.T) {
	mkRel := func() *absRel {
		return &absRel{
			dist: core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet(1)},
			cols: []absCol{
				{ID: 1, Type: types.KindInt, Origins: map[string]struct{}{"t.a": {}}},
				{ID: 2, Type: types.KindFloat, Nullable: true, Origins: map[string]struct{}{"t.b": {}}},
			},
		}
	}
	mkAcc := func(tables, temps []string, preds ...string) *fragAcc {
		a := newFragAcc()
		for _, tb := range tables {
			a.tables[tb] = struct{}{}
		}
		for _, tp := range temps {
			a.temps[tp] = struct{}{}
		}
		a.preds = preds
		return a
	}
	baseAcc := func() *fragAcc { return mkAcc([]string{"lineitem"}, []string{"TEMP_1"}, "(c1 = 1)") }

	run := func(where core.DistKind, pr, sr *absRel, pa, sa *fragAcc) (planverify.Code, bool) {
		pi := newPlanInterp()
		clean := compareFragment(pi, where, mkRel().dist, pr, pa, sr, sa)
		if clean {
			return "", true
		}
		if len(pi.vs) != 1 {
			t.Fatalf("expected exactly one violation, got %v", pi.vs)
		}
		return pi.vs[0].Code, false
	}

	// Clean baseline.
	if code, clean := run(core.DistHash, mkRel(), mkRel(), baseAcc(), baseAcc()); !clean {
		t.Fatalf("clean fragment rejected: %s", code)
	}

	// Base table set differs.
	if code, _ := run(core.DistHash, mkRel(), mkRel(),
		baseAcc(), mkAcc([]string{"orders"}, []string{"TEMP_1"}, "(c1 = 1)")); code != CodeRefs {
		t.Errorf("table diff code = %s", code)
	}
	// Temp set differs.
	if code, _ := run(core.DistHash, mkRel(), mkRel(),
		baseAcc(), mkAcc([]string{"lineitem"}, nil, "(c1 = 1)")); code != CodeRefs {
		t.Errorf("temp diff code = %s", code)
	}
	// Column count differs.
	short := mkRel()
	short.cols = short.cols[:1]
	if code, _ := run(core.DistHash, mkRel(), short, baseAcc(), baseAcc()); code != CodeSchema {
		t.Errorf("arity diff code = %s", code)
	}
	// Column identity differs.
	renamed := mkRel()
	renamed.cols[1].ID = 9
	if code, _ := run(core.DistHash, mkRel(), renamed, baseAcc(), baseAcc()); code != CodeSchema {
		t.Errorf("identity diff code = %s", code)
	}
	// Column type differs.
	retyped := mkRel()
	retyped.cols[0].Type = types.KindString
	if code, _ := run(core.DistHash, mkRel(), retyped, baseAcc(), baseAcc()); code != CodeSchema {
		t.Errorf("type diff code = %s", code)
	}
	// A NULL-typed side is compatible with anything (bare NULL literal).
	nullTyped := mkRel()
	nullTyped.cols[0].Type = types.KindNull
	if code, clean := run(core.DistHash, mkRel(), nullTyped, baseAcc(), baseAcc()); !clean {
		t.Errorf("NULL-typed column rejected: %s", code)
	}
	// Lineage differs (same names count, different member).
	relabeled := mkRel()
	relabeled.cols[0].Origins = map[string]struct{}{"t.z": {}}
	if code, _ := run(core.DistHash, mkRel(), relabeled, baseAcc(), baseAcc()); code != CodeLineage {
		t.Errorf("lineage diff code = %s", code)
	}
	// Nullability differs.
	nn := mkRel()
	nn.cols[1].Nullable = false
	if code, _ := run(core.DistHash, mkRel(), nn, baseAcc(), baseAcc()); code != CodeNullability {
		t.Errorf("nullability diff code = %s", code)
	}
	// The step's execution placement disagrees with the fragment's
	// recorded one, whatever the two sides derive.
	if code, _ := run(core.DistReplicated, mkRel(), mkRel(), baseAcc(), baseAcc()); code != CodeDistribution {
		t.Errorf("where diff code = %s", code)
	}
	// Plan and SQL derive different hash classes.
	otherClass := mkRel()
	otherClass.dist.Cols = algebra.NewColSet(2)
	if code, _ := run(core.DistHash, mkRel(), otherClass, baseAcc(), baseAcc()); code != CodeDistribution {
		t.Errorf("class diff code = %s", code)
	}
	// Predicate multisets differ.
	if code, _ := run(core.DistHash, mkRel(), mkRel(),
		baseAcc(), mkAcc([]string{"lineitem"}, []string{"TEMP_1"}, "(c1 = 2)")); code != CodePredicate {
		t.Errorf("predicate diff code = %s", code)
	}
	// Same predicates, different order: the multiset comparison must not
	// care about conjunct order.
	pa := mkAcc([]string{"lineitem"}, nil, "(c1 = 1)", "(c2 = 2)")
	sa := mkAcc([]string{"lineitem"}, nil, "(c2 = 2)", "(c1 = 1)")
	if code, clean := run(core.DistHash, mkRel(), mkRel(), pa, sa); !clean {
		t.Errorf("order-insensitive predicates rejected: %s", code)
	}
}

// TestMoveStepBindFailure pins the bind-error path of a move step: SQL
// that parses but references an unknown base table is a refs violation.
func TestMoveStepBindFailure(t *testing.T) {
	pi, in := seeded(hashRel(1))
	pi.rels[in].cols[0].Origins = map[string]struct{}{"lineitem.l_orderkey": {}}
	mo := &core.Option{Move: &core.MoveSpec{Kind: cost.Broadcast},
		Inputs: []*core.Option{in}, Dist: core.Replicated()}
	si := &sqlInterp{shell: fuzzShell(), temps: map[string]*absRel{},
		slotKinds: map[int]types.Kind{}}
	checkMoveStep(pi, si, dsql.Step{Kind: dsql.StepMove, Dest: "T",
		SQL: "SELECT T1.[no_such_col] AS c1 FROM [dbo].[ghost] AS T1"}, mo)
	if len(pi.vs) != 1 || pi.vs[0].Code != CodeRefs {
		t.Fatalf("violations = %v", pi.vs)
	}
	if !strings.Contains(pi.vs[0].Detail, "re-bind") {
		t.Errorf("detail = %s", pi.vs[0].Detail)
	}
}
