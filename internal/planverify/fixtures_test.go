// Package planverify_test exercises the verifier against real compiled
// plans: the clean TPC-H corpus must verify, and hand-mutated plans —
// a swapped move destination, a dangling temp-table reference, a
// dropped distribution enforcer — must each surface their distinct
// typed violation. XML memo fixtures under testdata cover the
// memo-side codes through the real decoder. TestMutationCodes runs every
// mutation fixture of this package and of transval through the check
// Options.Verify runs and pins the codes each one fires.
package planverify_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/planverify"
	"pdwqo/internal/planverify/transval"
)

var (
	dbOnce sync.Once
	dbVal  *pdwqo.DB
	dbErr  error
)

// sharedDB compiles against one appliance: with no plan cache, every
// Optimize call hands back private artifacts, so mutations cannot poison
// each other.
func sharedDB(t *testing.T) *pdwqo.DB {
	t.Helper()
	dbOnce.Do(func() { dbVal, dbErr = pdwqo.OpenTPCH(0.01, 4, 1) })
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbVal
}

// freshPlan compiles one TPC-H query; the caller owns the artifacts.
func freshPlan(t *testing.T, name string) *pdwqo.QueryPlan {
	t.Helper()
	sql, ok := pdwqo.TPCHQuery(name)
	if !ok {
		t.Fatalf("unknown query %s", name)
	}
	qp, err := sharedDB(t).Optimize(sql, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return qp
}

func checkAll(t *testing.T, qp *pdwqo.QueryPlan) *planverify.Report {
	return planverify.Check(planverify.Artifacts{
		Plan:  qp.Distributed,
		DSQL:  qp.DSQL,
		Shell: sharedDB(t).Shell(),
	})
}

// verifyCodes runs what Options.Verify runs over a plan's artifacts —
// planverify.Check, then transval.Check — and returns the codes fired,
// sorted and deduplicated.
func verifyCodes(t *testing.T, qp *pdwqo.QueryPlan) []planverify.Code {
	vs := checkAll(t, qp).Violations
	vs = append(vs, transval.Check(qp.Distributed, qp.DSQL, sharedDB(t).Shell())...)
	seen := map[planverify.Code]bool{}
	var codes []planverify.Code
	for _, v := range vs {
		if !seen[v.Code] {
			seen[v.Code] = true
			codes = append(codes, v.Code)
		}
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	return codes
}

// TestCleanPlansVerify pins the baseline the mutation tests perturb.
func TestCleanPlansVerify(t *testing.T) {
	for _, name := range []string{"q01", "q03", "q05", "q10"} {
		qp := freshPlan(t, name)
		if rep := checkAll(t, qp); !rep.OK() {
			t.Errorf("%s: clean plan rejected: %v", name, rep.Violations)
		}
	}
}

// --- Mutation fixtures: each compiles a plan and seeds one defect. ---

// findChainedMoves locates move steps i < j where step j's SQL reads
// step i's destination temp.
func findChainedMoves(steps []dsql.Step) (int, int, bool) {
	for i := range steps {
		if steps[i].Kind != dsql.StepMove || steps[i].Dest == "" {
			continue
		}
		for j := i + 1; j < len(steps); j++ {
			if steps[j].Kind == dsql.StepMove &&
				strings.Contains(steps[j].SQL, "[tempdb].["+steps[i].Dest+"]") {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// swapMoveDest swaps the destinations of a producer move and the
// downstream move that consumes it: the consumer then reads the temp it
// now claims to produce, a use-before-def.
func swapMoveDest(t *testing.T) *pdwqo.QueryPlan {
	for _, name := range pdwqo.TPCHQueryNames() {
		qp := freshPlan(t, name)
		steps := qp.DSQL.Steps
		if i, j, ok := findChainedMoves(steps); ok {
			steps[i].Dest, steps[j].Dest = steps[j].Dest, steps[i].Dest
			return qp
		}
	}
	t.Fatal("no TPC-H query with chained move steps")
	return nil
}

// danglingTemp rewrites one temp-table reference to a name no step
// produces.
func danglingTemp(t *testing.T) *pdwqo.QueryPlan {
	for _, name := range pdwqo.TPCHQueryNames() {
		qp := freshPlan(t, name)
		for k := range qp.DSQL.Steps {
			s := &qp.DSQL.Steps[k]
			if idx := strings.Index(s.SQL, "[tempdb].[TEMP_ID_"); idx >= 0 {
				end := strings.IndexByte(s.SQL[idx:], ']') + idx
				s.SQL = s.SQL[:idx] + "[tempdb].[TEMP_ID_999" + s.SQL[end:]
				return qp
			}
		}
	}
	t.Fatal("no TPC-H query referencing a temp table")
	return nil
}

// dropEnforcer splices out the first data movement under a join whose
// removal leaves the join uncollocated, undoing the enforcer the
// optimizer inserted to make the join distribution-correct.
func dropEnforcer(t *testing.T) *pdwqo.QueryPlan {
	for _, name := range pdwqo.TPCHQueryNames() {
		qp := freshPlan(t, name)
		var joins []*core.Option
		seen := map[*core.Option]bool{}
		var walk func(o *core.Option)
		walk = func(o *core.Option) {
			if o == nil || seen[o] {
				return
			}
			seen[o] = true
			if _, isJoin := o.Op.(*algebra.Join); isJoin {
				joins = append(joins, o)
			}
			for _, in := range o.Inputs {
				walk(in)
			}
		}
		walk(qp.Distributed.Root)
		for _, j := range joins {
			for idx, in := range j.Inputs {
				if in.Move == nil {
					continue
				}
				j.Inputs[idx] = in.Inputs[0] // drop the enforcer
				if hasCode(planverify.CheckPlan(qp.Distributed), planverify.CodeJoinNotCollocated) {
					return qp
				}
				j.Inputs[idx] = in // restore for the next candidate
			}
		}
	}
	t.Fatal("no dropped enforcer produced a collocation violation")
	return nil
}

// findSplitTriple locates a finalizing GroupBy option, the movement
// below it, and the partial GroupBy option at its base.
func findSplitTriple(p *core.Plan) (final, move, partial *core.Option, ok bool) {
	seen := map[*core.Option]bool{}
	var walk func(o *core.Option)
	walk = func(o *core.Option) {
		if o == nil || seen[o] || ok {
			return
		}
		seen[o] = true
		if gb, isGB := o.Op.(*algebra.GroupBy); isGB && gb.Phase == algebra.AggFinal {
			if m := o.Inputs[0]; m.Move != nil {
				if pgb, isP := m.Inputs[0].Op.(*algebra.GroupBy); isP && pgb.Phase == algebra.AggPartial {
					final, move, partial, ok = o, m, m.Inputs[0], true
					return
				}
			}
		}
		for _, in := range o.Inputs {
			walk(in)
		}
	}
	walk(p.Root)
	return final, move, partial, ok
}

// splitPlan compiles TPC-H queries until one's winning plan carries a
// partial/final split, handing the triple to a mutation.
func splitPlan(t *testing.T) (*pdwqo.QueryPlan, *core.Option, *core.Option, *core.Option) {
	t.Helper()
	for _, name := range pdwqo.TPCHQueryNames() {
		qp := freshPlan(t, name)
		if final, move, partial, ok := findSplitTriple(qp.Distributed); ok {
			return qp, final, move, partial
		}
	}
	t.Fatal("no TPC-H winning plan adopts the aggregate split")
	return nil, nil, nil, nil
}

// aggKeysMismatch drops the finalizer's last grouping key so the pair no
// longer groups identically.
func aggKeysMismatch(t *testing.T) *pdwqo.QueryPlan {
	qp, final, _, _ := splitPlan(t)
	gb := final.Op.(*algebra.GroupBy)
	if len(gb.Keys) == 0 {
		t.Skip("keyless split chosen; keys mutation does not apply")
	}
	gb.Keys = gb.Keys[:len(gb.Keys)-1]
	return qp
}

// aggStateColumn points one finalizer at a column that is not its
// partner's state column.
func aggStateColumn(t *testing.T) *pdwqo.QueryPlan {
	qp, final, _, partial := splitPlan(t)
	fgb := final.Op.(*algebra.GroupBy)
	wrong := partial.Op.(*algebra.GroupBy).Aggs[0].ID + 7777
	fgb.Aggs[0].Arg = algebra.NewColRef(algebra.ColumnMeta{ID: wrong, Name: "stray"})
	return qp
}

// aggMergeFunc swaps a finalizer's merge function for one that cannot
// merge its partner's state (MIN over a COUNT/SUM state, or SUM over a
// MIN/MAX state).
func aggMergeFunc(t *testing.T) *pdwqo.QueryPlan {
	qp, final, _, _ := splitPlan(t)
	fgb := final.Op.(*algebra.GroupBy)
	if fgb.Aggs[0].Func == algebra.AggSum {
		fgb.Aggs[0].Func = algebra.AggMin
	} else {
		fgb.Aggs[0].Func = algebra.AggSum
	}
	return qp
}

// aggFinalOverComplete relabels the partial as a complete aggregation:
// the finalizer then merges already-final values.
func aggFinalOverComplete(t *testing.T) *pdwqo.QueryPlan {
	qp, _, _, partial := splitPlan(t)
	partial.Op.(*algebra.GroupBy).Phase = algebra.AggComplete
	return qp
}

// aggPartialOrphan relabels the finalizer as a complete aggregation,
// leaving the partial's per-node states unmerged.
func aggPartialOrphan(t *testing.T) *pdwqo.QueryPlan {
	qp, final, _, _ := splitPlan(t)
	final.Op.(*algebra.GroupBy).Phase = algebra.AggComplete
	return qp
}

// aggSpliceMove removes the movement between the pair, so the finalizer
// merges states that never left their producing nodes.
func aggSpliceMove(t *testing.T) *pdwqo.QueryPlan {
	qp, final, move, _ := splitPlan(t)
	final.Inputs[0] = move.Inputs[0]
	return qp
}

// flipRecordedPlacement flips the optimizer's recorded placement on q01's
// winning root option, keeping the return step's placement note in line
// with it: the root no longer records what its inputs give.
func flipRecordedPlacement(t *testing.T) *pdwqo.QueryPlan {
	qp := freshPlan(t, "q01")
	root := qp.Distributed.Root
	root.Dist.Kind = (root.Dist.Kind + 1) % 3
	if root.Dist.Kind == core.DistHash && len(root.Dist.Cols) == 0 {
		root.Dist.Kind++ // an empty hash class is not a representable flip
	}
	qp.DSQL.Steps[len(qp.DSQL.Steps)-1].Where = root.Dist.Kind
	return qp
}

// relabelShuffleStep relabels q01's Shuffle step as a Broadcast: the step
// list's movements no longer match the plan tree's.
func relabelShuffleStep(t *testing.T) *pdwqo.QueryPlan {
	qp := freshPlan(t, "q01")
	s := &qp.DSQL.Steps[0]
	if s.MoveKind != cost.Shuffle {
		t.Fatalf("q01 step 0 moves by %v, want a Shuffle", s.MoveKind)
	}
	s.MoveKind, s.HashCol = cost.Broadcast, ""
	return qp
}

// editSQL rewrites the first occurrence of old in a step's SQL and fails
// the test if the pattern is not present (the fixture would be vacuous).
func editSQL(t *testing.T, query string, step int, old, new string) *pdwqo.QueryPlan {
	qp := freshPlan(t, query)
	if step < 0 {
		step += len(qp.DSQL.Steps)
	}
	sql := qp.DSQL.Steps[step].SQL
	if !strings.Contains(sql, old) {
		t.Fatalf("%s step %d SQL does not contain %q:\n%s", query, step, old, sql)
	}
	qp.DSQL.Steps[step].SQL = strings.Replace(sql, old, new, 1)
	return qp
}

func TestMutationSwapMoveDest(t *testing.T) {
	if rep := checkAll(t, swapMoveDest(t)); !rep.Has(planverify.CodeTempUseBeforeDef) {
		t.Fatalf("swapped move destinations not caught: %v", rep.Violations)
	}
}

func TestMutationDanglingTemp(t *testing.T) {
	if rep := checkAll(t, danglingTemp(t)); !rep.Has(planverify.CodeTempUnknown) {
		t.Fatalf("dangling temp reference not caught: %v", rep.Violations)
	}
}

// TestMutationDropEnforcer: the fixture itself searches for the dropped
// enforcer CheckPlan reports as a collocation violation.
func TestMutationDropEnforcer(t *testing.T) {
	dropEnforcer(t)
}

func TestMutationAggKeysMismatch(t *testing.T) {
	if vs := planverify.CheckPlan(aggKeysMismatch(t).Distributed); !hasCode(vs, planverify.CodeAggSplitMismatch) {
		t.Fatalf("dropped finalizer key not caught: %v", vs)
	}
}

func TestMutationAggStateColumn(t *testing.T) {
	if vs := planverify.CheckPlan(aggStateColumn(t).Distributed); !hasCode(vs, planverify.CodeAggSplitMismatch) {
		t.Fatalf("rerouted state column not caught: %v", vs)
	}
}

func TestMutationAggMergeFunc(t *testing.T) {
	if vs := planverify.CheckPlan(aggMergeFunc(t).Distributed); !hasCode(vs, planverify.CodeAggSplitMismatch) {
		t.Fatalf("wrong merge function not caught: %v", vs)
	}
}

func TestMutationAggFinalOverComplete(t *testing.T) {
	if vs := planverify.CheckPlan(aggFinalOverComplete(t).Distributed); !hasCode(vs, planverify.CodeAggFinalInput) {
		t.Fatalf("finalizer over complete input not caught: %v", vs)
	}
}

func TestMutationAggPartialOrphan(t *testing.T) {
	if vs := planverify.CheckPlan(aggPartialOrphan(t).Distributed); !hasCode(vs, planverify.CodeAggPartialOrphan) {
		t.Fatalf("orphaned partial aggregation not caught: %v", vs)
	}
}

func TestMutationAggSpliceMove(t *testing.T) {
	if vs := planverify.CheckPlan(aggSpliceMove(t).Distributed); !hasCode(vs, planverify.CodeAggFinalInput) {
		t.Fatalf("spliced-out movement not caught: %v", vs)
	}
}

// TestMutationDistributionRecorded: a recorded placement its inputs do
// not give is the plan layer's placement-mismatch, and only that.
func TestMutationDistributionRecorded(t *testing.T) {
	vs := checkAll(t, flipRecordedPlacement(t)).Violations
	if len(vs) != 1 || vs[0].Code != planverify.CodePlacementMismatch {
		t.Fatalf("flipped root placement: %v", vs)
	}
}

// TestDSQLMoveSetMismatch: a step list whose movements differ from the
// plan tree's is caught by transval's step ↔ move alignment.
func TestDSQLMoveSetMismatch(t *testing.T) {
	qp := relabelShuffleStep(t)
	vs := transval.Check(qp.Distributed, qp.DSQL, sharedDB(t).Shell())
	if len(vs) != 1 || vs[0].Code != transval.CodeRefs || vs[0].Step != 0 {
		t.Fatalf("relabelled move step: %v", vs)
	}
}

// TestMutationCodes runs every mutation fixture of this package and of
// transval's mutation_test.go through planverify.Check + transval.Check,
// the check Options.Verify runs, and pins the set of codes each fires.
// Every fixture must be caught, and a defect of placement fires one code.
func TestMutationCodes(t *testing.T) {
	const (
		refs      = transval.CodeRefs
		useBefore = planverify.CodeTempUseBeforeDef
		unknown   = planverify.CodeTempUnknown
		orphan    = planverify.CodeTempOrphan
	)
	q01Last := -1
	cases := []struct {
		name  string
		build func(*testing.T) *pdwqo.QueryPlan
		want  []planverify.Code
	}{
		// planverify's fixtures.
		{"swap-move-dest", swapMoveDest, []planverify.Code{useBefore, refs}},
		{"dangling-temp", danglingTemp, []planverify.Code{orphan, unknown}},
		{"drop-enforcer", dropEnforcer, []planverify.Code{planverify.CodeJoinNotCollocated, refs}},
		{"agg-keys", aggKeysMismatch, []planverify.Code{planverify.CodeAggSplitMismatch, transval.CodeLineage}},
		{"agg-state-column", aggStateColumn, []planverify.Code{planverify.CodeAggSplitMismatch, transval.CodeLineage}},
		{"agg-merge-func", aggMergeFunc, []planverify.Code{planverify.CodeAggSplitMismatch}},
		{"agg-final-over-complete", aggFinalOverComplete, []planverify.Code{planverify.CodeAggFinalInput, planverify.CodeGroupByPlacement}},
		{"agg-partial-orphan", aggPartialOrphan, []planverify.Code{planverify.CodeAggPartialOrphan}},
		{"agg-splice-move", aggSpliceMove, []planverify.Code{planverify.CodeAggFinalInput, planverify.CodeGroupByPlacement, refs}},
		{"flip-recorded-placement", flipRecordedPlacement, []planverify.Code{planverify.CodePlacementMismatch}},
		{"relabel-shuffle-step", relabelShuffleStep, []planverify.Code{refs}},
		// transval's fixtures (mutation_test.go), one per domain.
		{"reparse", func(t *testing.T) *pdwqo.QueryPlan { return editSQL(t, "q01", 0, "SELECT", "SELEC T") },
			[]planverify.Code{transval.CodeReparse}},
		{"refs", func(t *testing.T) *pdwqo.QueryPlan {
			return editSQL(t, "q01", q01Last, "[tempdb].[TEMP_ID_1]", "[tempdb].[TEMP_ID_9]")
		}, []planverify.Code{orphan, unknown, refs}},
		{"schema", func(t *testing.T) *pdwqo.QueryPlan {
			return editSQL(t, "q01", q01Last, "AS [l_returnflag]", "AS [mutant]")
		}, []planverify.Code{transval.CodeSchema}},
		{"lineage", func(t *testing.T) *pdwqo.QueryPlan {
			return editSQL(t, "q01", 0, "T1.[l_discount] AS c7", "T1.[l_tax] AS c7")
		}, []planverify.Code{transval.CodeLineage}},
		{"nullability", func(t *testing.T) *pdwqo.QueryPlan {
			qp := freshPlan(t, "q05")
			sql := qp.DSQL.Steps[0].SQL
			i := strings.LastIndex(sql, " INNER JOIN ")
			if i < 0 {
				t.Fatalf("no INNER JOIN in q05 step 0:\n%s", sql)
			}
			qp.DSQL.Steps[0].SQL = sql[:i] + " LEFT JOIN " + sql[i+len(" INNER JOIN "):]
			return qp
		}, []planverify.Code{transval.CodeNullability}},
		{"flip-step-placement", func(t *testing.T) *pdwqo.QueryPlan {
			qp := freshPlan(t, "q01")
			qp.DSQL.Steps[0].Where = (qp.DSQL.Steps[0].Where + 1) % 3
			return qp
		}, []planverify.Code{transval.CodeDistribution}},
		{"return-reparse", func(t *testing.T) *pdwqo.QueryPlan { return editSQL(t, "q01", q01Last, "SELECT", "SELEC T") },
			[]planverify.Code{transval.CodeReparse}},
		{"return-arity", func(t *testing.T) *pdwqo.QueryPlan {
			return editSQL(t, "q01", q01Last, "T6.c9 AS [l_returnflag],", "T6.c9 AS [l_returnflag], T6.c9 AS [l_returnflag],")
		}, []planverify.Code{transval.CodeSchema}},
		{"predicate", func(t *testing.T) *pdwqo.QueryPlan { return editSQL(t, "q01", 0, "(T2.c11 <= ", "(T2.c11 < ") },
			[]planverify.Code{transval.CodePredicate}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := append([]planverify.Code(nil), c.want...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if got := verifyCodes(t, c.build(t)); !equalCodes(got, want) {
				t.Errorf("fires %v, want %v", got, want)
			}
		})
	}
}

func equalCodes(a, b []planverify.Code) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasCode(vs []planverify.Violation, code planverify.Code) bool {
	for _, v := range vs {
		if v.Code == code {
			return true
		}
	}
	return false
}

// TestMemoFixtures decodes the hand-written bad memos through the real
// decoder and checks each yields its expected codes.
func TestMemoFixtures(t *testing.T) {
	shell := catalog.NewShell(2)
	cases := []struct {
		file string
		want []planverify.Code
	}{
		{"memo_bad_estimate.xml", []planverify.Code{planverify.CodeMemoEstimate}},
		{"memo_double_winner.xml", []planverify.Code{planverify.CodeWinnerDuplicate}},
		{"memo_winner_dangling.xml", []planverify.Code{
			planverify.CodeWinnerDangling, planverify.CodeMemoEmptyGroup}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := memoxml.Decode(data, shell)
			if err != nil {
				t.Fatalf("fixture must survive decode (only planverify may reject it): %v", err)
			}
			vs := planverify.CheckMemo(dec)
			for _, want := range c.want {
				if !hasCode(vs, want) {
					t.Errorf("missing %s in %v", want, vs)
				}
			}
		})
	}
}

// TestOptimizeVerifyOption exercises the public wiring: Verify on a
// healthy query succeeds, and the typed error shape is recoverable.
func TestOptimizeVerifyOption(t *testing.T) {
	sql, _ := pdwqo.TPCHQuery("q05")
	if _, err := sharedDB(t).Optimize(sql, pdwqo.Options{Verify: true}); err != nil {
		t.Fatalf("verified optimize failed: %v", err)
	}
}
