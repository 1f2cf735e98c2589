// Package transval implements translation validation of generated DSQL
// (paper §2.4/§3.4 boundary): the plan-to-SQL hop is the one compilation
// stage the memo checker cannot see, so every emitted step is re-parsed
// through the SQL front-end and re-interpreted abstractly, and the result
// is compared against an equally abstract interpretation of the plan
// fragment that produced it.
//
// Both sides run the same three abstract domains independently:
//
//   - column lineage — which base table columns each intermediate column
//     descends from (exposed through Lineage);
//   - nullability — three-valued-logic aware: outer joins introduce NULLs,
//     comparisons and IS NOT NULL filters kill them, matching the vec
//     engine's NULL-mask conventions;
//   - distribution — each intermediate's placement derived from base table
//     metadata and move kinds by planverify's placement rules, the one
//     statement of them the plan layer also checks.
//
// A disagreement on any domain, on referenced tables/temps, or on the
// canonicalized predicate multiset is a typed planverify.Violation, and
// so is a step whose recorded execution placement is not the recorded
// placement of the fragment it runs, or whose move kind or routing column
// is not its plan move's. Whether the recorded placements follow from
// each other is planverify.CheckPlan's. Checks run per step in a fixed
// order and stop at the first mismatch for that step, so a single seeded
// defect yields a single, precisely-coded violation.
package transval

import (
	"errors"
	"fmt"

	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/planverify"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// Violation codes for the plan-to-SQL translation validator.
const (
	// CodeReparse: a step's SQL does not re-parse through the front-end.
	CodeReparse planverify.Code = "transval-reparse"
	// CodeRefs: the step references different base tables or temp tables
	// than its plan fragment, its SQL does not re-bind, or the step list
	// does not line up with the plan's moves (count, kind, routing column).
	CodeRefs planverify.Code = "transval-refs"
	// CodeSchema: the step's derived output schema (column identities and
	// types, in order) differs from the plan fragment's.
	CodeSchema planverify.Code = "transval-schema"
	// CodeLineage: a column's base-table origin set differs between the
	// re-parsed SQL and the plan fragment.
	CodeLineage planverify.Code = "transval-lineage"
	// CodeNullability: the 3VL nullability derivation disagrees between
	// the two sides for some output column.
	CodeNullability planverify.Code = "transval-nullability"
	// CodeDistribution: the SQL side derives a different placement than
	// the plan side, or the step's recorded execution placement is not
	// the recorded placement of the fragment it runs.
	CodeDistribution planverify.Code = "transval-distribution"
	// CodePredicate: the canonicalized predicate multisets differ.
	CodePredicate planverify.Code = "transval-predicate"
)

// Check validates every DSQL step of a generated plan against the plan
// fragment it was cut from and returns the violations found. It is
// side-effect free and safe on partial inputs (nil plan or empty step list
// yields no violations).
func Check(plan *core.Plan, dp *dsql.Plan, shell *catalog.Shell) []planverify.Violation {
	if plan == nil || plan.Root == nil || dp == nil || len(dp.Steps) == 0 || shell == nil {
		return nil
	}
	pi := newPlanInterp()
	pi.collectSlotKinds(plan.Root)

	moves := cutMoves(plan.Root)
	if len(dp.Steps) != len(moves)+1 {
		return []planverify.Violation{{
			Code: CodeRefs, Step: -1, Group: -1,
			Detail: fmt.Sprintf("plan cuts into %d move steps + return but DSQL has %d steps",
				len(moves), len(dp.Steps)),
		}}
	}
	for i, mo := range moves {
		st := dp.Steps[i]
		if st.Kind != dsql.StepMove || st.Dest == "" {
			return []planverify.Violation{{
				Code: CodeRefs, Step: i, Group: -1,
				Detail: "step does not line up with a plan move boundary",
			}}
		}
		// A missing or stray routing column is step shape, CheckDSQL's.
		hashing := mo.Move.Kind == cost.Shuffle || mo.Move.Kind == cost.Trim
		if st.MoveKind != mo.Move.Kind || hashing && st.HashCol != "" && st.HashCol != fmt.Sprintf("c%d", mo.Move.Col) {
			return []planverify.Violation{{
				Code: CodeRefs, Step: i, Group: -1,
				Detail: fmt.Sprintf("step moves by %v on %q but its plan move is %s", st.MoveKind, st.HashCol, mo.Move),
			}}
		}
		pi.moveDest[mo] = st.Dest
	}
	if dp.Steps[len(dp.Steps)-1].Kind != dsql.StepReturn {
		return []planverify.Violation{{
			Code: CodeRefs, Step: len(dp.Steps) - 1, Group: -1,
			Detail: "final DSQL step is not a Return step",
		}}
	}

	si := &sqlInterp{shell: shell, temps: map[string]*absRel{}, slotKinds: pi.slotKinds}
	for i, st := range dp.Steps {
		pi.step = i
		if st.Kind == dsql.StepMove {
			checkMoveStep(pi, si, st, moves[i])
			// Register the validated boundary state — the plan side's view
			// of the moved rows — so later steps interpret this temp
			// independently of whether this step itself was clean.
			src := pi.rel(moves[i])
			si.temps[st.Dest] = src
		} else {
			checkReturnStep(pi, si, st, plan, dp)
		}
	}
	pi.step = -1
	return pi.vs
}

// cutMoves lists the plan's move boundaries in DSQL emission order,
// mirroring the generator: a move's source fragment is emitted (and any
// moves inside it recursed into) before the move itself, shared moves are
// emitted once, and siblings go left to right.
func cutMoves(root *core.Option) []*core.Option {
	var moves []*core.Option
	seen := map[*core.Option]bool{}
	var visit func(o *core.Option)
	visit = func(o *core.Option) {
		if o.Move != nil {
			if seen[o] {
				return
			}
			visit(o.Inputs[0])
			seen[o] = true
			moves = append(moves, o)
			return
		}
		for _, in := range o.Inputs {
			visit(in)
		}
	}
	visit(root)
	return moves
}

// reparse parses one step's SQL, recording a reparse violation on failure.
func reparse(pi *planInterp, sql string) (*sqlparser.SelectStmt, bool) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		var pe *sqlparser.ParseError
		if errors.As(err, &pe) {
			pi.violatef(CodeReparse, "step SQL does not re-parse at byte %d: %v", pe.Offset, err)
		} else {
			pi.violatef(CodeReparse, "step SQL does not re-parse: %v", err)
		}
		return nil, false
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		pi.violatef(CodeReparse, "step SQL is not a SELECT statement")
		return nil, false
	}
	return sel, true
}

func checkMoveStep(pi *planInterp, si *sqlInterp, st dsql.Step, mo *core.Option) {
	src := mo.Inputs[0]
	planRel := pi.rel(src)
	planAcc := newFragAcc()
	pi.collect(src, planAcc)

	sel, ok := reparse(pi, st.SQL)
	if !ok {
		return
	}
	si.acc = newFragAcc()
	sqlRel, err := si.selectRel(sel, nil, false, false)
	if err != nil {
		pi.violatef(CodeRefs, "step SQL does not re-bind: %v", err)
		return
	}
	compareFragment(pi, st.Where, src.Dist, planRel, planAcc, sqlRel, si.acc)
}

func checkReturnStep(pi *planInterp, si *sqlInterp, st dsql.Step, plan *core.Plan, dp *dsql.Plan) {
	planRel := pi.rel(plan.Root)
	planAcc := newFragAcc()
	pi.collect(plan.Root, planAcc)

	sel, ok := reparse(pi, st.SQL)
	if !ok {
		return
	}
	si.acc = newFragAcc()
	innerRel, outs, err := si.returnRel(sel)
	if err != nil {
		pi.violatef(CodeRefs, "return step SQL does not re-bind: %v", err)
		return
	}
	if !compareFragment(pi, st.Where, plan.Root.Dist, planRel, planAcc, innerRel, si.acc) {
		return
	}
	if len(outs) != len(dp.OutCols) {
		pi.violatef(CodeSchema, "return step selects %d columns but the plan's result schema has %d",
			len(outs), len(dp.OutCols))
		return
	}
	for i, o := range outs {
		want := dp.OutCols[i]
		if o.id != want.ID || o.name != want.Name {
			pi.violatef(CodeSchema, "return column %d is c%d AS %q but the result schema records c%d AS %q",
				i, o.id, o.name, want.ID, want.Name)
			return
		}
	}
}

// compareFragment runs the per-step checks in order — references, schema,
// lineage, nullability, distribution, predicates — stopping at the first
// mismatch. where is the placement the step records for its execution,
// recorded the one the plan records for the fragment. Returns true when
// the fragment is clean.
func compareFragment(pi *planInterp, where core.DistKind, recorded core.Distribution, planRel *absRel, planAcc *fragAcc, sqlRel *absRel, sqlAcc *fragAcc) bool {
	if !sameStringSet(planAcc.tables, sqlAcc.tables) {
		pi.violatef(CodeRefs, "base tables differ: plan references %v, SQL references %v",
			sortedKeys(planAcc.tables), sortedKeys(sqlAcc.tables))
		return false
	}
	if !sameStringSet(planAcc.temps, sqlAcc.temps) {
		pi.violatef(CodeRefs, "temp tables differ: plan references %v, SQL references %v",
			sortedKeys(planAcc.temps), sortedKeys(sqlAcc.temps))
		return false
	}

	if len(planRel.cols) != len(sqlRel.cols) {
		pi.violatef(CodeSchema, "plan fragment outputs %d columns, SQL outputs %d",
			len(planRel.cols), len(sqlRel.cols))
		return false
	}
	for i := range planRel.cols {
		p, s := planRel.cols[i], sqlRel.cols[i]
		if p.ID != s.ID {
			pi.violatef(CodeSchema, "column %d: plan derives c%d, SQL derives c%d", i, p.ID, s.ID)
			return false
		}
		// A bare NULL literal erases its column's type in SQL text (the
		// generator only casts NULLs in the empty-Values shape), so an
		// unknown kind on either side is compatible with anything.
		if p.Type != s.Type && p.Type != types.KindNull && s.Type != types.KindNull {
			pi.violatef(CodeSchema, "column c%d: plan derives type %s, SQL derives %s", p.ID, p.Type, s.Type)
			return false
		}
	}

	for i := range planRel.cols {
		p, s := planRel.cols[i], sqlRel.cols[i]
		if !sameStringSet(p.Origins, s.Origins) {
			pi.violatef(CodeLineage, "column c%d: plan lineage %v, SQL lineage %v",
				p.ID, sortedKeys(p.Origins), sortedKeys(s.Origins))
			return false
		}
	}

	for i := range planRel.cols {
		p, s := planRel.cols[i], sqlRel.cols[i]
		if p.Nullable != s.Nullable {
			pi.violatef(CodeNullability, "column c%d: plan derives nullable=%v, SQL derives nullable=%v",
				p.ID, p.Nullable, s.Nullable)
			return false
		}
	}

	if where != recorded.Kind {
		pi.violatef(CodeDistribution, "step records execution placement %s but the fragment it runs is placed %s",
			core.Distribution{Kind: where}, recorded)
		return false
	}
	if !planverify.SamePlacement(planRel.dist, sqlRel.dist) {
		pi.violatef(CodeDistribution, "plan derives placement %s, SQL derives %s", planRel.dist, sqlRel.dist)
		return false
	}

	pp, sp := planAcc.sortedPreds(), sqlAcc.sortedPreds()
	if !equalStrings(pp, sp) {
		pi.violatef(CodePredicate, "predicates differ: plan %v, SQL %v", pp, sp)
		return false
	}
	return true
}

func sameStringSet(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
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
