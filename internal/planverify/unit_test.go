package planverify

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// --- builders ---

func cols(ids ...algebra.ColumnID) []algebra.ColumnMeta {
	out := make([]algebra.ColumnMeta, len(ids))
	for i, id := range ids {
		out[i] = algebra.ColumnMeta{ID: id, Name: "", Type: types.KindInt}
	}
	return out
}

func relOpt(op algebra.Operator, dist core.Distribution, out []algebra.ColumnMeta, inputs ...*core.Option) *core.Option {
	o := &core.Option{Op: op, Inputs: inputs, Dist: dist, Rows: 10, Width: 8, OutCols: out}
	for _, in := range inputs {
		o.DMSCost += in.DMSCost
	}
	return o
}

func moveOpt(kind cost.MoveKind, col algebra.ColumnID, dist core.Distribution, in *core.Option) *core.Option {
	return &core.Option{
		Move:    &core.MoveSpec{Kind: kind, Col: col},
		Inputs:  []*core.Option{in},
		Dist:    dist,
		Rows:    in.Rows,
		Width:   in.Width,
		OutCols: in.OutCols,
		DMSCost: in.DMSCost + 1,
	}
}

func eq(a, b algebra.ColumnID) algebra.Scalar {
	return &algebra.Binary{
		Op: sqlparser.OpEq,
		L:  &algebra.ColRef{ID: a, Meta: algebra.ColumnMeta{ID: a, Type: types.KindInt}},
		R:  &algebra.ColRef{ID: b, Meta: algebra.ColumnMeta{ID: b, Type: types.KindInt}},
	}
}

// hashTable is hash-distributed on its column "k".
var hashTable = &catalog.Table{
	Name:    "t",
	Columns: []catalog.Column{{Name: "k", Type: types.KindInt}},
	Dist:    catalog.Distribution{Kind: catalog.DistHash, Column: "k"},
}

// baseHash scans hashTable, minting ids[0] for its distribution column
// and the rest for further columns.
func baseHash(ids ...algebra.ColumnID) *core.Option {
	out := cols(ids...)
	out[0].Name = "k"
	return relOpt(&algebra.Get{Table: hashTable, Cols: out}, core.HashOn(ids[0]), out)
}

// baseRepl is a replicated literal relation.
func baseRepl(ids ...algebra.ColumnID) *core.Option {
	return relOpt(&algebra.Values{Cols: cols(ids...)}, core.Replicated(), cols(ids...))
}

// baseSingle is baseHash(id) gathered onto the control node.
func baseSingle(id algebra.ColumnID) *core.Option {
	return moveOpt(cost.PartitionMove, 0, core.Single(), baseHash(id))
}

func codesOf(vs []Violation) map[Code]int {
	out := map[Code]int{}
	for _, v := range vs {
		out[v.Code]++
	}
	return out
}

func wantCode(t *testing.T, vs []Violation, code Code) {
	t.Helper()
	if codesOf(vs)[code] == 0 {
		t.Fatalf("expected %s, got %v", code, vs)
	}
}

// wantOnly demands exactly one violation, carrying code.
func wantOnly(t *testing.T, vs []Violation, code Code) {
	t.Helper()
	if len(vs) != 1 || vs[0].Code != code {
		t.Fatalf("expected exactly one %s, got %v", code, vs)
	}
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Fatalf("expected clean, got %v", vs)
	}
}

// --- The placement rules ---

// TestPlacementRules pins placement.go, the one statement of the
// placement rules: each cell is the placement a rule gives, rendered, or
// the code of the rule that rejects its inputs.
func TestPlacementRules(t *testing.T) {
	render := func(d core.Distribution, code Code) string {
		if code != "" {
			return string(code)
		}
		return d.String()
	}
	h1, h2, h12 := core.HashOn(1), core.HashOn(2), core.HashOn(1, 2)
	unknown := core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet()}
	rep, one := core.Replicated(), core.Single()
	const (
		jp = string(CodeJoinPlacement)
		nc = string(CodeJoinNotCollocated)
		gp = string(CodeGroupByPlacement)
		up = string(CodeUnionPlacement)
		ms = string(CodeMoveSource)
		mo = string(CodeMalformedOption)
	)
	all := func(s string) [6]string { return [6]string{s, s, s, s, s, s} }

	// Joins: every (left, right) placement pair under every join kind,
	// with the condition c1 = c2 (collocating hash(c1) ⋈ hash(c2)) and
	// with no equality at all.
	kinds := []algebra.JoinKind{algebra.JoinInner, algebra.JoinCross, algebra.JoinLeftOuter,
		algebra.JoinFullOuter, algebra.JoinSemi, algebra.JoinAnti}
	eq12 := [][2]algebra.ColumnID{{1, 2}}
	joins := []struct {
		l, r  core.Distribution
		pairs [][2]algebra.ColumnID
		want  [6]string // inner, cross, left, full, semi, anti
	}{
		{h1, h2, eq12, [6]string{"hash(c1,c2)", "hash(c1)", "hash(c1)", "hash(c1)", "hash(c1)", "hash(c1)"}},
		{h1, h2, nil, all(nc)},
		{h1, rep, eq12, [6]string{"hash(c1,c2)", "hash(c1)", "hash(c1)", jp, "hash(c1)", "hash(c1)"}},
		{h1, rep, nil, [6]string{"hash(c1)", "hash(c1)", "hash(c1)", jp, "hash(c1)", "hash(c1)"}},
		{rep, h2, eq12, [6]string{"hash(c1,c2)", "hash(c2)", jp, jp, jp, jp}},
		{rep, h2, nil, [6]string{"hash(c2)", "hash(c2)", jp, jp, jp, jp}},
		{rep, rep, eq12, all("replicated")},
		{rep, rep, nil, all("replicated")},
		{one, one, eq12, all("single-node")},
		{one, one, nil, all("single-node")},
		{h1, one, eq12, all(jp)},
		{h1, one, nil, all(jp)},
		{one, h2, eq12, all(jp)},
		{one, h2, nil, all(jp)},
		{rep, one, eq12, all(jp)},
		{rep, one, nil, all(jp)},
		{one, rep, eq12, all(jp)},
		{one, rep, nil, all(jp)},
	}
	for _, c := range joins {
		for i, k := range kinds {
			if got := render(JoinPlacement(k, c.pairs, c.l, c.r)); got != c.want[i] {
				t.Errorf("%v join of %s and %s on %v = %s, want %s", k, c.l, c.r, c.pairs, got, c.want[i])
			}
		}
	}

	// Group-by: phase × how the keys meet the input's hash class.
	phases := []algebra.AggPhase{algebra.AggComplete, algebra.AggPartial, algebra.AggFinal}
	gbs := []struct {
		in   core.Distribution
		keys []algebra.ColumnID
		want [3]string // complete, partial, final
	}{
		{h1, []algebra.ColumnID{1, 2}, [3]string{"hash(c1)", "hash(c1)", "hash(c1)"}},
		{h12, []algebra.ColumnID{2, 3}, [3]string{"hash(c2)", "hash(c2)", "hash(c2)"}},
		{h1, []algebra.ColumnID{2}, [3]string{gp, "distributed(?)", gp}},
		{h1, nil, [3]string{gp, "distributed(?)", gp}},
		{unknown, []algebra.ColumnID{1}, [3]string{gp, "distributed(?)", gp}},
		{rep, []algebra.ColumnID{2}, [3]string{"replicated", "replicated", "replicated"}},
		{one, nil, [3]string{"single-node", "single-node", "single-node"}},
	}
	for _, c := range gbs {
		for i, ph := range phases {
			op := &algebra.GroupBy{Keys: c.keys, Phase: ph}
			if got := render(groupByPlacement(op, c.in)); got != c.want[i] {
				t.Errorf("phase %v group-by on %v over %s = %s, want %s", ph, c.keys, c.in, got, c.want[i])
			}
		}
	}

	// Union: every kind pair, and hash classes that share a column, share
	// none (rejected, as the enumerator does), or are both unknown.
	unions := []struct {
		l, r core.Distribution
		want string
	}{
		{h1, h1, "hash(c1)"},
		{h12, core.HashOn(2, 3), "hash(c2)"},
		{h1, h2, up},
		{unknown, unknown, "distributed(?)"},
		{unknown, h1, up},
		{rep, rep, "replicated"},
		{one, one, "single-node"},
		{h1, rep, up},
		{rep, h1, up},
		{h1, one, up},
		{one, h1, up},
		{rep, one, up},
		{one, rep, up},
	}
	for _, c := range unions {
		if got := render(UnionPlacement(c.l, c.r)); got != c.want {
			t.Errorf("union of %s and %s = %s, want %s", c.l, c.r, got, c.want)
		}
	}

	// Moves: kind × source placement.
	sources := []core.Distribution{h1, rep, one}
	moves := []struct {
		kind cost.MoveKind
		want [3]string // from hash(c1), replicated, single-node
	}{
		{cost.Shuffle, [3]string{"hash(c5)", ms, ms}},
		{cost.Broadcast, [3]string{"replicated", ms, ms}},
		{cost.PartitionMove, [3]string{"single-node", ms, ms}},
		{cost.Trim, [3]string{ms, "hash(c5)", ms}},
		{cost.ReplicatedBroadcast, [3]string{ms, "replicated", ms}},
		{cost.RemoteCopySingle, [3]string{ms, "single-node", ms}},
		{cost.ControlNodeMove, [3]string{ms, ms, "replicated"}},
		{cost.MoveKind(200), [3]string{mo, mo, mo}},
	}
	for _, c := range moves {
		for i, src := range sources {
			if got := render(movePlacement(core.MoveSpec{Kind: c.kind, Col: 5}, src)); got != c.want[i] {
				t.Errorf("%v over %s = %s, want %s", c.kind, src, got, c.want[i])
			}
		}
	}

	// Whole options: scans read the table metadata, and every result is
	// restricted to the option's output columns.
	replTable := &catalog.Table{Name: "r", Dist: catalog.Distribution{Kind: catalog.DistReplicated}}
	ref := func(id algebra.ColumnID) algebra.Scalar { return algebra.NewColRef(cols(id)[0]) }
	opts := []struct {
		name string
		o    *core.Option
		in   []core.Distribution
		want string
	}{
		{"hash scan", baseHash(1, 2), nil, "hash(c1)"},
		{"replicated scan", &core.Option{Op: &algebra.Get{Table: replTable, Cols: cols(1)}, OutCols: cols(1)}, nil, "replicated"},
		{"values", baseRepl(1), nil, "replicated"},
		{"select", &core.Option{Op: &algebra.Select{}, OutCols: cols(1, 2)}, []core.Distribution{h12}, "hash(c1,c2)"},
		{"sort narrows to its output", &core.Option{Op: &algebra.Sort{}, OutCols: cols(2)}, []core.Distribution{h12}, "hash(c2)"},
		{"project renames", &core.Option{Op: &algebra.Project{Defs: []algebra.ProjDef{{ID: 9, Expr: ref(1)}}},
			OutCols: cols(9)}, []core.Distribution{h1}, "hash(c9)"},
		{"project computes", &core.Option{Op: &algebra.Project{Defs: []algebra.ProjDef{{ID: 9, Expr: &algebra.Neg{E: ref(1)}}}},
			OutCols: cols(9)}, []core.Distribution{h1}, "distributed(?)"},
		{"join narrows to its output", &core.Option{Op: &algebra.Join{Kind: algebra.JoinInner, On: eq(1, 2)},
			OutCols: cols(2)}, []core.Distribution{h1, h2}, "hash(c2)"},
		{"shuffle off its output", &core.Option{Move: &core.MoveSpec{Kind: cost.Shuffle, Col: 7}, OutCols: cols(1)},
			[]core.Distribution{h1}, "distributed(?)"},
		{"arity", &core.Option{Op: &algebra.Join{}, OutCols: cols(1)}, []core.Distribution{h1}, mo},
		{"neither operator nor movement", &core.Option{}, nil, mo},
	}
	for _, c := range opts {
		if got := render(Placement(c.o, c.in)); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}

	if !SamePlacement(core.HashOn(1, 2), core.HashOn(2, 1)) || SamePlacement(h1, h12) ||
		!SamePlacement(unknown, core.Distribution{Kind: core.DistHash}) || SamePlacement(rep, one) {
		t.Error("SamePlacement compares kind and, for hash, the class")
	}
}

// --- CheckPlan ---
//
// The rule combinations are TestPlacementRules'; these pin how CheckPlan
// reports them: the rule's code at the option it rejects, or
// placement-mismatch where the recorded placement is not the derived one,
// and nothing further up the tree.

func TestPlanCollocatedJoinClean(t *testing.T) {
	l, r := baseHash(1), baseHash(2)
	j := relOpt(&algebra.Join{Kind: algebra.JoinInner, On: eq(1, 2)},
		core.HashOn(1, 2), cols(1, 2), l, r)
	wantClean(t, CheckPlan(&core.Plan{Root: j}))
}

func TestPlanJoinNotCollocated(t *testing.T) {
	l, r := baseHash(1), baseHash(2)
	j := relOpt(&algebra.Join{Kind: algebra.JoinInner, On: eq(1, 3)},
		core.HashOn(1), cols(1, 2), l, r)
	wantOnly(t, CheckPlan(&core.Plan{Root: j}), CodeJoinNotCollocated)
}

func TestPlanJoinPlacement(t *testing.T) {
	// Single against hash crosses the control-node boundary.
	j := relOpt(&algebra.Join{Kind: algebra.JoinInner, On: eq(1, 2)}, core.Single(), cols(1, 2),
		baseSingle(1), baseHash(2))
	wantOnly(t, CheckPlan(&core.Plan{Root: j}), CodeJoinPlacement)

	// Left outer with replicated left over partitioned right.
	lo := relOpt(&algebra.Join{Kind: algebra.JoinLeftOuter, On: eq(3, 2)},
		core.HashOn(2), cols(3, 2), baseRepl(3), baseHash(2))
	wantOnly(t, CheckPlan(&core.Plan{Root: lo}), CodeJoinPlacement)

	// A replicated left inner join is fine, its class extended by the
	// equated column.
	ok := relOpt(&algebra.Join{Kind: algebra.JoinInner, On: eq(3, 2)},
		core.HashOn(2, 3), cols(3, 2), baseRepl(3), baseHash(2))
	wantClean(t, CheckPlan(&core.Plan{Root: ok}))
}

func TestPlanGroupByPlacement(t *testing.T) {
	// Complete aggregation keyed off the partitioning column: fine.
	okGB := relOpt(&algebra.GroupBy{Keys: []algebra.ColumnID{1}}, core.HashOn(1), cols(1), baseHash(1))
	wantClean(t, CheckPlan(&core.Plan{Root: okGB}))
	// Keyed on a non-partitioning column: groups split across nodes.
	bad := relOpt(&algebra.GroupBy{Keys: []algebra.ColumnID{2}}, core.HashOn(2), cols(2), baseHash(1, 2))
	wantOnly(t, CheckPlan(&core.Plan{Root: bad}), CodeGroupByPlacement)
	// A partial aggregation is placement-correct anywhere, but its
	// states must flow through a movement into a finalizer (the bare
	// partial at the root is an orphan, checked in TestPlanAggSplit).
	partial := relOpt(&algebra.GroupBy{Keys: []algebra.ColumnID{2}, Phase: algebra.AggPartial},
		core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet()}, cols(2), baseHash(1, 2))
	vs := CheckPlan(&core.Plan{Root: partial})
	if n := codesOf(vs); n[CodeGroupByPlacement]+n[CodePlacementMismatch] != 0 {
		t.Fatalf("partial aggregation flagged for placement: %v", vs)
	}
	// Replicated and single inputs always aggregate correctly.
	repGB := relOpt(&algebra.GroupBy{Keys: []algebra.ColumnID{3}}, core.Replicated(), cols(3), baseRepl(3))
	wantClean(t, CheckPlan(&core.Plan{Root: repGB}))
}

// splitPair builds a well-formed partial → shuffle → final chain over a
// hash-distributed input: COUNT state below the move, SUM merge above.
func splitPair() (partial, move, final *core.Option) {
	partial = relOpt(&algebra.GroupBy{
		Keys:  []algebra.ColumnID{1},
		Aggs:  []algebra.AggDef{{Func: algebra.AggCount, ID: 10, Name: "partial10"}},
		Phase: algebra.AggPartial,
	}, core.HashOn(1), cols(1, 10), baseHash(1, 2))
	move = moveOpt(cost.Shuffle, 1, core.HashOn(1), partial)
	final = relOpt(&algebra.GroupBy{
		Keys: []algebra.ColumnID{1},
		Aggs: []algebra.AggDef{{
			Func: algebra.AggSum,
			Arg:  algebra.NewColRef(algebra.ColumnMeta{ID: 10, Type: types.KindInt}),
			ID:   11, Name: "cnt",
		}},
		Phase: algebra.AggFinal,
	}, core.HashOn(1), cols(1, 11), move)
	return partial, move, final
}

func TestPlanAggSplit(t *testing.T) {
	// The well-formed pair verifies clean.
	_, _, final := splitPair()
	wantClean(t, CheckPlan(&core.Plan{Root: final}))

	// A partial with no finalizer anywhere is an orphan.
	_, move, _ := splitPair()
	wantCode(t, CheckPlan(&core.Plan{Root: move}), CodeAggPartialOrphan)

	// A partial consumed by anything but a finalizer leaks raw states.
	_, move2, _ := splitPair()
	j := relOpt(&algebra.Join{Kind: algebra.JoinInner, On: eq(1, 3)},
		core.HashOn(1, 3), cols(1, 10, 3), move2, baseHash(3))
	wantCode(t, CheckPlan(&core.Plan{Root: j}), CodeAggPartialOrphan)

	// A finalizer with more aggregates than its partner.
	_, _, final3 := splitPair()
	gb := final3.Op.(*algebra.GroupBy)
	gb.Aggs = append(gb.Aggs, gb.Aggs[0])
	wantCode(t, CheckPlan(&core.Plan{Root: final3}), CodeAggSplitMismatch)

	// A split DISTINCT aggregate is never decomposable.
	partial4, _, final4 := splitPair()
	partial4.Op.(*algebra.GroupBy).Aggs[0].Distinct = true
	wantCode(t, CheckPlan(&core.Plan{Root: final4}), CodeAggSplitMismatch)
}

func TestPlanUnionPlacement(t *testing.T) {
	u := relOpt(&algebra.UnionAll{}, core.HashOn(1), cols(1), baseHash(1), baseRepl(1))
	wantOnly(t, CheckPlan(&core.Plan{Root: u}), CodeUnionPlacement)
	ok := relOpt(&algebra.UnionAll{}, core.HashOn(1), cols(1), baseHash(1), baseHash(1))
	wantClean(t, CheckPlan(&core.Plan{Root: ok}))
}

func TestPlanMoveChecks(t *testing.T) {
	in := baseHash(1)
	// A well-formed shuffle.
	wantClean(t, CheckPlan(&core.Plan{Root: moveOpt(cost.Shuffle, 1, core.HashOn(1), in)}))
	// Shuffle on a column it does not output, recorded on another.
	m := moveOpt(cost.Shuffle, 2, core.HashOn(1), in)
	wantOnly(t, CheckPlan(&core.Plan{Root: m}), CodePlacementMismatch)
	// Broadcast claiming a hash output placement.
	b := moveOpt(cost.Broadcast, 0, core.HashOn(1), in)
	wantOnly(t, CheckPlan(&core.Plan{Root: b}), CodePlacementMismatch)
	// Trim over a hash input (needs a replicated source).
	tr := moveOpt(cost.Trim, 1, core.HashOn(1), in)
	wantOnly(t, CheckPlan(&core.Plan{Root: tr}), CodeMoveSource)
	// The remaining clean kind pairings.
	rep, single := baseRepl(1), baseSingle(1)
	for _, okm := range []*core.Option{
		moveOpt(cost.Broadcast, 0, core.Replicated(), in),
		moveOpt(cost.PartitionMove, 0, core.Single(), in),
		moveOpt(cost.Trim, 1, core.HashOn(1), rep),
		moveOpt(cost.RemoteCopySingle, 0, core.Single(), rep),
		moveOpt(cost.ReplicatedBroadcast, 0, core.Replicated(), rep),
		moveOpt(cost.ControlNodeMove, 0, core.Replicated(), single),
	} {
		wantClean(t, CheckPlan(&core.Plan{Root: okm}))
	}
	// An out-of-range kind is malformed.
	u := moveOpt(cost.MoveKind(200), 0, core.HashOn(1), in)
	wantOnly(t, CheckPlan(&core.Plan{Root: u}), CodeMalformedOption)
}

func TestPlanMalformedOptions(t *testing.T) {
	wantCode(t, CheckPlan(nil), CodeMalformedOption)
	wantCode(t, CheckPlan(&core.Plan{}), CodeMalformedOption)
	empty := &core.Option{Dist: core.Single()}
	wantCode(t, CheckPlan(&core.Plan{Root: empty}), CodeMalformedOption)
	both := &core.Option{Op: &algebra.UnionAll{}, Move: &core.MoveSpec{Kind: cost.Broadcast}, Dist: core.Single()}
	wantCode(t, CheckPlan(&core.Plan{Root: both}), CodeMalformedOption)
	in := baseHash(1)
	badArity := relOpt(&algebra.Join{Kind: algebra.JoinInner}, core.HashOn(1), cols(1), in)
	wantCode(t, CheckPlan(&core.Plan{Root: badArity}), CodeMalformedOption)
	badGB := relOpt(&algebra.GroupBy{}, core.HashOn(1), cols(1), in, in)
	wantCode(t, CheckPlan(&core.Plan{Root: badGB}), CodeMalformedOption)
	badUnion := relOpt(&algebra.UnionAll{}, core.HashOn(1), cols(1), in)
	wantCode(t, CheckPlan(&core.Plan{Root: badUnion}), CodeMalformedOption)
	badMove := &core.Option{Move: &core.MoveSpec{Kind: cost.Broadcast}, Dist: core.Replicated(), Inputs: []*core.Option{in, in}}
	wantCode(t, CheckPlan(&core.Plan{Root: badMove}), CodeMalformedOption)
}

func TestPlanEstimates(t *testing.T) {
	neg := baseHash(1)
	neg.Rows = -4
	wantCode(t, CheckPlan(&core.Plan{Root: neg}), CodeEstimateNegative)
	nan := baseHash(1)
	nan.Width = math.NaN()
	wantCode(t, CheckPlan(&core.Plan{Root: nan}), CodeEstimateNegative)
	// A parent undercutting its input's cumulative cost.
	in := baseHash(1)
	in.DMSCost = 9
	cheap := moveOpt(cost.Shuffle, 1, core.HashOn(1), in)
	cheap.DMSCost = 2
	wantCode(t, CheckPlan(&core.Plan{Root: cheap}), CodeEstimateNegative)
	// Plan-level costs.
	wantCode(t, CheckPlan(&core.Plan{Root: baseHash(1), TotalCost: -1}), CodeEstimateNegative)
}

// TestPlanHashColsNotOutput: a hash class naming a column the option
// does not output is a placement no input gives.
func TestPlanHashColsNotOutput(t *testing.T) {
	o := relOpt(&algebra.Select{}, core.HashOn(1, 7), cols(1), baseHash(1))
	wantOnly(t, CheckPlan(&core.Plan{Root: o}), CodePlacementMismatch)
}

func TestPlanSharedSubplanCheckedOnce(t *testing.T) {
	shared := baseHash(1)
	shared.Rows = -1 // one violation even though referenced twice
	u := relOpt(&algebra.UnionAll{}, core.HashOn(1), cols(1), shared, shared)
	vs := CheckPlan(&core.Plan{Root: u})
	if n := codesOf(vs)[CodeEstimateNegative]; n != 1 {
		t.Fatalf("shared subplan reported %d times: %v", n, vs)
	}
}

// TestRelRecordsDistributionViolation: an option whose recorded inputs
// the rules reject, or whose recorded placement they do not give, fires
// one violation at that option; its consumers are judged against what it
// records, so nothing cascades.
func TestRelRecordsDistributionViolation(t *testing.T) {
	// Keyless aggregation over a hash input, recorded single-node.
	gb := relOpt(&algebra.GroupBy{}, core.Single(), nil, baseHash(1))
	root := moveOpt(cost.ControlNodeMove, 0, core.Replicated(), gb)
	wantOnly(t, CheckPlan(&core.Plan{Root: root}), CodeGroupByPlacement)

	// A Broadcast recorded single-node: its input is fine, its record not.
	b := moveOpt(cost.Broadcast, 0, core.Single(), baseHash(1))
	root = moveOpt(cost.ControlNodeMove, 0, core.Replicated(), b)
	vs := CheckPlan(&core.Plan{Root: root})
	wantOnly(t, vs, CodePlacementMismatch)
	if !strings.Contains(vs[0].Detail, b.Move.String()+" records single-node") {
		t.Errorf("violation names the wrong option: %s", vs[0].Detail)
	}
}

// --- CheckDSQL ---

func testShell(t *testing.T) *catalog.Shell {
	t.Helper()
	sh := catalog.NewShell(4)
	err := sh.AddTable(&catalog.Table{
		Name:    "nation",
		Columns: []catalog.Column{{Name: "n_nationkey", Type: types.KindInt}},
		Dist:    catalog.Distribution{Kind: catalog.DistReplicated},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func moveStep(id int, dest, sql string) dsql.Step {
	return dsql.Step{
		ID: id, Kind: dsql.StepMove, SQL: sql, Where: core.DistHash,
		Idempotent: true, MoveKind: cost.Shuffle, HashCol: "c1", Dest: dest,
		DestCols: []catalog.Column{{Name: "c1", Type: types.KindInt}},
	}
}

func returnStep(id int, sql string) dsql.Step {
	return dsql.Step{ID: id, Kind: dsql.StepReturn, SQL: sql, Where: core.DistHash}
}

func TestDSQLCleanSequence(t *testing.T) {
	p := &dsql.Plan{Steps: []dsql.Step{
		moveStep(0, "TEMP_ID_1", "SELECT l_orderkey AS c1 FROM [dbo].[nation] AS T1"),
		moveStep(1, "TEMP_ID_2", "SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
		returnStep(2, "SELECT c1 FROM [tempdb].[TEMP_ID_2]"),
	}}
	wantClean(t, CheckDSQL(p, nil, testShell(t)))
}

func TestDSQLReturnShape(t *testing.T) {
	wantCode(t, CheckDSQL(nil, nil, nil), CodeReturnMissing)
	wantCode(t, CheckDSQL(&dsql.Plan{}, nil, nil), CodeReturnMissing)
	noReturn := &dsql.Plan{Steps: []dsql.Step{moveStep(0, "TEMP_ID_1", "SELECT 1 AS c1")}}
	vs := CheckDSQL(noReturn, nil, nil)
	wantCode(t, vs, CodeReturnMissing)
	wantCode(t, vs, CodeTempOrphan)
	early := &dsql.Plan{Steps: []dsql.Step{
		returnStep(0, "SELECT 1 AS c1"),
		moveStep(1, "TEMP_ID_1", "SELECT 1 AS c1"),
	}}
	wantCode(t, CheckDSQL(early, nil, nil), CodeReturnNotLast)
	double := &dsql.Plan{Steps: []dsql.Step{
		returnStep(0, "SELECT 1 AS c1"),
		returnStep(1, "SELECT 1 AS c1"),
	}}
	wantCode(t, CheckDSQL(double, nil, nil), CodeReturnNotLast)
}

func TestDSQLStepIDOrder(t *testing.T) {
	p := &dsql.Plan{Steps: []dsql.Step{
		moveStep(1, "TEMP_ID_1", "SELECT 1 AS c1"),
		returnStep(0, "SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
	}}
	wantCode(t, CheckDSQL(p, nil, nil), CodeStepIDOrder)
}

func TestDSQLTempFlow(t *testing.T) {
	// Use before def: the reader precedes the producer.
	p := &dsql.Plan{Steps: []dsql.Step{
		moveStep(0, "TEMP_ID_2", "SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
		moveStep(1, "TEMP_ID_1", "SELECT 1 AS c1"),
		returnStep(2, "SELECT c1 FROM [tempdb].[TEMP_ID_2], [tempdb].[TEMP_ID_1]"),
	}}
	wantCode(t, CheckDSQL(p, nil, nil), CodeTempUseBeforeDef)

	// Dangling reference.
	dangling := &dsql.Plan{Steps: []dsql.Step{
		moveStep(0, "TEMP_ID_1", "SELECT 1 AS c1"),
		returnStep(1, "SELECT c1 FROM [tempdb].[TEMP_ID_1], [tempdb].[TEMP_ID_9]"),
	}}
	wantCode(t, CheckDSQL(dangling, nil, nil), CodeTempUnknown)

	// Redefinition.
	redef := &dsql.Plan{Steps: []dsql.Step{
		moveStep(0, "TEMP_ID_1", "SELECT 1 AS c1"),
		moveStep(1, "TEMP_ID_1", "SELECT 1 AS c1"),
		returnStep(2, "SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
	}}
	wantCode(t, CheckDSQL(redef, nil, nil), CodeTempRedefined)

	// Orphan.
	orphan := &dsql.Plan{Steps: []dsql.Step{
		moveStep(0, "TEMP_ID_1", "SELECT 1 AS c1"),
		returnStep(1, "SELECT 1 AS c1"),
	}}
	wantCode(t, CheckDSQL(orphan, nil, nil), CodeTempOrphan)

	// A step reading its own destination is use-before-def.
	selfRead := &dsql.Plan{Steps: []dsql.Step{
		moveStep(0, "TEMP_ID_1", "SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
		returnStep(1, "SELECT c1 FROM [tempdb].[TEMP_ID_1]"),
	}}
	wantCode(t, CheckDSQL(selfRead, nil, nil), CodeTempUseBeforeDef)
}

func TestDSQLMoveStepShape(t *testing.T) {
	base := func() dsql.Step { return moveStep(0, "TEMP_ID_1", "SELECT 1 AS c1") }
	ret := func() dsql.Step { return returnStep(1, "SELECT c1 FROM [tempdb].[TEMP_ID_1]") }

	noDest := base()
	noDest.Dest = ""
	vs := CheckDSQL(&dsql.Plan{Steps: []dsql.Step{noDest, ret()}}, nil, nil)
	wantCode(t, vs, CodeMoveStepShape)

	notIdem := base()
	notIdem.Idempotent = false
	wantCode(t, CheckDSQL(&dsql.Plan{Steps: []dsql.Step{notIdem, ret()}}, nil, nil), CodeMoveStepShape)

	noHash := base()
	noHash.HashCol = ""
	wantCode(t, CheckDSQL(&dsql.Plan{Steps: []dsql.Step{noHash, ret()}}, nil, nil), CodeMoveStepShape)

	wrongHash := base()
	wrongHash.HashCol = "c9"
	wantCode(t, CheckDSQL(&dsql.Plan{Steps: []dsql.Step{wrongHash, ret()}}, nil, nil), CodeMoveStepShape)

	stray := base()
	stray.MoveKind = cost.Broadcast // keeps HashCol "c1" → stray routing column
	wantCode(t, CheckDSQL(&dsql.Plan{Steps: []dsql.Step{stray, ret()}}, nil, nil), CodeMoveStepShape)

	destOnReturn := ret()
	destOnReturn.ID = 1
	destOnReturn.Dest = "TEMP_ID_9"
	wantCode(t, CheckDSQL(&dsql.Plan{Steps: []dsql.Step{base(), destOnReturn}}, nil, nil), CodeMoveStepShape)

	// Which placement a step runs on is transval's, checked against the
	// plan; the DSQL layer does not look at it.
	elsewhere := base()
	elsewhere.Where = core.DistReplicated
	wantClean(t, CheckDSQL(&dsql.Plan{Steps: []dsql.Step{elsewhere, ret()}}, nil, nil))
}

func TestDSQLUnknownBaseTable(t *testing.T) {
	p := &dsql.Plan{Steps: []dsql.Step{
		returnStep(0, "SELECT n_nationkey FROM [dbo].[nosuch] AS T1"),
	}}
	wantCode(t, CheckDSQL(p, nil, testShell(t)), CodeUnknownBaseTable)
}

// --- CheckMemo / CheckInteresting ---

func valuesExpr(children ...int) memoxml.DecodedExpr {
	return memoxml.DecodedExpr{Op: &algebra.Values{Cols: cols(1)}, Children: children}
}

func TestMemoChecks(t *testing.T) {
	wantClean(t, CheckMemo(nil))

	empty := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{
		1: {ID: 1},
	}}
	wantCode(t, CheckMemo(empty), CodeMemoEmptyGroup)

	negCost := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{
		1: {ID: 1, Exprs: []memoxml.DecodedExpr{{Op: &algebra.Values{Cols: cols(1)}, Cost: -3}}},
	}}
	wantCode(t, CheckMemo(negCost), CodeMemoEstimate)

	badStats := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{
		1: {ID: 1, Exprs: []memoxml.DecodedExpr{valuesExpr()},
			ColStats: map[algebra.ColumnID]memoxml.DecodedColStat{1: {NDV: 5, NullFrac: 1.5}}},
	}}
	wantCode(t, CheckMemo(badStats), CodeMemoEstimate)

	clean := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{
		1: {ID: 1, Rows: 5, Width: 8, Exprs: []memoxml.DecodedExpr{valuesExpr(2)}},
		2: {ID: 2, Rows: 5, Width: 8, Exprs: []memoxml.DecodedExpr{valuesExpr()},
			ColStats: map[algebra.ColumnID]memoxml.DecodedColStat{1: {NDV: 5, NullFrac: 0.1, Width: 8}}},
	}}
	wantClean(t, CheckMemo(clean))
}

func TestMemoWinnerChecks(t *testing.T) {
	win := valuesExpr(2)
	win.Winner = true
	dangling := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{
		1: {ID: 1, Exprs: []memoxml.DecodedExpr{win}},
		2: {ID: 2}, // no expressions to extract from
	}}
	vs := CheckMemo(dangling)
	wantCode(t, vs, CodeWinnerDangling)

	w1, w2 := valuesExpr(), valuesExpr()
	w1.Winner, w2.Winner = true, true
	double := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{
		1: {ID: 1, Exprs: []memoxml.DecodedExpr{w1, w2}},
	}}
	wantCode(t, CheckMemo(double), CodeWinnerDuplicate)
}

// interestingMemo is a two-table equijoin memo: group 3 joins groups 1
// and 2 on c1 = c2, and group 4 aggregates group 3 by c1.
func interestingMemo() *memoxml.Decoded {
	g1 := &memoxml.DecodedGroup{ID: 1, OutCols: cols(1), Exprs: []memoxml.DecodedExpr{valuesExpr()}}
	g2 := &memoxml.DecodedGroup{ID: 2, OutCols: cols(2), Exprs: []memoxml.DecodedExpr{valuesExpr()}}
	join := memoxml.DecodedExpr{
		Op:       &algebra.Join{Kind: algebra.JoinInner, On: eq(1, 2)},
		Children: []int{1, 2},
	}
	g3 := &memoxml.DecodedGroup{ID: 3, OutCols: cols(1, 2), Exprs: []memoxml.DecodedExpr{join}}
	gb := memoxml.DecodedExpr{
		Op:       &algebra.GroupBy{Keys: []algebra.ColumnID{1}},
		Children: []int{3},
	}
	g4 := &memoxml.DecodedGroup{ID: 4, OutCols: cols(1), Exprs: []memoxml.DecodedExpr{gb}}
	return &memoxml.Decoded{Root: 4, Groups: map[int]*memoxml.DecodedGroup{1: g1, 2: g2, 3: g3, 4: g4}}
}

func TestInterestingClosure(t *testing.T) {
	dec := interestingMemo()
	full := map[int][]algebra.ColumnID{
		1: {1}, 2: {2}, 3: {1, 2}, 4: {1},
	}
	lookup := func(m map[int][]algebra.ColumnID) func(int) []algebra.ColumnID {
		return func(g int) []algebra.ColumnID { return m[g] }
	}
	wantClean(t, CheckInteresting(dec, lookup(full)))

	// Dropping the equijoin column from a child breaks transitivity.
	noJoinCol := map[int][]algebra.ColumnID{1: {1}, 2: nil, 3: {1, 2}, 4: {1}}
	wantCode(t, CheckInteresting(dec, lookup(noJoinCol)), CodeInterestingNotClosed)

	// Dropping the group-by key from the aggregation's child.
	noKey := map[int][]algebra.ColumnID{1: {1}, 2: {2}, 3: {2}, 4: {1}}
	wantCode(t, CheckInteresting(dec, lookup(noKey)), CodeInterestingNotClosed)

	// Parent demand: group 4 finds c1 interesting, so group 3 must too.
	vs := CheckInteresting(dec, lookup(noKey))
	found := false
	for _, v := range vs {
		if v.Group == 3 && strings.Contains(v.Detail, "c1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a group-3 closure violation, got %v", vs)
	}

}

// --- Check / Report / Error ---

func TestReportAndError(t *testing.T) {
	r := &Report{}
	if !r.OK() || r.Err() != nil {
		t.Fatal("empty report must be clean")
	}
	bad := baseHash(1)
	bad.Rows = -1
	rep := Check(Artifacts{Plan: &core.Plan{Root: bad}})
	if rep.OK() {
		t.Fatal("expected violations")
	}
	if !rep.Has(CodeEstimateNegative) || rep.Has(CodeMemoEmptyGroup) {
		t.Fatalf("Has misreports: %v", rep.Violations)
	}
	err := rep.Err()
	var verr *Error
	if !errors.As(err, &verr) {
		t.Fatalf("Err must be a typed *Error, got %T", err)
	}
	if !strings.Contains(err.Error(), string(CodeEstimateNegative)) {
		t.Fatalf("error text misses the code: %s", err)
	}
	// Violation coordinates render.
	v := stepViolation(CodeTempOrphan, 3, "x")
	if !strings.Contains(v.String(), "step=3") {
		t.Fatalf("bad step rendering: %s", v)
	}
	gv := groupViolation(CodeMemoEmptyGroup, 7, "y")
	if !strings.Contains(gv.String(), "group=7") {
		t.Fatalf("bad group rendering: %s", gv)
	}
}

func TestCheckAllLayers(t *testing.T) {
	// One artifact per layer, each broken, all surfaced in one report.
	badPlan := baseHash(1)
	badPlan.Rows = -1
	p := &dsql.Plan{Steps: []dsql.Step{returnStep(0, "SELECT 1 AS c1")}}
	dec := &memoxml.Decoded{Root: 1, Groups: map[int]*memoxml.DecodedGroup{1: {ID: 1}}}
	rep := Check(Artifacts{
		Plan:        &core.Plan{Root: badPlan},
		DSQL:        p,
		Memo:        dec,
		Interesting: func(int) []algebra.ColumnID { return nil },
	})
	for _, code := range []Code{CodeEstimateNegative, CodeMemoEmptyGroup} {
		if !rep.Has(code) {
			t.Fatalf("missing %s in %v", code, rep.Violations)
		}
	}
}

// TestReportOrderIsStable renders one defective plan's error 50 times
// and gets one string: orphan temps come in step order and the consumers
// of a partial aggregation in walk order, never in map order.
func TestReportOrderIsStable(t *testing.T) {
	partial := relOpt(&algebra.GroupBy{Keys: []algebra.ColumnID{1}, Phase: algebra.AggPartial},
		core.HashOn(1), cols(1), baseHash(1))
	consumer := func(op algebra.Operator) *core.Option { return relOpt(op, core.HashOn(1), cols(1), partial) }
	union := func(l, r *core.Option) *core.Option {
		return relOpt(&algebra.UnionAll{}, core.HashOn(1), cols(1), l, r)
	}
	root := union(
		union(consumer(&algebra.Select{}), consumer(&algebra.Sort{})),
		union(consumer(&algebra.Project{}), consumer(&algebra.GroupBy{Keys: []algebra.ColumnID{1}})))
	var steps []dsql.Step
	for i := 0; i < 4; i++ {
		steps = append(steps, moveStep(i, fmt.Sprintf("TEMP_ID_%d", i+1), "SELECT 1 AS c1"))
	}
	steps = append(steps, returnStep(4, "SELECT 1 AS c1"))
	a := Artifacts{Plan: &core.Plan{Root: root}, DSQL: &dsql.Plan{Steps: steps}}

	rep := Check(a)
	if n := codesOf(rep.Violations); n[CodeTempOrphan] != 4 || n[CodeAggPartialOrphan] != 5 {
		t.Fatalf("fixture lost its defects: %v", rep.Violations)
	}
	want := rep.Err().Error()
	for i := 0; i < 50; i++ {
		if got := Check(a).Err().Error(); got != want {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, got, want)
		}
	}
}
