package transval

import (
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

// seeded returns an interpreter with one pre-derived input relation, so
// derive() tests exercise exactly one operator.
func seeded(in *absRel) (*planInterp, *core.Option) {
	pi := newPlanInterp()
	inOpt := &core.Option{}
	pi.rels[inOpt] = in
	return pi, inOpt
}

func hashRel(ids ...algebra.ColumnID) *absRel {
	r := &absRel{dist: core.HashOn(ids[0])}
	for _, id := range ids {
		r.cols = append(r.cols, absCol{ID: id, Type: types.KindInt,
			Origins: map[string]struct{}{"t.x": {}}})
	}
	return r
}

func withDist(r *absRel, k core.DistKind) *absRel {
	c := &absRel{cols: cloneCols(r.cols), dist: core.Distribution{Kind: k}}
	return c
}

// metas is the output schema of columns ids, as an option records it.
func metas(ids ...algebra.ColumnID) []algebra.ColumnMeta {
	out := make([]algebra.ColumnMeta, len(ids))
	for i, id := range ids {
		out[i] = algebra.ColumnMeta{ID: id, Type: types.KindInt}
	}
	return out
}

func TestDeriveMoves(t *testing.T) {
	cases := []struct {
		kind     cost.MoveKind
		from, to core.DistKind
	}{
		{cost.Shuffle, core.DistHash, core.DistHash},
		{cost.Trim, core.DistReplicated, core.DistHash},
		{cost.Broadcast, core.DistHash, core.DistReplicated},
		{cost.ControlNodeMove, core.DistSingle, core.DistReplicated},
		{cost.ReplicatedBroadcast, core.DistReplicated, core.DistReplicated},
		{cost.PartitionMove, core.DistHash, core.DistSingle},
		{cost.RemoteCopySingle, core.DistReplicated, core.DistSingle},
	}
	for _, c := range cases {
		src := hashRel(7)
		if c.from != core.DistHash {
			src = withDist(src, c.from)
		}
		pi, in := seeded(src)
		o := &core.Option{Move: &core.MoveSpec{Kind: c.kind, Col: 7}, Inputs: []*core.Option{in}, OutCols: metas(7)}
		r := pi.derive(o)
		if r.dist.Kind != c.to {
			t.Errorf("%v: dist = %v, want kind %v", c.kind, r.dist, c.to)
		}
		if c.to == core.DistHash && !r.dist.Cols.Has(7) {
			t.Errorf("%v: hash class missing move column", c.kind)
		}
	}
}

func TestDeriveValues(t *testing.T) {
	pi := newPlanInterp()
	meta := []algebra.ColumnMeta{{ID: 1, Name: "a", Type: types.KindInt}}

	empty := &core.Option{Op: &algebra.Values{Cols: meta}}
	r := pi.derive(empty)
	if !r.cols[0].Nullable || r.dist.Kind != core.DistReplicated {
		t.Errorf("empty values: %+v", r)
	}

	withNull := &core.Option{Op: &algebra.Values{Cols: meta,
		Rows: [][]types.Value{{types.Null}}}}
	if r := pi.derive(withNull); !r.cols[0].Nullable {
		t.Error("NULL literal row must derive nullable")
	}

	plain := &core.Option{Op: &algebra.Values{Cols: meta,
		Rows: [][]types.Value{{types.NewInt(4)}}}}
	if r := pi.derive(plain); r.cols[0].Nullable {
		t.Error("non-NULL literal row must derive non-nullable")
	}
}

func TestDeriveGet(t *testing.T) {
	pi := newPlanInterp()
	var hashTab, replTab *algebra.Get
	for _, tb := range tpch.Tables() {
		cols := make([]algebra.ColumnMeta, len(tb.Columns))
		for i, c := range tb.Columns {
			cols[i] = algebra.ColumnMeta{ID: algebra.ColumnID(i + 1), Name: c.Name, Type: c.Type}
		}
		g := &algebra.Get{Table: tb, Cols: cols}
		if tb.Name == "lineitem" {
			hashTab = g
		}
		if tb.Name == "nation" {
			replTab = g
		}
	}
	r := pi.derive(&core.Option{Op: hashTab, OutCols: hashTab.Cols})
	if r.dist.Kind != core.DistHash || len(r.dist.Cols) != 1 {
		t.Errorf("lineitem get dist = %v", r.dist)
	}
	if _, has := r.cols[0].Origins["lineitem.l_orderkey"]; !has {
		t.Errorf("get origins = %v", r.cols[0].Origins)
	}
	r = pi.derive(&core.Option{Op: replTab, OutCols: replTab.Cols})
	if r.dist.Kind != core.DistReplicated {
		t.Errorf("nation get dist = %v", r.dist)
	}
}

func TestDeriveProjectComputed(t *testing.T) {
	pi, in := seeded(hashRel(1, 2))
	proj := &algebra.Project{Defs: []algebra.ProjDef{
		{ID: 9, Expr: &algebra.Func{Name: "YEAR",
			Args: []algebra.Scalar{col(1, types.KindDate)}, Out: types.KindInt}},
		{ID: 10, Expr: col(2, types.KindInt)},
	}}
	r := pi.derive(&core.Option{Op: proj, Inputs: []*core.Option{in}, OutCols: metas(9, 10)})
	if r.cols[0].Type != types.KindInt {
		t.Errorf("computed col type = %v", r.cols[0].Type)
	}
	if _, has := r.cols[0].Origins["t.x"]; !has {
		t.Errorf("computed col origins = %v", r.cols[0].Origins)
	}
	// The rename c1 -> c10 must keep the hash class alive when c1 drops.
	proj2 := &algebra.Project{Defs: []algebra.ProjDef{{ID: 10, Expr: col(1, types.KindInt)}}}
	r = pi.derive(&core.Option{Op: proj2, Inputs: []*core.Option{in}, OutCols: metas(10)})
	if !r.dist.Cols.Has(10) {
		t.Errorf("renamed hash class = %v", r.dist)
	}
}

func TestDeriveUnionAll(t *testing.T) {
	// The union records a single-node placement, which stands in wherever
	// the rules reject the branches.
	mk := func(l, r *absRel) (*planInterp, *core.Option) {
		pi := newPlanInterp()
		lo, ro := &core.Option{}, &core.Option{}
		pi.rels[lo] = l
		pi.rels[ro] = r
		return pi, &core.Option{Op: &algebra.UnionAll{}, Inputs: []*core.Option{lo, ro},
			Dist: core.Single(), OutCols: metas(1, 2)}
	}
	base := hashRel(1)

	pi, o := mk(withDist(base, core.DistReplicated), withDist(base, core.DistReplicated))
	if r := pi.derive(o); r.dist.Kind != core.DistReplicated {
		t.Error("repl+repl union")
	}
	pi, o = mk(hashRel(1), hashRel(1))
	if r := pi.derive(o); !r.dist.Cols.Has(1) {
		t.Error("hash+hash union with shared class")
	}
	left, right := hashRel(1, 2), hashRel(1, 2)
	right.dist = core.HashOn(2)
	pi, o = mk(left, right)
	if r := pi.derive(o); r.dist.Kind != core.DistSingle {
		t.Errorf("disjoint hash classes must fall back to the recorded placement, got %v", r.dist)
	}

	// Nullability and origins union across branches.
	l2, r2 := hashRel(1), hashRel(1)
	r2.cols[0].Nullable = true
	r2.cols[0].Origins = map[string]struct{}{"u.y": {}}
	pi, o = mk(l2, r2)
	if r := pi.derive(o); !r.cols[0].Nullable || len(r.cols[0].Origins) != 2 {
		t.Errorf("union col merge = %+v", r.cols[0])
	}
}

// TestDeriveJoinKinds pins the plan side's join columns per kind — which
// sides survive, which go nullable, which the condition proves non-NULL
// — and that the placement comes from the shared rules.
func TestDeriveJoinKinds(t *testing.T) {
	on := &algebra.Binary{Op: sqlparser.OpEq, L: col(1, types.KindInt), R: col(2, types.KindInt)}
	cases := []struct {
		kind     algebra.JoinKind
		nullable []bool // per output column
		dist     string
	}{
		{algebra.JoinInner, []bool{false, false}, "hash(c1,c2)"},
		{algebra.JoinLeftOuter, []bool{true, true}, "hash(c1)"},
		{algebra.JoinFullOuter, []bool{true, true}, "hash(c1)"},
		{algebra.JoinSemi, []bool{false}, "hash(c1)"},
		{algebra.JoinAnti, []bool{true}, "hash(c1)"},
	}
	for _, c := range cases {
		pi := newPlanInterp()
		l, r := hashRel(1), hashRel(2)
		l.cols[0].Nullable, r.cols[0].Nullable = true, true
		lo, ro := &core.Option{}, &core.Option{}
		pi.rels[lo], pi.rels[ro] = l, r
		out := metas(1, 2)[:len(c.nullable)]
		got := pi.derive(&core.Option{Op: &algebra.Join{Kind: c.kind, On: on}, Inputs: []*core.Option{lo, ro}, OutCols: out})
		if len(got.cols) != len(c.nullable) || got.dist.String() != c.dist {
			t.Errorf("%v join: cols %+v, placement %s; want %d cols, %s", c.kind, got.cols, got.dist, len(c.nullable), c.dist)
			continue
		}
		for i, want := range c.nullable {
			if got.cols[i].Nullable != want {
				t.Errorf("%v join: c%d nullable = %v, want %v", c.kind, got.cols[i].ID, got.cols[i].Nullable, want)
			}
		}
	}
}

func TestDeriveGroupBy(t *testing.T) {
	sum := algebra.AggDef{Func: algebra.AggSum, Arg: col(2, types.KindInt), ID: 9}
	gbOpt := func(gb *algebra.GroupBy, in *core.Option) *core.Option {
		return &core.Option{Op: gb, Inputs: []*core.Option{in}, Dist: core.Single(),
			OutCols: metas(append(append([]algebra.ColumnID{}, gb.Keys...), 9)...)}
	}

	// Keyless SUM over a single-node input: nullable result.
	pi, in := seeded(withDist(hashRel(1, 2), core.DistSingle))
	gb := &algebra.GroupBy{Aggs: []algebra.AggDef{sum}}
	if r := pi.derive(gbOpt(gb, in)); !r.cols[0].Nullable || r.dist.Kind != core.DistSingle {
		t.Errorf("keyless sum: %+v", r)
	}

	// Partial phase is computable anywhere; the class restricts to keys.
	partial := &algebra.GroupBy{Keys: []algebra.ColumnID{2}, Aggs: []algebra.AggDef{sum},
		Phase: algebra.AggPartial}
	pi, in = seeded(hashRel(1, 2))
	if r := pi.derive(gbOpt(partial, in)); r.dist.Kind != core.DistHash || len(r.dist.Cols) != 0 {
		t.Errorf("partial over non-key hash: dist = %v", r.dist)
	}

	// Keyed complete agg whose keys cover the hash class is fine.
	keyed := &algebra.GroupBy{Keys: []algebra.ColumnID{1}, Aggs: []algebra.AggDef{sum}}
	pi, in = seeded(hashRel(1, 2))
	if r := pi.derive(gbOpt(keyed, in)); !r.dist.Cols.Has(1) {
		t.Errorf("keyed agg: dist = %v", r.dist)
	}

	// Keys disjoint from the hash class: rows for one group live on many
	// nodes, so the rules reject it and the recorded placement stands in.
	offKey := &algebra.GroupBy{Keys: []algebra.ColumnID{2}, Aggs: []algebra.AggDef{sum}}
	pi, in = seeded(hashRel(1, 2))
	if r := pi.derive(gbOpt(offKey, in)); r.dist.Kind != core.DistSingle {
		t.Errorf("off-key complete agg must fall back to the recorded placement, got %v", r.dist)
	}
}

func TestLineageNilSafe(t *testing.T) {
	if out := Lineage(nil); len(out) != 0 {
		t.Error("nil plan lineage")
	}
	if out := Lineage(&core.Plan{}); len(out) != 0 {
		t.Error("rootless plan lineage")
	}
}
