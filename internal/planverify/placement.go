package planverify

import (
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
)

// The placement rules of the bottom-up phase, stated once: which input
// placements a join, group-by or union accepts without data movement
// (paper §2.4), and what each DMS operation consumes and produces
// (§3.3.2). CheckPlan applies them to every option's recorded inputs;
// transval applies them to its plan-side and SQL-side derivations.
// core.Distribution is only the value type: nothing here calls the
// enumerator's own rules, so a bug in either copy surfaces as a
// disagreement.

// moveKinds is §3.3.2's operation table: the placement each movement
// kind consumes and the one it produces.
var moveKinds = map[cost.MoveKind]struct{ from, to core.DistKind }{
	cost.Shuffle:             {core.DistHash, core.DistHash},
	cost.Broadcast:           {core.DistHash, core.DistReplicated},
	cost.PartitionMove:       {core.DistHash, core.DistSingle},
	cost.Trim:                {core.DistReplicated, core.DistHash},
	cost.ReplicatedBroadcast: {core.DistReplicated, core.DistReplicated},
	cost.RemoteCopySingle:    {core.DistReplicated, core.DistSingle},
	cost.ControlNodeMove:     {core.DistSingle, core.DistReplicated},
}

// Placement derives the placement option o produces when its inputs are
// placed as in (one per input, in order), restricted to o's output
// columns; or it returns the code of the rule that rejects the inputs.
func Placement(o *core.Option, in []core.Distribution) (core.Distribution, Code) {
	arity := 1
	if o.Op != nil {
		arity = o.Op.Arity()
	}
	if (o.Op == nil) == (o.Move == nil) || len(in) != arity {
		return core.Distribution{}, CodeMalformedOption
	}
	var (
		d      core.Distribution
		code   Code
		rename map[algebra.ColumnID][]algebra.ColumnID
	)
	switch op := o.Op.(type) {
	case nil:
		d, code = movePlacement(*o.Move, in[0])
	case *algebra.Get:
		d = getPlacement(op)
	case *algebra.Values:
		d = core.Distribution{Kind: core.DistReplicated}
	case *algebra.Select, *algebra.Sort:
		d = in[0]
	case *algebra.Project:
		// A pass-through definition carries its source's class membership
		// to the new column id.
		rename = map[algebra.ColumnID][]algebra.ColumnID{}
		for _, def := range op.Defs {
			if c, ok := def.Expr.(*algebra.ColRef); ok {
				rename[c.ID] = append(rename[c.ID], def.ID)
			}
		}
		d = in[0]
	case *algebra.Join:
		d, code = JoinPlacement(op.Kind, equiPairs(op.On), in[0], in[1])
	case *algebra.GroupBy:
		d, code = groupByPlacement(op, in[0])
	case *algebra.UnionAll:
		d, code = UnionPlacement(in[0], in[1])
	default:
		code = CodeMalformedOption
	}
	if code != "" {
		return core.Distribution{}, code
	}
	outputs := func(id algebra.ColumnID) bool {
		for _, c := range o.OutCols {
			if c.ID == id {
				return true
			}
		}
		return false
	}
	return restrict(d, outputs, rename), ""
}

// SamePlacement reports whether two placements are equal: the same kind
// and, for hash placements, the same equivalence class.
func SamePlacement(a, b core.Distribution) bool {
	if a.Kind != b.Kind {
		return false
	}
	return a.Kind != core.DistHash || len(a.Cols) == len(b.Cols) && a.Cols.SubsetOf(b.Cols)
}

// getPlacement reads a scan's placement from the table metadata.
func getPlacement(op *algebra.Get) core.Distribution {
	if op.Table.Dist.Kind != catalog.DistHash {
		return core.Distribution{Kind: core.DistReplicated}
	}
	cols := algebra.NewColSet()
	for _, c := range op.Cols {
		if strings.EqualFold(c.Name, op.Table.Dist.Column) {
			cols.Add(c.ID)
		}
	}
	return core.Distribution{Kind: core.DistHash, Cols: cols}
}

// movePlacement requires the source placement the movement kind consumes
// and yields the one it produces; a hashing kind is placed on its
// routing column.
func movePlacement(m core.MoveSpec, in core.Distribution) (core.Distribution, Code) {
	k, ok := moveKinds[m.Kind]
	switch {
	case !ok:
		return core.Distribution{}, CodeMalformedOption
	case in.Kind != k.from:
		return core.Distribution{}, CodeMoveSource
	case k.to == core.DistHash:
		return core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet(m.Col)}, ""
	}
	return core.Distribution{Kind: k.to}, ""
}

// JoinPlacement is the §2.4 partition-compatibility rule for a join of
// the given kind whose condition equates the column pairs in pairs.
func JoinPlacement(kind algebra.JoinKind, pairs [][2]algebra.ColumnID, l, r core.Distribution) (core.Distribution, Code) {
	switch {
	case l.Kind == core.DistSingle && r.Kind == core.DistSingle:
		return core.Distribution{Kind: core.DistSingle}, ""
	case l.Kind == core.DistSingle || r.Kind == core.DistSingle:
		// One side on the control node, the other on the compute nodes:
		// no node holds both operands.
		return core.Distribution{}, CodeJoinPlacement
	case l.Kind == core.DistReplicated && r.Kind == core.DistReplicated:
		return core.Distribution{Kind: core.DistReplicated}, ""
	case l.Kind == core.DistHash && r.Kind == core.DistReplicated:
		// Every node holds the whole right side: sound unless the join
		// null-extends it, which every node would then do.
		if kind == algebra.JoinFullOuter {
			return core.Distribution{}, CodeJoinPlacement
		}
		return equated(l.Cols, kind, pairs), ""
	case l.Kind == core.DistReplicated && r.Kind == core.DistHash:
		// Every node processes the whole left side: only kinds that emit
		// each pair at most once and keep no left-side semantics survive.
		if kind != algebra.JoinInner && kind != algebra.JoinCross {
			return core.Distribution{}, CodeJoinPlacement
		}
		return equated(r.Cols, kind, pairs), ""
	}
	// Both hash-placed: matching rows meet on one node only when some
	// pair equates a column of each class.
	collocated := false
	for _, p := range pairs {
		collocated = collocated || l.Cols.Has(p[0]) && r.Cols.Has(p[1]) || l.Cols.Has(p[1]) && r.Cols.Has(p[0])
	}
	if !collocated {
		return core.Distribution{}, CodeJoinNotCollocated
	}
	cols := algebra.NewColSet()
	cols.AddSet(l.Cols)
	if kind == algebra.JoinInner {
		cols.AddSet(r.Cols)
	}
	return core.Distribution{Kind: core.DistHash, Cols: cols}, ""
}

// equated is the hash placement of a join against a replicated side: the
// partitioned side's class, which an inner join extends by every column
// its condition equates to a member.
func equated(class algebra.ColSet, kind algebra.JoinKind, pairs [][2]algebra.ColumnID) core.Distribution {
	cols := algebra.NewColSet()
	cols.AddSet(class)
	if kind == algebra.JoinInner {
		for _, p := range pairs {
			if class.Has(p[0]) {
				cols.Add(p[1])
			}
			if class.Has(p[1]) {
				cols.Add(p[0])
			}
		}
	}
	return core.Distribution{Kind: core.DistHash, Cols: cols}
}

// equiPairs lists the column pairs a join condition's equality conjuncts
// equate.
func equiPairs(on algebra.Scalar) [][2]algebra.ColumnID {
	var pairs [][2]algebra.ColumnID
	for _, conj := range algebra.Conjuncts(on) {
		if a, b, ok := algebra.EquiJoinSides(conj); ok {
			pairs = append(pairs, [2]algebra.ColumnID{a, b})
		}
	}
	return pairs
}

// groupByPlacement requires a complete or finalizing aggregation over a
// hash placement to be keyed on a member of the class, so every row of a
// group lives on one node; a partial aggregation is correct anywhere.
// The class narrows to the grouping keys.
func groupByPlacement(op *algebra.GroupBy, in core.Distribution) (core.Distribution, Code) {
	keys := algebra.NewColSet(op.Keys...)
	if op.Phase != algebra.AggPartial && in.Kind == core.DistHash && !in.Cols.Intersects(keys) {
		return core.Distribution{}, CodeGroupByPlacement
	}
	return restrict(in, keys.Has, nil), ""
}

// UnionPlacement is the UNION ALL rule: the union is a per-node
// concatenation only when both branches share a placement — for hash
// branches, at least one class member (an unknown class on both sides
// stays unknown).
func UnionPlacement(l, r core.Distribution) (core.Distribution, Code) {
	if l.Kind != r.Kind {
		return core.Distribution{}, CodeUnionPlacement
	}
	if l.Kind != core.DistHash {
		return core.Distribution{Kind: l.Kind}, ""
	}
	shared := algebra.NewColSet()
	for c := range l.Cols {
		if r.Cols.Has(c) {
			shared.Add(c)
		}
	}
	if len(shared) == 0 && len(l.Cols)+len(r.Cols) > 0 {
		return core.Distribution{}, CodeUnionPlacement
	}
	return core.Distribution{Kind: core.DistHash, Cols: shared}, ""
}

// restrict keeps the hash-class members kept by out and adds their
// pass-through renames.
func restrict(d core.Distribution, out func(algebra.ColumnID) bool, rename map[algebra.ColumnID][]algebra.ColumnID) core.Distribution {
	if d.Kind != core.DistHash {
		return core.Distribution{Kind: d.Kind}
	}
	cols := algebra.NewColSet()
	for id := range d.Cols {
		if out(id) {
			cols.Add(id)
		}
		for _, nid := range rename[id] {
			if out(nid) {
				cols.Add(nid)
			}
		}
	}
	return core.Distribution{Kind: core.DistHash, Cols: cols}
}
