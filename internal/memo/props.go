package memo

import (
	"math"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/stats"
	"pdwqo/internal/types"
)

// ColStat is the per-column statistical summary carried on every group.
// Base-table columns keep a pointer to the shell database's histogram for
// selectivity estimation; derived columns only track NDV and width.
type ColStat struct {
	NDV      float64
	NullFrac float64
	Width    float64
	Hist     *stats.Column // nil for derived columns
}

// LogicalProps are the shared properties of every expression in a group:
// output schema, estimated cardinality (the paper's Y), average row width
// (the paper's w), per-column statistics, and known unique keys.
type LogicalProps struct {
	OutCols []algebra.ColumnMeta
	Rows    float64
	Width   float64
	Cols    map[algebra.ColumnID]*ColStat
	Keys    []algebra.ColSet // each set of columns is unique in the output
}

// ColStat resolves statistics for an output column, or nil.
func (p *LogicalProps) ColStat(id algebra.ColumnID) *ColStat {
	if p == nil {
		return nil
	}
	return p.Cols[id]
}

// UniqueOn reports whether some known key is covered by cols.
func (p *LogicalProps) UniqueOn(cols algebra.ColSet) bool {
	for _, k := range p.Keys {
		if len(k) > 0 && k.SubsetOf(cols) {
			return true
		}
	}
	return false
}

// deriveProps computes logical properties for a group from its first
// (canonical) expression; all expressions in a group share them.
func (m *Memo) deriveProps(e *GroupExpr) *LogicalProps {
	childProps := make([]*LogicalProps, len(e.Children))
	childSchemas := make([][]algebra.ColumnMeta, len(e.Children))
	for i, c := range e.Children {
		childProps[i] = m.Groups[c].Props
		childSchemas[i] = childProps[i].OutCols
	}
	p := &LogicalProps{
		OutCols: algebra.OutputColsFromSchemas(e.Op, childSchemas),
		Cols:    map[algebra.ColumnID]*ColStat{},
	}

	switch op := e.Op.(type) {
	case *algebra.Get:
		tbl := op.Table
		p.Rows = math.Max(tbl.RowCount(), 1)
		for _, c := range op.Cols {
			cs := &ColStat{NDV: p.Rows, Width: float64(c.Type.Width())}
			if tbl.Stats != nil {
				if h := tbl.Stats.Column(c.Name); h != nil {
					cs.NDV = math.Max(h.NDV, 1)
					cs.Hist = h
					if h.RowCount > 0 {
						cs.NullFrac = h.NullCount / h.RowCount
					}
					if h.AvgWidth > 0 {
						cs.Width = h.AvgWidth
					}
				}
			}
			p.Cols[c.ID] = cs
		}
		if len(op.Table.PrimaryKey) > 0 {
			pk := algebra.NewColSet()
			for _, name := range op.Table.PrimaryKey {
				for _, c := range op.Cols {
					if strings.EqualFold(c.Name, name) {
						pk.Add(c.ID)
					}
				}
			}
			if len(pk) == len(op.Table.PrimaryKey) {
				p.Keys = append(p.Keys, pk)
			}
		}

	case *algebra.Values:
		p.Rows = float64(len(op.Rows))
		for _, c := range op.Cols {
			p.Cols[c.ID] = &ColStat{NDV: p.Rows, Width: float64(c.Type.Width())}
		}

	case *algebra.Select:
		in := childProps[0]
		sel := m.selectivity(op.Filter, in)
		p.Rows = math.Max(in.Rows*sel, 0)
		copyScaledStats(p, in, in.Rows)
		p.Keys = in.Keys

	case *algebra.Project:
		in := childProps[0]
		p.Rows = in.Rows
		for _, d := range op.Defs {
			if c, ok := d.Expr.(*algebra.ColRef); ok {
				if cs := in.ColStat(c.ID); cs != nil {
					p.Cols[d.ID] = cs
					continue
				}
			}
			p.Cols[d.ID] = &ColStat{NDV: math.Max(in.Rows, 1), Width: float64(d.Expr.Type().Width())}
		}
		// Keys survive if all their columns pass through.
		out := algebra.NewColSet()
		for _, d := range op.Defs {
			if c, ok := d.Expr.(*algebra.ColRef); ok && c.ID == d.ID {
				out.Add(d.ID)
			}
		}
		for _, k := range in.Keys {
			if k.SubsetOf(out) {
				p.Keys = append(p.Keys, k)
			}
		}

	case *algebra.Join:
		p.Rows, p.Keys = m.joinCardinality(op, childProps)
		copyScaledStats(p, childProps[0], childProps[0].Rows)
		if op.Kind != algebra.JoinSemi && op.Kind != algebra.JoinAnti {
			copyScaledStats(p, childProps[1], childProps[1].Rows)
		}

	case *algebra.GroupBy:
		in := childProps[0]
		ndvs := make([]float64, 0, len(op.Keys))
		for _, k := range op.Keys {
			if cs := in.ColStat(k); cs != nil {
				ndvs = append(ndvs, cs.NDV)
			} else {
				ndvs = append(ndvs, in.Rows)
			}
		}
		p.Rows = stats.GroupCardinality(in.Rows, in.Rows, ndvs)
		if len(op.Keys) == 0 {
			p.Rows = 1
		}
		for _, k := range op.Keys {
			if cs := in.ColStat(k); cs != nil {
				p.Cols[k] = &ColStat{NDV: math.Min(cs.NDV, p.Rows), NullFrac: cs.NullFrac, Width: cs.Width, Hist: cs.Hist}
			}
		}
		for _, a := range op.Aggs {
			p.Cols[a.ID] = &ColStat{NDV: p.Rows, Width: float64(a.ResultType().Width())}
		}
		if len(op.Keys) > 0 && op.Phase != algebra.AggPartial {
			p.Keys = append(p.Keys, algebra.NewColSet(op.Keys...))
		}

	case *algebra.Sort:
		in := childProps[0]
		p.Rows = in.Rows
		if op.Top > 0 {
			p.Rows = math.Min(p.Rows, float64(op.Top))
		}
		copyScaledStats(p, in, in.Rows)
		p.Keys = in.Keys

	case *algebra.UnionAll:
		p.Rows = childProps[0].Rows + childProps[1].Rows
		copyScaledStats(p, childProps[0], childProps[0].Rows)

	default:
		// Physical wrappers never create groups; nothing else should.
		p.Rows = 1
	}

	if p.Rows < 0 || math.IsNaN(p.Rows) {
		p.Rows = 0
	}
	// Rescale column NDVs down to the new row count and compute width.
	for _, c := range p.OutCols {
		cs := p.Cols[c.ID]
		if cs == nil {
			cs = &ColStat{NDV: math.Max(p.Rows, 1), Width: float64(c.Type.Width())}
			p.Cols[c.ID] = cs
		}
		p.Width += cs.Width
	}
	return p
}

// copyScaledStats copies column stats from in, scaling NDVs to the target
// row count via the standard distinct-after-filter approximation.
func copyScaledStats(p *LogicalProps, in *LogicalProps, inRows float64) {
	for id, cs := range in.Cols {
		ndv := stats.DistinctAfterFilter(cs.NDV, inRows, p.Rows)
		p.Cols[id] = &ColStat{NDV: math.Max(ndv, 1), NullFrac: cs.NullFrac, Width: cs.Width, Hist: cs.Hist}
	}
}

// joinCardinality estimates join output rows and derives surviving keys.
func (m *Memo) joinCardinality(op *algebra.Join, childProps []*LogicalProps) (float64, []algebra.ColSet) {
	l, r := childProps[0], childProps[1]
	cross := math.Max(l.Rows, 1) * math.Max(r.Rows, 1)
	sel := 1.0
	eqSeen := map[string]bool{}
	leftCols := algebra.NewColSet()
	for _, c := range l.OutCols {
		leftCols.Add(c.ID)
	}
	rightEq := algebra.NewColSet()
	for _, conj := range algebra.Conjuncts(op.On) {
		if a, b, ok := algebra.EquiJoinSides(conj); ok {
			la, rb := a, b
			if !leftCols.Has(la) {
				la, rb = b, a
			}
			if leftCols.Has(la) && !leftCols.Has(rb) {
				// Cross-side equality: containment formula.
				key := conj.Fingerprint()
				if eqSeen[key] {
					continue
				}
				eqSeen[key] = true
				rightEq.Add(rb)
				d := 1.0
				if cs := l.ColStat(la); cs != nil {
					d = math.Max(d, cs.NDV)
				}
				if cs := r.ColStat(rb); cs != nil {
					d = math.Max(d, cs.NDV)
				}
				sel /= d
				continue
			}
		}
		sel *= m.selectivity(conj, joinedProps(l, r))
	}
	inner := math.Max(cross*sel, 0)

	var keys []algebra.ColSet
	switch op.Kind {
	case algebra.JoinInner, algebra.JoinCross:
		// If the right side is unique on its equi-join columns, left keys
		// survive (each left row matches ≤ 1 right row), and vice versa.
		if r.UniqueOn(rightEq) {
			keys = append(keys, l.Keys...)
			// Each left row matches at most one right row.
			inner = math.Min(inner, math.Max(l.Rows, 0))
		}
		return inner, keys
	case algebra.JoinLeftOuter:
		return math.Max(inner, l.Rows), l.Keys
	case algebra.JoinFullOuter:
		return math.Max(inner, l.Rows+r.Rows), nil
	case algebra.JoinSemi:
		frac := semiFraction(l, r, op)
		return l.Rows * frac, l.Keys
	case algebra.JoinAnti:
		frac := semiFraction(l, r, op)
		return l.Rows * (1 - frac), l.Keys
	}
	return inner, nil
}

// semiFraction estimates the fraction of left rows with at least one match.
func semiFraction(l, r *LogicalProps, op *algebra.Join) float64 {
	frac := 0.9 // default: most rows match
	leftCols := algebra.NewColSet()
	for _, c := range l.OutCols {
		leftCols.Add(c.ID)
	}
	for _, conj := range algebra.Conjuncts(op.On) {
		a, b, ok := algebra.EquiJoinSides(conj)
		if !ok {
			continue
		}
		la, rb := a, b
		if !leftCols.Has(la) {
			la, rb = b, a
		}
		lcs, rcs := l.ColStat(la), r.ColStat(rb)
		if lcs == nil || rcs == nil || lcs.NDV <= 0 {
			continue
		}
		// Fraction of left distinct values present on the right, assuming
		// containment of the smaller NDV set.
		f := math.Min(1, rcs.NDV/lcs.NDV)
		frac = math.Min(frac, f)
	}
	return stats.Clamp(frac, 0, 1)
}

// joinedProps builds a throwaway props with both sides' columns visible,
// for estimating residual (non-equi) join predicates.
func joinedProps(l, r *LogicalProps) *LogicalProps {
	p := &LogicalProps{Rows: l.Rows * r.Rows, Cols: map[algebra.ColumnID]*ColStat{}}
	for id, cs := range l.Cols {
		p.Cols[id] = cs
	}
	for id, cs := range r.Cols {
		p.Cols[id] = cs
	}
	return p
}

// selectivity estimates the fraction of input rows satisfying a predicate.
func (m *Memo) selectivity(f algebra.Scalar, in *LogicalProps) float64 {
	if f == nil {
		return 1
	}
	sel := 1.0
	for _, conj := range algebra.Conjuncts(f) {
		sel *= m.conjunctSelectivity(conj, in)
	}
	return stats.Clamp(sel, 0, 1)
}

func (m *Memo) conjunctSelectivity(e algebra.Scalar, in *LogicalProps) float64 {
	switch x := e.(type) {
	case *algebra.Const:
		if x.Val.IsNull() {
			return 0
		}
		if x.Val.Kind() == types.KindBool {
			if x.Val.Bool() {
				return 1
			}
			return 0
		}
		return 1

	case *algebra.Binary:
		switch x.Op {
		case sqlparser.OpOr:
			a := m.conjunctSelectivity(x.L, in)
			b := m.conjunctSelectivity(x.R, in)
			return stats.Clamp(a+b-a*b, 0, 1)
		case sqlparser.OpAnd:
			return m.conjunctSelectivity(x.L, in) * m.conjunctSelectivity(x.R, in)
		}
		if !x.Op.IsComparison() {
			return 1
		}
		// col cmp const
		if col, ok := x.L.(*algebra.ColRef); ok {
			if k, ok2 := x.R.(*algebra.Const); ok2 {
				return columnCmpSelectivity(in.ColStat(col.ID), x.Op, k.Val)
			}
		}
		if col, ok := x.R.(*algebra.ColRef); ok {
			if k, ok2 := x.L.(*algebra.Const); ok2 {
				return columnCmpSelectivity(in.ColStat(col.ID), x.Op.Flip(), k.Val)
			}
		}
		// col = col within one input.
		if a, b, ok := algebra.EquiJoinSides(x); ok {
			d := 1.0
			if cs := in.ColStat(a); cs != nil {
				d = math.Max(d, cs.NDV)
			}
			if cs := in.ColStat(b); cs != nil {
				d = math.Max(d, cs.NDV)
			}
			return 1 / d
		}
		if x.Op == sqlparser.OpEq {
			return stats.DefaultEqSel
		}
		return stats.DefaultRangeSel

	case *algebra.Not:
		return stats.Clamp(1-m.conjunctSelectivity(x.E, in), 0, 1)

	case *algebra.IsNull:
		var nf float64 = stats.DefaultEqSel
		if c, ok := x.E.(*algebra.ColRef); ok {
			if cs := in.ColStat(c.ID); cs != nil {
				nf = cs.NullFrac
			}
		}
		if x.Negated {
			return 1 - nf
		}
		return nf

	case *algebra.Like:
		sel := stats.DefaultLikeSel
		if c, ok := x.E.(*algebra.ColRef); ok {
			if cs := in.ColStat(c.ID); cs != nil && cs.Hist != nil {
				if i := likePrefixLen(x.Pattern); i > 0 {
					sel = cs.Hist.SelectivityLikePrefix(x.Pattern[:i])
				}
			}
		}
		if x.Negated {
			return stats.Clamp(1-sel, 0, 1)
		}
		return sel

	case *algebra.InList:
		sel := 0.0
		for _, el := range x.List {
			if c, ok := x.E.(*algebra.ColRef); ok {
				if k, ok2 := el.(*algebra.Const); ok2 {
					sel += columnCmpSelectivity(in.ColStat(c.ID), sqlparser.OpEq, k.Val)
					continue
				}
			}
			sel += stats.DefaultEqSel
		}
		sel = stats.Clamp(sel, 0, 1)
		if x.Negated {
			return 1 - sel
		}
		return sel

	default:
		return stats.DefaultRangeSel
	}
}

// likePrefixLen returns the length of the literal prefix of a LIKE pattern.
func likePrefixLen(p string) int {
	for i := 0; i < len(p); i++ {
		if p[i] == '%' || p[i] == '_' {
			return i
		}
	}
	return len(p)
}

// columnCmpSelectivity estimates `col op const` with histograms when
// available.
func columnCmpSelectivity(cs *ColStat, op sqlparser.BinOp, v types.Value) float64 {
	if v.IsNull() {
		return 0
	}
	if cs == nil {
		if op == sqlparser.OpEq {
			return stats.DefaultEqSel
		}
		return stats.DefaultRangeSel
	}
	if cs.Hist != nil {
		switch op {
		case sqlparser.OpEq:
			return cs.Hist.SelectivityEq(v)
		case sqlparser.OpNe:
			return stats.Clamp(1-cs.Hist.SelectivityEq(v), 0, 1)
		case sqlparser.OpLt:
			return cs.Hist.SelectivityRange(types.Null, v, false, false)
		case sqlparser.OpLe:
			return cs.Hist.SelectivityRange(types.Null, v, false, true)
		case sqlparser.OpGt:
			return cs.Hist.SelectivityRange(v, types.Null, false, false)
		case sqlparser.OpGe:
			return cs.Hist.SelectivityRange(v, types.Null, true, false)
		}
	}
	switch op {
	case sqlparser.OpEq:
		if cs.NDV > 0 {
			return stats.Clamp(1/cs.NDV, 0, 1)
		}
		return stats.DefaultEqSel
	case sqlparser.OpNe:
		if cs.NDV > 0 {
			return stats.Clamp(1-1/cs.NDV, 0, 1)
		}
		return 1 - stats.DefaultEqSel
	default:
		return stats.DefaultRangeSel
	}
}
