package transval

import (
	"fmt"
	"sort"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/planverify"
	"pdwqo/internal/types"
)

// absCol is one column in the abstract state: its identity, derived type,
// nullability bit (3VL: true = a NULL can reach this column), and the set
// of base columns it descends from ("table.column" strings).
type absCol struct {
	ID       algebra.ColumnID
	Type     types.Kind
	Nullable bool
	Origins  map[string]struct{}
}

// absRel is the abstract state of one intermediate relation: its columns
// and its derived placement.
type absRel struct {
	cols []absCol
	dist core.Distribution
}

func (r *absRel) byID(id algebra.ColumnID) *absCol {
	for i := range r.cols {
		if r.cols[i].ID == id {
			return &r.cols[i]
		}
	}
	return nil
}

func cloneCols(cols []absCol) []absCol {
	out := make([]absCol, len(cols))
	copy(out, cols)
	return out
}

func mergeOrigins(sets ...map[string]struct{}) map[string]struct{} {
	out := map[string]struct{}{}
	for _, s := range sets {
		for k := range s {
			out[k] = struct{}{}
		}
	}
	return out
}

// --- Scalar analysis over abstract columns ---
//
// These mirror the algebra's own Type() derivation but resolve column
// references through the abstract state instead of trusting the ColRef's
// embedded metadata, so both sides of the comparison derive independently.

type colLookup func(algebra.ColumnID) *absCol

func typeOfScalar(e algebra.Scalar, look colLookup) types.Kind {
	switch x := e.(type) {
	case *algebra.ColRef:
		if c := look(x.ID); c != nil {
			return c.Type
		}
		return x.Meta.Type
	case *algebra.Const:
		return x.Val.Kind()
	case *algebra.Binary:
		if x.Op.IsComparison() || x.Op == binOpAnd || x.Op == binOpOr {
			return types.KindBool
		}
		if x.Op == binOpDiv {
			return types.KindFloat
		}
		lt, rt := typeOfScalar(x.L, look), typeOfScalar(x.R, look)
		if lt == types.KindFloat || rt == types.KindFloat {
			return types.KindFloat
		}
		if lt == types.KindNull {
			return rt
		}
		return lt
	case *algebra.Not, *algebra.IsNull, *algebra.Like, *algebra.InList:
		return types.KindBool
	case *algebra.Neg:
		return typeOfScalar(x.E, look)
	case *algebra.Func:
		return x.Out
	case *algebra.Case:
		for _, w := range x.Whens {
			if t := typeOfScalar(w.Then, look); t != types.KindNull {
				return t
			}
		}
		if x.Else != nil {
			return typeOfScalar(x.Else, look)
		}
		return types.KindNull
	case *algebra.Cast:
		return x.To
	default:
		return types.KindNull
	}
}

func nullableScalar(e algebra.Scalar, look colLookup) bool {
	switch x := e.(type) {
	case *algebra.ColRef:
		if c := look(x.ID); c != nil {
			return c.Nullable
		}
		return true
	case *algebra.Const:
		// A parameterized constant re-binds to literal text, never NULL.
		if x.Param > 0 {
			return false
		}
		return x.Val.IsNull()
	case *algebra.Binary:
		return nullableScalar(x.L, look) || nullableScalar(x.R, look)
	case *algebra.Not:
		return nullableScalar(x.E, look)
	case *algebra.Neg:
		return nullableScalar(x.E, look)
	case *algebra.IsNull:
		return false
	case *algebra.Like:
		return nullableScalar(x.E, look)
	case *algebra.InList:
		n := nullableScalar(x.E, look)
		for _, el := range x.List {
			n = n || nullableScalar(el, look)
		}
		return n
	case *algebra.Func:
		// Every bound scalar function (DATEADD, YEAR, SUBSTRING) is
		// NULL-propagating, matching vec's OrNulls convention.
		for _, a := range x.Args {
			if nullableScalar(a, look) {
				return true
			}
		}
		return false
	case *algebra.Case:
		for _, w := range x.Whens {
			if nullableScalar(w.Then, look) {
				return true
			}
		}
		if x.Else == nil {
			return true
		}
		return nullableScalar(x.Else, look)
	case *algebra.Cast:
		return nullableScalar(x.E, look)
	default:
		return true
	}
}

func originsScalar(e algebra.Scalar, look colLookup) map[string]struct{} {
	out := map[string]struct{}{}
	algebra.VisitScalar(e, func(s algebra.Scalar) {
		if cr, ok := s.(*algebra.ColRef); ok {
			if c := look(cr.ID); c != nil {
				for k := range c.Origins {
					out[k] = struct{}{}
				}
			}
		}
	})
	return out
}

// nullDeps returns the columns whose NULL forces the value expression to
// evaluate to NULL. CASE is conservatively empty: a CASE can mask a NULL
// input (WHEN c IS NULL THEN 0 ELSE c END), so its inputs must not be
// treated as killed by a comparison over the CASE.
func nullDeps(e algebra.Scalar) algebra.ColSet {
	out := algebra.NewColSet()
	switch x := e.(type) {
	case *algebra.ColRef:
		out.Add(x.ID)
	case *algebra.Binary:
		if !x.Op.IsComparison() && x.Op != binOpAnd && x.Op != binOpOr {
			out = out.Union(nullDeps(x.L))
			out = out.Union(nullDeps(x.R))
		}
	case *algebra.Neg:
		out = out.Union(nullDeps(x.E))
	case *algebra.Cast:
		out = out.Union(nullDeps(x.E))
	case *algebra.Func:
		for _, a := range x.Args {
			out = out.Union(nullDeps(a))
		}
	}
	return out
}

// killSet returns the columns a filter conjunct proves non-NULL on the
// rows it passes: a comparison, LIKE or IN yields UNKNOWN (filtered out)
// whenever one of its null-dependencies is NULL; IS NOT NULL kills its
// dependencies directly. OR, NOT, plain IS NULL and CASE conjuncts kill
// nothing.
func killSet(conj algebra.Scalar) algebra.ColSet {
	out := algebra.NewColSet()
	switch x := conj.(type) {
	case *algebra.Binary:
		if x.Op.IsComparison() {
			out = out.Union(nullDeps(x.L))
			out = out.Union(nullDeps(x.R))
		}
	case *algebra.Like:
		out = out.Union(nullDeps(x.E))
	case *algebra.InList:
		out = out.Union(nullDeps(x.E))
	case *algebra.IsNull:
		if x.Negated {
			out = out.Union(nullDeps(x.E))
		}
	}
	return out
}

func applyKills(cols []absCol, kills algebra.ColSet) {
	for i := range cols {
		if kills.Has(cols[i].ID) {
			cols[i].Nullable = false
		}
	}
}

// --- Plan-side abstract interpreter ---

// planInterp evaluates the abstract state of every plan option, memoized,
// and records the violations of the step being validated.
type planInterp struct {
	rels      map[*core.Option]*absRel
	moveDest  map[*core.Option]string
	slotKinds map[int]types.Kind
	vs        []planverify.Violation
	step      int // DSQL step being validated, for violation coordinates
}

func newPlanInterp() *planInterp {
	return &planInterp{
		rels:      map[*core.Option]*absRel{},
		moveDest:  map[*core.Option]string{},
		slotKinds: map[int]types.Kind{},
		step:      -1,
	}
}

func (pi *planInterp) violatef(code planverify.Code, format string, args ...any) {
	pi.vs = append(pi.vs, planverify.Violation{
		Code: code, Step: pi.step, Group: -1, Detail: fmt.Sprintf(format, args...),
	})
}

// collectSlotKinds records the value kind of every parameter slot in the
// plan, so the SQL-side interpreter can type re-parsed placeholders.
func (pi *planInterp) collectSlotKinds(o *core.Option) {
	o.Visit(func(n *core.Option) {
		if n.Op == nil {
			return
		}
		for _, s := range algebra.OperatorScalars(n.Op) {
			algebra.VisitScalar(s, func(e algebra.Scalar) {
				if c, ok := e.(*algebra.Const); ok {
					if slot, ok := c.Slot(); ok {
						pi.slotKinds[slot] = c.Val.Kind()
					}
				}
			})
		}
	})
}

// rel returns the abstract state of an option, deriving it on first use.
func (pi *planInterp) rel(o *core.Option) *absRel {
	if r, ok := pi.rels[o]; ok {
		return r
	}
	r := pi.derive(o)
	pi.rels[o] = r
	return r
}

// derive computes the abstract state bottom-up from the inputs' derived
// states: columns from the operator, placement by planverify's rules.
// Where the rules reject the derived inputs the recorded placement
// stands in, so later steps stay analyzable; whether the recorded
// placements follow from each other is planverify.CheckPlan's to report.
func (pi *planInterp) derive(o *core.Option) *absRel {
	ins := make([]*absRel, len(o.Inputs))
	dists := make([]core.Distribution, len(o.Inputs))
	for i, in := range o.Inputs {
		ins[i] = pi.rel(in)
		dists[i] = ins[i].dist
	}
	r := &absRel{cols: deriveCols(o, ins), dist: o.Dist}
	if d, code := planverify.Placement(o, dists); code == "" {
		r.dist = d
	}
	return r
}

// deriveCols derives an option's output columns from its inputs'.
func deriveCols(o *core.Option, ins []*absRel) []absCol {
	if o.Move != nil {
		return cloneCols(ins[0].cols)
	}
	switch op := o.Op.(type) {
	case *algebra.Get:
		cols := make([]absCol, len(op.Cols))
		for i, c := range op.Cols {
			cols[i] = absCol{
				ID: c.ID, Type: c.Type, Nullable: false,
				Origins: map[string]struct{}{op.Table.Name + "." + c.Name: {}},
			}
		}
		return cols

	case *algebra.Values:
		cols := make([]absCol, len(op.Cols))
		for i, c := range op.Cols {
			nullable := len(op.Rows) == 0
			for _, row := range op.Rows {
				if i < len(row) && row[i].IsNull() {
					nullable = true
				}
			}
			cols[i] = absCol{ID: c.ID, Type: c.Type, Nullable: nullable, Origins: map[string]struct{}{}}
		}
		return cols

	case *algebra.Select:
		cols := cloneCols(ins[0].cols)
		for _, c := range algebra.Conjuncts(op.Filter) {
			applyKills(cols, killSet(c))
		}
		return cols

	case *algebra.Sort:
		return cloneCols(ins[0].cols)

	case *algebra.Project:
		in := ins[0]
		cols := make([]absCol, len(op.Defs))
		for i, d := range op.Defs {
			if cr, ok := d.Expr.(*algebra.ColRef); ok {
				if src := in.byID(cr.ID); src != nil {
					cols[i] = absCol{ID: d.ID, Type: src.Type, Nullable: src.Nullable, Origins: src.Origins}
					continue
				}
			}
			cols[i] = absCol{
				ID:       d.ID,
				Type:     typeOfScalar(d.Expr, in.byID),
				Nullable: nullableScalar(d.Expr, in.byID),
				Origins:  originsScalar(d.Expr, in.byID),
			}
		}
		return cols

	case *algebra.Join:
		return joinCols(op, ins[0], ins[1])

	case *algebra.GroupBy:
		return groupByCols(op, ins[0])

	case *algebra.UnionAll:
		l, r := ins[0], ins[1]
		cols := cloneCols(l.cols)
		for i := range cols {
			if i < len(r.cols) {
				cols[i].Nullable = cols[i].Nullable || r.cols[i].Nullable
				cols[i].Origins = mergeOrigins(cols[i].Origins, r.cols[i].Origins)
			}
		}
		return cols
	}
	return nil
}

func joinCols(op *algebra.Join, l, r *absRel) []absCol {
	var cols []absCol
	switch op.Kind {
	case algebra.JoinSemi:
		cols = cloneCols(l.cols)
		for _, c := range algebra.Conjuncts(op.On) {
			applyKills(cols, killSet(c))
		}
	case algebra.JoinAnti:
		// NOT EXISTS keeps exactly the rows the condition could not match,
		// including NULL-keyed ones: no kills.
		cols = cloneCols(l.cols)
	case algebra.JoinLeftOuter:
		cols = append(cloneCols(l.cols), cloneCols(r.cols)...)
		for i := len(l.cols); i < len(cols); i++ {
			cols[i].Nullable = true
		}
	case algebra.JoinFullOuter:
		cols = append(cloneCols(l.cols), cloneCols(r.cols)...)
		for i := range cols {
			cols[i].Nullable = true
		}
	case algebra.JoinCross:
		cols = append(cloneCols(l.cols), cloneCols(r.cols)...)
	default: // inner
		cols = append(cloneCols(l.cols), cloneCols(r.cols)...)
		for _, c := range algebra.Conjuncts(op.On) {
			applyKills(cols, killSet(c))
		}
	}
	return cols
}

func groupByCols(op *algebra.GroupBy, in *absRel) []absCol {
	keyed := len(op.Keys) > 0
	cols := make([]absCol, 0, len(op.Keys)+len(op.Aggs))
	for _, k := range op.Keys {
		if src := in.byID(k); src != nil {
			cols = append(cols, *src)
		} else {
			cols = append(cols, absCol{ID: k, Origins: map[string]struct{}{}})
		}
	}
	for _, a := range op.Aggs {
		rt := types.KindInt
		if a.Func != algebra.AggCount && a.Arg != nil {
			rt = typeOfScalar(a.Arg, in.byID)
		}
		nullable := false
		if a.Func != algebra.AggCount {
			if !keyed {
				// A keyless SUM/MIN/MAX over an empty (or empty-per-node)
				// input returns NULL.
				nullable = true
			} else {
				nullable = nullableScalar(a.Arg, in.byID)
			}
		}
		cols = append(cols, absCol{ID: a.ID, Type: rt, Nullable: nullable, Origins: originsScalar(a.Arg, in.byID)})
	}
	return cols
}

// --- Fragment collection ---

// fragAcc accumulates the comparable content of one step's relational
// fragment: canonical predicate conjuncts (as a multiset), referenced base
// tables, and referenced temp tables (inputs materialized by earlier
// steps).
type fragAcc struct {
	preds  []string
	tables map[string]struct{}
	temps  map[string]struct{}
}

func newFragAcc() *fragAcc {
	return &fragAcc{tables: map[string]struct{}{}, temps: map[string]struct{}{}}
}

func (a *fragAcc) addPred(canon string) { a.preds = append(a.preds, canon) }

func (a *fragAcc) sortedPreds() []string {
	out := append([]string(nil), a.preds...)
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// collect walks the plan fragment rooted at o — stopping at move
// boundaries, which are inputs materialized by earlier steps — gathering
// the content the re-parsed SQL must reproduce.
func (pi *planInterp) collect(o *core.Option, acc *fragAcc) {
	if o.Move != nil {
		acc.temps[pi.moveDest[o]] = struct{}{}
		return
	}
	switch op := o.Op.(type) {
	case *algebra.Get:
		acc.tables[op.Table.Name] = struct{}{}
	case *algebra.Select:
		for _, c := range algebra.Conjuncts(op.Filter) {
			if scalarValueBearing(c) {
				acc.addPred(canonScalar(c))
			}
		}
	case *algebra.Join:
		for _, c := range algebra.Conjuncts(op.On) {
			if scalarValueBearing(c) {
				acc.addPred(canonScalar(c))
			}
		}
	}
	for _, in := range o.Inputs {
		pi.collect(in, acc)
	}
}

// ColumnLineage is the public lineage record of one output column: the set
// of base columns it descends from, with its derived type and nullability.
// This is the hook multi-query optimization needs — common-subexpression
// detection across MEMOs is a lineage query.
type ColumnLineage struct {
	Column   algebra.ColumnID
	Name     string
	Type     types.Kind
	Nullable bool
	// Origins are "table.column" strings, sorted.
	Origins []string
}

// Lineage abstractly interprets a distributed plan and returns, for every
// root output column, the base columns it descends from along with the
// derived nullability and type. It is nil-safe and never fails: columns
// that cannot be resolved simply report no origins.
func Lineage(plan *core.Plan) map[algebra.ColumnID]ColumnLineage {
	out := map[algebra.ColumnID]ColumnLineage{}
	if plan == nil || plan.Root == nil {
		return out
	}
	pi := newPlanInterp()
	root := pi.rel(plan.Root)
	for _, c := range root.cols {
		name := ""
		for _, m := range plan.Root.OutCols {
			if m.ID == c.ID {
				name = m.Name
			}
		}
		out[c.ID] = ColumnLineage{
			Column:   c.ID,
			Name:     name,
			Type:     c.Type,
			Nullable: c.Nullable,
			Origins:  sortedKeys(c.Origins),
		}
	}
	return out
}
