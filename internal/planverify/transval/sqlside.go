package transval

import (
	"fmt"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/planverify"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// The SQL-side interpreter re-derives the abstract state of a DSQL step
// from its re-parsed text alone: column identities come from the
// generator's c<id> aliases, base-table metadata from the shell catalog,
// and temp-table metadata from the validated boundary state of earlier
// steps. It never looks at the producing plan fragment, so agreement
// between the two sides is evidence rather than tautology.

// scopeItem is one name source visible in a SELECT: a base table, a temp
// table, or a derived table, with per-column resolvable names.
type scopeItem struct {
	alias string
	cols  []absCol
	names []string
	// hashName is the distribution column name when this item is a scan of
	// a hash-distributed base table; base columns carry no c<id> identity,
	// so class membership is decided by name at the scan's select list.
	hashName string
}

// scope chains name sources; EXISTS bodies resolve through their parent.
type scope struct {
	parent *scope
	items  []scopeItem
}

func (sc *scope) resolve(table, name string) (*absCol, *scopeItem, error) {
	for s := sc; s != nil; s = s.parent {
		for i := range s.items {
			it := &s.items[i]
			if table != "" && !strings.EqualFold(it.alias, table) {
				continue
			}
			for j := range it.cols {
				if strings.EqualFold(it.names[j], name) {
					return &it.cols[j], it, nil
				}
			}
			if table != "" {
				return nil, nil, fmt.Errorf("no column %q in %q", name, table)
			}
		}
	}
	return nil, nil, fmt.Errorf("unresolved column reference %q", name)
}

// boundFrom is the result of binding one FROM factor.
type boundFrom struct {
	items    []scopeItem
	dist     core.Distribution
	hashName string
}

// sqlInterp interprets re-parsed step SQL against the catalog and the
// temp-table boundary state registered by earlier steps.
type sqlInterp struct {
	shell     *catalog.Shell
	temps     map[string]*absRel
	slotKinds map[int]types.Kind
	acc       *fragAcc
}

// parseColName recognizes the generator's c<id> column aliases. An id has
// at most nine digits, so that no alias overflows into a negative id.
func parseColName(s string) (algebra.ColumnID, bool) {
	if len(s) < 2 || len(s) > 10 || s[0] != 'c' {
		return 0, false
	}
	n := 0
	for i := 1; i < len(s); i++ {
		d := s[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return algebra.ColumnID(n), true
}

func colAliasNames(cols []absCol) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = fmt.Sprintf("c%d", c.ID)
	}
	return names
}

// bindRef binds one FROM factor into scope items plus a derived placement.
func (si *sqlInterp) bindRef(ref sqlparser.TableRef) (*boundFrom, error) {
	switch x := ref.(type) {
	case *sqlparser.TableName:
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		if tr, ok := si.temps[x.Name]; ok {
			si.acc.temps[x.Name] = struct{}{}
			cols := cloneCols(tr.cols)
			return &boundFrom{
				items: []scopeItem{{alias: alias, cols: cols, names: colAliasNames(cols)}},
				dist:  tr.dist,
			}, nil
		}
		tbl := si.shell.Table(x.Name)
		if tbl == nil {
			return nil, fmt.Errorf("unknown table %q", x.Name)
		}
		si.acc.tables[tbl.Name] = struct{}{}
		cols := make([]absCol, len(tbl.Columns))
		names := make([]string, len(tbl.Columns))
		for i, c := range tbl.Columns {
			cols[i] = absCol{
				ID: -1, Type: c.Type, Nullable: false,
				Origins: map[string]struct{}{tbl.Name + "." + c.Name: {}},
			}
			names[i] = c.Name
		}
		bf := &boundFrom{
			items: []scopeItem{{alias: alias, cols: cols, names: names}},
			dist:  core.Distribution{Kind: core.DistReplicated},
		}
		if tbl.Dist.Kind == catalog.DistHash {
			bf.dist = core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet()}
			bf.hashName = tbl.Dist.Column
			bf.items[0].hashName = tbl.Dist.Column
		}
		return bf, nil

	case *sqlparser.DerivedTable:
		rel, err := si.selectRel(x.Select, nil, false, false)
		if err != nil {
			return nil, err
		}
		cols := cloneCols(rel.cols)
		return &boundFrom{
			items: []scopeItem{{alias: x.Alias, cols: cols, names: colAliasNames(cols)}},
			dist:  rel.dist,
		}, nil

	case *sqlparser.JoinRef:
		return si.bindJoin(x)
	}
	return nil, fmt.Errorf("unsupported table reference %T", ref)
}

func (si *sqlInterp) bindJoin(j *sqlparser.JoinRef) (*boundFrom, error) {
	l, err := si.bindRef(j.Left)
	if err != nil {
		return nil, err
	}
	r, err := si.bindRef(j.Right)
	if err != nil {
		return nil, err
	}
	if l.hashName != "" || r.hashName != "" {
		return nil, fmt.Errorf("join directly over a base table is not generated")
	}
	if j.Kind == sqlparser.JoinRight {
		return nil, fmt.Errorf("RIGHT JOIN is not generated")
	}
	items := append(append([]scopeItem{}, l.items...), r.items...)
	sc := &scope{items: items}

	conjs := splitAnd(j.On)
	var pairs [][2]algebra.ColumnID
	for _, c := range conjs {
		if si.valueBearing(c) {
			canon, err := si.canonExpr(c, sc)
			if err != nil {
				return nil, err
			}
			si.acc.addPred(canon)
		}
		if b, ok := c.(*sqlparser.BinExpr); ok && b.Op == sqlparser.OpEq {
			lc, lok := b.L.(*sqlparser.ColRef)
			rc, rok := b.R.(*sqlparser.ColRef)
			if lok && rok {
				a, _, err1 := sc.resolve(lc.Table, lc.Name)
				bb, _, err2 := sc.resolve(rc.Table, rc.Name)
				if err1 == nil && err2 == nil && a.ID >= 0 && bb.ID >= 0 {
					pairs = append(pairs, [2]algebra.ColumnID{a.ID, bb.ID})
				}
			}
		}
	}

	kind := algebra.JoinInner
	switch j.Kind {
	case sqlparser.JoinInner:
		for _, c := range conjs {
			deps, err := si.killConjExpr(c, sc)
			if err != nil {
				return nil, err
			}
			for _, d := range deps {
				d.Nullable = false
			}
		}
	case sqlparser.JoinLeft:
		kind = algebra.JoinLeftOuter
		for i := range items {
			if i >= len(l.items) {
				for k := range items[i].cols {
					items[i].cols[k].Nullable = true
				}
			}
		}
	case sqlparser.JoinFull:
		kind = algebra.JoinFullOuter
		for i := range items {
			for k := range items[i].cols {
				items[i].cols[k].Nullable = true
			}
		}
	case sqlparser.JoinCross:
		kind = algebra.JoinCross // no condition, no kills
	}

	d, code := planverify.JoinPlacement(kind, pairs, l.dist, r.dist)
	if code != "" {
		// The placement rules admit no movement-free combination; fall back
		// to the left side so the mismatch surfaces as a distribution
		// violation against the plan side rather than a bind failure.
		d = l.dist
	}
	return &boundFrom{items: items, dist: d}, nil
}

// selectRel interprets a SELECT (possibly a UNION ALL chain). When exists
// is set the statement is an EXISTS body: its select list is ignored and
// killOuter decides whether its WHERE conjuncts prove outer columns
// non-NULL (semi-join) or not (anti-join).
func (si *sqlInterp) selectRel(sel *sqlparser.SelectStmt, outer *scope, exists, killOuter bool) (*absRel, error) {
	out, err := si.branchRel(sel, outer, exists, killOuter)
	if err != nil {
		return nil, err
	}
	for u := sel.Union; u != nil; u = u.Union {
		br, err := si.branchRel(u, outer, exists, killOuter)
		if err != nil {
			return nil, err
		}
		if len(br.cols) != len(out.cols) {
			return nil, fmt.Errorf("union branches disagree on arity: %d vs %d", len(out.cols), len(br.cols))
		}
		for i := range out.cols {
			if out.cols[i].ID != br.cols[i].ID {
				return nil, fmt.Errorf("union branches disagree on column identity at position %d: c%d vs c%d",
					i, out.cols[i].ID, br.cols[i].ID)
			}
			out.cols[i].Nullable = out.cols[i].Nullable || br.cols[i].Nullable
			out.cols[i].Origins = mergeOrigins(out.cols[i].Origins, br.cols[i].Origins)
		}
		// Branches the rules reject would not have been generated: keep
		// the left placement and let the distribution comparison report.
		if d, code := planverify.UnionPlacement(out.dist, br.dist); code == "" {
			out.dist = d
		}
	}
	return out, nil
}

func (si *sqlInterp) branchRel(sel *sqlparser.SelectStmt, outer *scope, exists, killOuter bool) (*absRel, error) {
	if sel.Distinct {
		return nil, fmt.Errorf("SELECT DISTINCT is not generated")
	}
	if sel.Having != nil {
		return nil, fmt.Errorf("HAVING is not generated")
	}

	var items []scopeItem
	srcDist := core.Distribution{Kind: core.DistReplicated}
	hashName := ""
	switch len(sel.From) {
	case 0:
		// FROM-less literal row (Values); replicated like the operator.
	case 1:
		bf, err := si.bindRef(sel.From[0])
		if err != nil {
			return nil, err
		}
		items, srcDist, hashName = bf.items, bf.dist, bf.hashName
	default:
		return nil, fmt.Errorf("comma joins are not generated")
	}
	sc := &scope{parent: outer, items: items}

	doKills := !exists || killOuter
	if err := si.applyWhere(sel.Where, sc, doKills); err != nil {
		return nil, err
	}
	if exists {
		return &absRel{}, nil
	}

	for _, g := range sel.GroupBy {
		cr, ok := g.(*sqlparser.ColRef)
		if !ok {
			return nil, fmt.Errorf("non-column GROUP BY expression")
		}
		if _, _, err := sc.resolve(cr.Table, cr.Name); err != nil {
			return nil, err
		}
	}
	keyed := len(sel.GroupBy) > 0
	for _, ob := range sel.OrderBy {
		if cr, ok := ob.Expr.(*sqlparser.ColRef); ok {
			if _, _, err := sc.resolve(cr.Table, cr.Name); err != nil {
				return nil, err
			}
		}
	}

	type srcRef struct {
		col  *absCol
		name string
		item *scopeItem
	}
	out := make([]absCol, 0, len(sel.Items))
	pure := make([]*srcRef, 0, len(sel.Items))
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("star select items are not generated")
		}
		// Column-less Values render as a literal dummy column.
		if len(sel.Items) == 1 && strings.EqualFold(it.Alias, "dummy") {
			if _, ok := it.Expr.(*sqlparser.Lit); ok {
				return &absRel{dist: srcDist}, nil
			}
		}

		if f, ok := it.Expr.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
			id, err := si.itemID(it, sc)
			if err != nil {
				return nil, err
			}
			col, err := si.aggCol(f, sc, keyed)
			if err != nil {
				return nil, err
			}
			col.ID = id
			out = append(out, col)
			pure = append(pure, nil)
			continue
		}

		id, err := si.itemID(it, sc)
		if err != nil {
			return nil, err
		}
		t, err := si.exprType(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		n, err := si.exprNullable(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		org := map[string]struct{}{}
		si.exprOrigins(it.Expr, sc, org)
		out = append(out, absCol{ID: id, Type: t, Nullable: n, Origins: org})
		if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
			col, item, err := sc.resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, err
			}
			pure = append(pure, &srcRef{col: col, name: cr.Name, item: item})
		} else {
			pure = append(pure, nil)
		}
	}

	d := srcDist
	if d.Kind == core.DistHash {
		class := algebra.NewColSet()
		for i := range out {
			p := pure[i]
			if p == nil {
				continue
			}
			inClass := p.col.ID >= 0 && srcDist.Cols.Has(p.col.ID)
			if !inClass && hashName != "" && strings.EqualFold(p.name, hashName) {
				inClass = true
			}
			if inClass {
				class.Add(out[i].ID)
			}
		}
		d = core.Distribution{Kind: core.DistHash, Cols: class}
	}
	return &absRel{cols: out, dist: d}, nil
}

// itemID determines the identity of a select item: the generator's c<id>
// alias wins (union rename projections re-alias pass-through references);
// an unaliased pure column reference keeps its source identity.
func (si *sqlInterp) itemID(it sqlparser.SelectItem, sc *scope) (algebra.ColumnID, error) {
	if id, ok := parseColName(it.Alias); ok {
		return id, nil
	}
	if cr, ok := it.Expr.(*sqlparser.ColRef); ok {
		col, _, err := sc.resolve(cr.Table, cr.Name)
		if err != nil {
			return 0, err
		}
		if col.ID >= 0 {
			return col.ID, nil
		}
	}
	return 0, fmt.Errorf("cannot determine column identity of select item %q", sqlparser.FormatExpr(it.Expr))
}

func (si *sqlInterp) aggCol(f *sqlparser.FuncExpr, sc *scope, keyed bool) (absCol, error) {
	org := map[string]struct{}{}
	var arg sqlparser.Expr
	if !f.Star {
		if len(f.Args) != 1 {
			return absCol{}, fmt.Errorf("aggregate %s with %d arguments", f.Name, len(f.Args))
		}
		arg = f.Args[0]
		if _, err := si.exprType(arg, sc); err != nil {
			return absCol{}, err
		}
		si.exprOrigins(arg, sc, org)
	}
	switch f.Name {
	case "COUNT":
		return absCol{Type: types.KindInt, Nullable: false, Origins: org}, nil
	case "SUM", "MIN", "MAX":
		if arg == nil {
			return absCol{}, fmt.Errorf("aggregate %s requires an argument", f.Name)
		}
		t, err := si.exprType(arg, sc)
		if err != nil {
			return absCol{}, err
		}
		nullable := true
		if keyed {
			nullable, err = si.exprNullable(arg, sc)
			if err != nil {
				return absCol{}, err
			}
		}
		return absCol{Type: t, Nullable: nullable, Origins: org}, nil
	}
	return absCol{}, fmt.Errorf("unsupported aggregate %s in generated SQL", f.Name)
}

// applyWhere processes filter conjuncts: EXISTS bodies recurse as semi- or
// anti-join conditions, value-bearing conjuncts canonicalize into the
// predicate multiset, and comparisons prove their dependencies non-NULL.
func (si *sqlInterp) applyWhere(where sqlparser.Expr, sc *scope, doKills bool) error {
	for _, c := range splitAnd(where) {
		switch x := c.(type) {
		case *sqlparser.ExistsExpr:
			if err := si.existsBody(x.Select, sc, doKills && !x.Negated); err != nil {
				return err
			}
			continue
		case *sqlparser.NotExpr:
			if ex, ok := x.E.(*sqlparser.ExistsExpr); ok {
				if err := si.existsBody(ex.Select, sc, false); err != nil {
					return err
				}
				continue
			}
		}
		if si.valueBearing(c) {
			canon, err := si.canonExpr(c, sc)
			if err != nil {
				return err
			}
			si.acc.addPred(canon)
		}
		if doKills {
			deps, err := si.killConjExpr(c, sc)
			if err != nil {
				return err
			}
			for _, d := range deps {
				d.Nullable = false
			}
		}
	}
	return nil
}

func (si *sqlInterp) existsBody(sub *sqlparser.SelectStmt, outer *scope, kills bool) error {
	_, err := si.selectRel(sub, outer, true, kills)
	return err
}

func splitAnd(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinExpr); ok && b.Op == sqlparser.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []sqlparser.Expr{e}
}

func exprChildren(e sqlparser.Expr) []sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.BinExpr:
		return []sqlparser.Expr{x.L, x.R}
	case *sqlparser.NotExpr:
		return []sqlparser.Expr{x.E}
	case *sqlparser.NegExpr:
		return []sqlparser.Expr{x.E}
	case *sqlparser.IsNullExpr:
		return []sqlparser.Expr{x.E}
	case *sqlparser.LikeExpr:
		return []sqlparser.Expr{x.E, x.Pattern}
	case *sqlparser.InExpr:
		return append([]sqlparser.Expr{x.E}, x.List...)
	case *sqlparser.FuncExpr:
		return x.Args
	case *sqlparser.CaseExpr:
		var out []sqlparser.Expr
		for _, w := range x.Whens {
			out = append(out, w.Cond, w.Then)
		}
		if x.Else != nil {
			out = append(out, x.Else)
		}
		return out
	case *sqlparser.CastExpr:
		return []sqlparser.Expr{x.E}
	case *sqlparser.BetweenExpr:
		return []sqlparser.Expr{x.E, x.Lo, x.Hi}
	}
	return nil
}

// valueBearing reports whether the expression references any column or
// parameter slot; mirrors scalarValueBearing on the plan side.
func (si *sqlInterp) valueBearing(e sqlparser.Expr) bool {
	switch e.(type) {
	case nil:
		return false
	case *sqlparser.ColRef, *sqlparser.ParamExpr:
		return true
	case *sqlparser.SubqueryExpr, *sqlparser.ExistsExpr:
		return true
	}
	for _, c := range exprChildren(e) {
		if si.valueBearing(c) {
			return true
		}
	}
	return false
}

// exprType mirrors the plan side's typeOfScalar over re-parsed text.
func (si *sqlInterp) exprType(e sqlparser.Expr, sc *scope) (types.Kind, error) {
	switch x := e.(type) {
	case *sqlparser.ColRef:
		col, _, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return types.KindNull, err
		}
		return col.Type, nil
	case *sqlparser.Lit:
		return x.Value.Kind(), nil
	case *sqlparser.ParamExpr:
		return si.slotKinds[x.Slot], nil
	case *sqlparser.BinExpr:
		if x.Op.IsComparison() || x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			if _, err := si.exprType(x.L, sc); err != nil {
				return types.KindNull, err
			}
			if _, err := si.exprType(x.R, sc); err != nil {
				return types.KindNull, err
			}
			return types.KindBool, nil
		}
		lt, err := si.exprType(x.L, sc)
		if err != nil {
			return types.KindNull, err
		}
		rt, err := si.exprType(x.R, sc)
		if err != nil {
			return types.KindNull, err
		}
		if x.Op == sqlparser.OpDiv {
			return types.KindFloat, nil
		}
		if lt == types.KindFloat || rt == types.KindFloat {
			return types.KindFloat, nil
		}
		if lt == types.KindNull {
			return rt, nil
		}
		return lt, nil
	case *sqlparser.NotExpr, *sqlparser.IsNullExpr, *sqlparser.LikeExpr, *sqlparser.InExpr:
		for _, c := range exprChildren(e) {
			if _, err := si.exprType(c, sc); err != nil {
				return types.KindNull, err
			}
		}
		return types.KindBool, nil
	case *sqlparser.NegExpr:
		return si.exprType(x.E, sc)
	case *sqlparser.FuncExpr:
		if x.IsAggregate() {
			if x.Name == "COUNT" {
				return types.KindInt, nil
			}
			if len(x.Args) == 1 {
				return si.exprType(x.Args[0], sc)
			}
			return types.KindNull, fmt.Errorf("malformed aggregate %s", x.Name)
		}
		for _, a := range x.Args {
			if _, err := si.exprType(a, sc); err != nil {
				return types.KindNull, err
			}
		}
		switch x.Name {
		case "DATEADD":
			return types.KindDate, nil
		case "YEAR":
			return types.KindInt, nil
		case "SUBSTRING":
			return types.KindString, nil
		}
		return types.KindNull, fmt.Errorf("unsupported function %s in generated SQL", x.Name)
	case *sqlparser.CaseExpr:
		for _, w := range x.Whens {
			if _, err := si.exprType(w.Cond, sc); err != nil {
				return types.KindNull, err
			}
			t, err := si.exprType(w.Then, sc)
			if err != nil {
				return types.KindNull, err
			}
			if t != types.KindNull {
				return t, nil
			}
		}
		if x.Else != nil {
			return si.exprType(x.Else, sc)
		}
		return types.KindNull, nil
	case *sqlparser.CastExpr:
		if _, err := si.exprType(x.E, sc); err != nil {
			return types.KindNull, err
		}
		return x.To, nil
	}
	return types.KindNull, fmt.Errorf("unsupported expression %T in generated SQL", e)
}

// exprNullable mirrors the plan side's nullableScalar.
func (si *sqlInterp) exprNullable(e sqlparser.Expr, sc *scope) (bool, error) {
	switch x := e.(type) {
	case *sqlparser.ColRef:
		col, _, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return true, err
		}
		return col.Nullable, nil
	case *sqlparser.Lit:
		return x.Value.IsNull(), nil
	case *sqlparser.ParamExpr:
		return false, nil
	case *sqlparser.BinExpr:
		ln, err := si.exprNullable(x.L, sc)
		if err != nil {
			return true, err
		}
		rn, err := si.exprNullable(x.R, sc)
		if err != nil {
			return true, err
		}
		return ln || rn, nil
	case *sqlparser.NotExpr:
		return si.exprNullable(x.E, sc)
	case *sqlparser.NegExpr:
		return si.exprNullable(x.E, sc)
	case *sqlparser.IsNullExpr:
		return false, nil
	case *sqlparser.LikeExpr:
		return si.exprNullable(x.E, sc)
	case *sqlparser.InExpr:
		n, err := si.exprNullable(x.E, sc)
		if err != nil {
			return true, err
		}
		for _, el := range x.List {
			en, err := si.exprNullable(el, sc)
			if err != nil {
				return true, err
			}
			n = n || en
		}
		return n, nil
	case *sqlparser.FuncExpr:
		for _, a := range x.Args {
			n, err := si.exprNullable(a, sc)
			if err != nil {
				return true, err
			}
			if n {
				return true, nil
			}
		}
		return false, nil
	case *sqlparser.CaseExpr:
		for _, w := range x.Whens {
			n, err := si.exprNullable(w.Then, sc)
			if err != nil {
				return true, err
			}
			if n {
				return true, nil
			}
		}
		if x.Else == nil {
			return true, nil
		}
		return si.exprNullable(x.Else, sc)
	case *sqlparser.CastExpr:
		return si.exprNullable(x.E, sc)
	}
	return true, nil
}

// exprOrigins accumulates base-column origins of every resolvable column
// reference in the expression.
func (si *sqlInterp) exprOrigins(e sqlparser.Expr, sc *scope, into map[string]struct{}) {
	if cr, ok := e.(*sqlparser.ColRef); ok {
		if col, _, err := sc.resolve(cr.Table, cr.Name); err == nil {
			for k := range col.Origins {
				into[k] = struct{}{}
			}
		}
		return
	}
	for _, c := range exprChildren(e) {
		si.exprOrigins(c, sc, into)
	}
}

// killDepsExpr mirrors the plan side's nullDeps: the resolved columns whose
// NULL forces the value expression to NULL.
func (si *sqlInterp) killDepsExpr(e sqlparser.Expr, sc *scope) ([]*absCol, error) {
	switch x := e.(type) {
	case *sqlparser.ColRef:
		col, _, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return []*absCol{col}, nil
	case *sqlparser.BinExpr:
		if x.Op.IsComparison() || x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return nil, nil
		}
		l, err := si.killDepsExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := si.killDepsExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case *sqlparser.NegExpr:
		return si.killDepsExpr(x.E, sc)
	case *sqlparser.CastExpr:
		return si.killDepsExpr(x.E, sc)
	case *sqlparser.FuncExpr:
		var out []*absCol
		for _, a := range x.Args {
			d, err := si.killDepsExpr(a, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, d...)
		}
		return out, nil
	}
	return nil, nil
}

// killConjExpr mirrors the plan side's killSet for one filter conjunct.
func (si *sqlInterp) killConjExpr(conj sqlparser.Expr, sc *scope) ([]*absCol, error) {
	switch x := conj.(type) {
	case *sqlparser.BinExpr:
		if x.Op.IsComparison() {
			l, err := si.killDepsExpr(x.L, sc)
			if err != nil {
				return nil, err
			}
			r, err := si.killDepsExpr(x.R, sc)
			if err != nil {
				return nil, err
			}
			return append(l, r...), nil
		}
	case *sqlparser.LikeExpr:
		return si.killDepsExpr(x.E, sc)
	case *sqlparser.InExpr:
		if x.Select == nil {
			return si.killDepsExpr(x.E, sc)
		}
	case *sqlparser.IsNullExpr:
		if x.Negated {
			return si.killDepsExpr(x.E, sc)
		}
	}
	return nil, nil
}

// canonExpr renders a re-parsed expression into the shared canonical form:
// resolved column references collapse to c<id>, so both sides compare on
// column identity rather than alias spelling.
func (si *sqlInterp) canonExpr(e sqlparser.Expr, sc *scope) (string, error) {
	switch x := e.(type) {
	case *sqlparser.ColRef:
		col, _, err := sc.resolve(x.Table, x.Name)
		if err != nil {
			return "", err
		}
		if col.ID < 0 {
			return "", fmt.Errorf("predicate over base column %q outside a scan layer", x.Name)
		}
		return fmt.Sprintf("c%d", col.ID), nil
	case *sqlparser.Lit:
		return x.Value.SQLLiteral(), nil
	case *sqlparser.ParamExpr:
		return fmt.Sprintf("?%d", x.Slot), nil
	case *sqlparser.BinExpr:
		l, err := si.canonExpr(x.L, sc)
		if err != nil {
			return "", err
		}
		r, err := si.canonExpr(x.R, sc)
		if err != nil {
			return "", err
		}
		return canonBinary(x.Op, l, r), nil
	case *sqlparser.NotExpr:
		inner, err := si.canonExpr(x.E, sc)
		if err != nil {
			return "", err
		}
		return "NOT (" + inner + ")", nil
	case *sqlparser.NegExpr:
		inner, err := si.canonExpr(x.E, sc)
		if err != nil {
			return "", err
		}
		return "(-" + inner + ")", nil
	case *sqlparser.IsNullExpr:
		inner, err := si.canonExpr(x.E, sc)
		if err != nil {
			return "", err
		}
		if x.Negated {
			return inner + " IS NOT NULL", nil
		}
		return inner + " IS NULL", nil
	case *sqlparser.LikeExpr:
		inner, err := si.canonExpr(x.E, sc)
		if err != nil {
			return "", err
		}
		pat, err := si.canonExpr(x.Pattern, sc)
		if err != nil {
			return "", err
		}
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return inner + " " + n + "LIKE " + pat, nil
	case *sqlparser.InExpr:
		if x.Select != nil {
			return "", fmt.Errorf("IN subquery in generated SQL")
		}
		inner, err := si.canonExpr(x.E, sc)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(x.List))
		for i, el := range x.List {
			if parts[i], err = si.canonExpr(el, sc); err != nil {
				return "", err
			}
		}
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return inner + " " + n + "IN (" + strings.Join(parts, ", ") + ")", nil
	case *sqlparser.FuncExpr:
		if x.IsAggregate() {
			return "", fmt.Errorf("aggregate %s inside a predicate", x.Name)
		}
		parts := make([]string, len(x.Args))
		var err error
		for i, a := range x.Args {
			if parts[i], err = si.canonExpr(a, sc); err != nil {
				return "", err
			}
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")", nil
	case *sqlparser.CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range x.Whens {
			cond, err := si.canonExpr(w.Cond, sc)
			if err != nil {
				return "", err
			}
			then, err := si.canonExpr(w.Then, sc)
			if err != nil {
				return "", err
			}
			b.WriteString(" WHEN " + cond + " THEN " + then)
		}
		if x.Else != nil {
			els, err := si.canonExpr(x.Else, sc)
			if err != nil {
				return "", err
			}
			b.WriteString(" ELSE " + els)
		}
		b.WriteString(" END")
		return b.String(), nil
	case *sqlparser.CastExpr:
		inner, err := si.canonExpr(x.E, sc)
		if err != nil {
			return "", err
		}
		return "CAST(" + inner + " AS " + sqlTypeName(x.To) + ")", nil
	}
	return "", fmt.Errorf("unsupported predicate expression %T", e)
}

// outName is one output column of the Return step's rename layer.
type outName struct {
	id   algebra.ColumnID
	name string
}

// returnRel interprets the Return step's wrapper: a pure rename layer over
// one derived table, selecting plan output columns under display names.
func (si *sqlInterp) returnRel(sel *sqlparser.SelectStmt) (*absRel, []outName, error) {
	if sel.Union != nil || sel.Where != nil || len(sel.GroupBy) > 0 || sel.Having != nil {
		return nil, nil, fmt.Errorf("return step is not a plain rename layer")
	}
	if len(sel.From) != 1 {
		return nil, nil, fmt.Errorf("return step must select from exactly one derived table")
	}
	dt, ok := sel.From[0].(*sqlparser.DerivedTable)
	if !ok {
		return nil, nil, fmt.Errorf("return step must select from a derived table")
	}
	inner, err := si.selectRel(dt.Select, nil, false, false)
	if err != nil {
		return nil, nil, err
	}
	cols := cloneCols(inner.cols)
	sc := &scope{items: []scopeItem{{alias: dt.Alias, cols: cols, names: colAliasNames(cols)}}}
	outs := make([]outName, 0, len(sel.Items))
	for _, it := range sel.Items {
		cr, ok := it.Expr.(*sqlparser.ColRef)
		if !ok {
			return nil, nil, fmt.Errorf("return item %q is not a column reference", sqlparser.FormatExpr(it.Expr))
		}
		col, _, err := sc.resolve(cr.Table, cr.Name)
		if err != nil {
			return nil, nil, err
		}
		name := it.Alias
		if name == "" {
			name = cr.Name
		}
		outs = append(outs, outName{id: col.ID, name: name})
	}
	return inner, outs, nil
}
