package algebra

import (
	"fmt"
	"strings"

	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// Binder resolves parser ASTs against the shell database, producing bound
// operator trees with globally unique column IDs. It plays the role of the
// SQL Server algebrizer in the paper's compilation pipeline (Figure 2).
type Binder struct {
	shell  *catalog.Shell
	nextID ColumnID
	args   []types.Value // values of parameter markers, by slot
}

// NewBinder returns a binder over the given shell database.
func NewBinder(shell *catalog.Shell) *Binder {
	return &Binder{shell: shell, nextID: 1}
}

// SetArgs supplies the values of the parameter markers
// (sqlparser.ParamExpr, rendered by sqlparser.Marker) in a query template
// or DSQL step text: marker i binds to Const{Val: args[i], Param: i+1},
// exactly the constant the literal it stands for binds to, so comparisons
// coerce it the same way. A marker without an argument is a bind error,
// a *MarkerError.
func (b *Binder) SetArgs(args []types.Value) { b.args = args }

// MarkerError is a parameter marker with no argument to bind: text that
// carries a marker it was given no value for, such as client text holding
// a raw marker.
type MarkerError struct{ Slot int }

func (e *MarkerError) Error() string {
	return fmt.Sprintf("algebra: parameter marker %d has no argument", e.Slot)
}

// NextID exposes the allocator so later phases (normalization, the PDW
// optimizer's partial/final split) can mint fresh column IDs that never
// collide with bound ones.
func (b *Binder) NextID() ColumnID {
	id := b.nextID
	b.nextID++
	return id
}

// scope is one level of name resolution; parent chains implement
// correlated subqueries.
type scope struct {
	parent *scope
	tables []scopeTable
}

type scopeTable struct {
	alias string
	cols  []ColumnMeta
}

func (s *scope) addTable(alias string, cols []ColumnMeta) {
	s.tables = append(s.tables, scopeTable{alias: alias, cols: cols})
}

// resolve finds a column by (qualifier, name); correlated lookups walk up
// the parent chain.
func (s *scope) resolve(qual, name string) (ColumnMeta, bool, error) {
	for sc := s; sc != nil; sc = sc.parent {
		var found []ColumnMeta
		for _, t := range sc.tables {
			if qual != "" && !strings.EqualFold(t.alias, qual) {
				continue
			}
			for _, c := range t.cols {
				if strings.EqualFold(c.Name, name) {
					found = append(found, c)
				}
			}
		}
		if len(found) == 1 {
			return found[0], true, nil
		}
		if len(found) > 1 {
			return ColumnMeta{}, false, fmt.Errorf("ambiguous column reference %q", name)
		}
	}
	return ColumnMeta{}, false, nil
}

// Bind binds a SELECT statement (possibly a UNION ALL chain) into a
// logical operator tree.
func (b *Binder) Bind(sel *sqlparser.SelectStmt) (*Tree, error) {
	return b.bindQuery(sel, nil)
}

// bindQuery dispatches between single blocks and UNION ALL chains.
func (b *Binder) bindQuery(sel *sqlparser.SelectStmt, outer *scope) (*Tree, error) {
	if sel.Union == nil {
		return b.bindSelect(sel, outer)
	}
	return b.bindUnion(sel, outer)
}

// bindUnion binds a UNION ALL chain: every branch is bound independently,
// validated for arity and comparable types, and projected onto one shared
// set of output column IDs (the UnionAll operator requires identical IDs
// on both inputs). ORDER BY/TOP of the final branch apply to the union.
func (b *Binder) bindUnion(sel *sqlparser.SelectStmt, outer *scope) (*Tree, error) {
	var branches []*sqlparser.SelectStmt
	for cur := sel; cur != nil; cur = cur.Union {
		branches = append(branches, cur)
	}
	last := branches[len(branches)-1]
	orderBy, top := last.OrderBy, last.Top
	lastCopy := *last
	lastCopy.OrderBy, lastCopy.Top, lastCopy.Union = nil, 0, nil
	for _, br := range branches[:len(branches)-1] {
		if len(br.OrderBy) > 0 || br.Top > 0 {
			return nil, fmt.Errorf("algebra: ORDER BY/TOP only allowed on the final UNION ALL branch")
		}
	}

	trees := make([]*Tree, len(branches))
	for i, br := range branches {
		stmt := br
		if i == len(branches)-1 {
			stmt = &lastCopy
		}
		clean := *stmt
		clean.Union = nil
		t, err := b.bindSelect(&clean, outer)
		if err != nil {
			return nil, fmt.Errorf("algebra: UNION ALL branch %d: %w", i+1, err)
		}
		trees[i] = t
	}

	first := trees[0].OutputCols()
	// Shared output columns: fresh IDs named after the first branch.
	shared := make([]ColumnMeta, len(first))
	for i, c := range first {
		shared[i] = ColumnMeta{ID: b.NextID(), Name: c.Name, Type: c.Type}
	}
	union := (*Tree)(nil)
	for bi, t := range trees {
		cols := t.OutputCols()
		if len(cols) != len(shared) {
			return nil, fmt.Errorf("algebra: UNION ALL branch %d has %d columns, want %d", bi+1, len(cols), len(shared))
		}
		defs := make([]ProjDef, len(shared))
		for i, c := range cols {
			if !types.Comparable(c.Type, shared[i].Type) {
				return nil, fmt.Errorf("algebra: UNION ALL column %d: %s vs %s", i+1, c.Type, shared[i].Type)
			}
			defs[i] = ProjDef{Expr: NewColRef(c), ID: shared[i].ID, Name: shared[i].Name}
		}
		branch := NewTree(&Project{Defs: defs}, t)
		if union == nil {
			union = branch
		} else {
			union = NewTree(&UnionAll{}, union, branch)
		}
	}

	if len(orderBy) > 0 || top > 0 {
		items := make([]outItem, len(shared))
		for i, c := range shared {
			items[i] = outItem{expr: NewColRef(c), name: c.Name}
		}
		var keys []SortKey
		for _, oi := range orderBy {
			id, err := b.resolveOrderKey(oi.Expr, items, shared, &scope{parent: outer})
			if err != nil {
				return nil, err
			}
			keys = append(keys, SortKey{ID: id, Desc: oi.Desc})
		}
		union = NewTree(&Sort{Keys: keys, Top: top}, union)
	}
	return union, nil
}

// BindCreateTable converts DDL into a catalog table.
func BindCreateTable(stmt *sqlparser.CreateTableStmt) (*catalog.Table, error) {
	t := &catalog.Table{Name: stmt.Name, PrimaryKey: stmt.PrimaryKey}
	for _, c := range stmt.Columns {
		t.Columns = append(t.Columns, catalog.Column{Name: c.Name, Type: c.Type})
	}
	if stmt.Replicated {
		t.Dist = catalog.Distribution{Kind: catalog.DistReplicated}
	} else {
		t.Dist = catalog.Distribution{Kind: catalog.DistHash, Column: stmt.HashColumn}
	}
	return t, nil
}

// bindSelect binds one query block. outer supplies correlation scope.
func (b *Binder) bindSelect(sel *sqlparser.SelectStmt, outer *scope) (*Tree, error) {
	s := &scope{parent: outer}

	// FROM: bind each factor, combining comma factors with cross joins.
	var tree *Tree
	for _, ref := range sel.From {
		t, err := b.bindTableRef(ref, s)
		if err != nil {
			return nil, err
		}
		if tree == nil {
			tree = t
		} else {
			tree = NewTree(&Join{Kind: JoinCross}, tree, t)
		}
	}
	if tree == nil {
		// FROM-less SELECT: a one-row, zero-column dual relation.
		tree = NewTree(&Values{Rows: [][]types.Value{{}}})
	}

	// WHERE.
	if sel.Where != nil {
		filter, err := b.bindExpr(sel.Where, s, false)
		if err != nil {
			return nil, err
		}
		if filter.Type() != types.KindBool && filter.Type() != types.KindNull {
			return nil, fmt.Errorf("algebra: WHERE clause is not boolean")
		}
		tree = NewTree(&Select{Filter: filter}, tree)
	}

	// Aggregation analysis.
	agg := &aggCollector{binder: b, scope: s}
	hasAggs := false
	for _, item := range sel.Items {
		if item.Expr != nil && containsAggregate(item.Expr) {
			hasAggs = true
		}
	}
	if sel.Having != nil && containsAggregate(sel.Having) {
		hasAggs = true
	}
	needGroup := hasAggs || len(sel.GroupBy) > 0

	var groupKeys []ColumnID
	groupExprs := map[string]ColumnMeta{} // bound group expr fingerprint → key column
	if needGroup {
		// Bind GROUP BY expressions; non-column expressions are computed by
		// a projection beneath the GroupBy.
		var preDefs []ProjDef
		for _, ge := range sel.GroupBy {
			e, err := b.bindExpr(ge, s, false)
			if err != nil {
				return nil, err
			}
			if c, ok := e.(*ColRef); ok {
				groupKeys = append(groupKeys, c.ID)
				continue
			}
			id := b.NextID()
			name := fmt.Sprintf("expr%d", id)
			preDefs = append(preDefs, ProjDef{Expr: e, ID: id, Name: name})
			groupKeys = append(groupKeys, id)
			groupExprs[e.Fingerprint()] = ColumnMeta{ID: id, Name: name, Type: e.Type()}
		}
		if len(preDefs) > 0 {
			// Pass through every input column alongside the computed keys.
			for _, c := range tree.OutputCols() {
				preDefs = append(preDefs, ProjDef{Expr: NewColRef(c), ID: c.ID, Name: c.Name})
			}
			tree = NewTree(&Project{Defs: preDefs}, tree)
		}
		agg.groupKeys = NewColSet(groupKeys...)
	}

	// Bind select items (rewriting aggregates to agg output refs).
	var items []outItem
	for i, item := range sel.Items {
		if item.Star {
			cols, err := starColumns(s, item.Table)
			if err != nil {
				return nil, err
			}
			for _, c := range cols {
				items = append(items, outItem{expr: NewColRef(c), name: c.Name})
			}
			continue
		}
		e, err := b.bindMaybeAgg(item.Expr, s, agg, needGroup)
		if err != nil {
			return nil, err
		}
		e = replaceGroupExprs(e, groupExprs)
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlparser.ColRef); ok {
				name = cr.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		items = append(items, outItem{expr: e, name: name})
	}

	var having Scalar
	if sel.Having != nil {
		if !needGroup {
			return nil, fmt.Errorf("algebra: HAVING without aggregation")
		}
		e, err := b.bindMaybeAgg(sel.Having, s, agg, true)
		if err != nil {
			return nil, err
		}
		having = replaceGroupExprs(e, groupExprs)
	}

	if needGroup {
		tree = NewTree(&GroupBy{Keys: groupKeys, Aggs: agg.defs}, tree)
		// Validate that non-aggregated select items only use group keys or
		// aggregate outputs.
		avail := tree.OutputColSet()
		for _, it := range items {
			if !ScalarCols(it.expr).SubsetOf(avail) {
				return nil, fmt.Errorf("algebra: select item %q references non-grouped columns", it.name)
			}
		}
		if having != nil {
			if !ScalarCols(having).SubsetOf(avail) {
				return nil, fmt.Errorf("algebra: HAVING references non-grouped columns")
			}
			tree = NewTree(&Select{Filter: having}, tree)
		}
	}

	// Final projection.
	defs := make([]ProjDef, len(items))
	outCols := make([]ColumnMeta, len(items))
	for i, it := range items {
		id := b.NextID()
		if c, ok := it.expr.(*ColRef); ok {
			id = c.ID
		}
		defs[i] = ProjDef{Expr: it.expr, ID: id, Name: it.name}
		outCols[i] = ColumnMeta{ID: id, Name: it.name, Type: it.expr.Type()}
	}
	tree = NewTree(&Project{Defs: defs}, tree)

	if sel.Distinct {
		keys := make([]ColumnID, len(outCols))
		for i, c := range outCols {
			keys[i] = c.ID
		}
		tree = NewTree(&GroupBy{Keys: keys}, tree)
	}

	// ORDER BY / TOP.
	if len(sel.OrderBy) > 0 {
		keys := make([]SortKey, 0, len(sel.OrderBy))
		for _, oi := range sel.OrderBy {
			id, err := b.resolveOrderKey(oi.Expr, items, outCols, s)
			if err != nil {
				return nil, err
			}
			keys = append(keys, SortKey{ID: id, Desc: oi.Desc})
		}
		tree = NewTree(&Sort{Keys: keys, Top: sel.Top}, tree)
	} else if sel.Top > 0 {
		tree = NewTree(&Sort{Top: sel.Top}, tree)
	}
	return tree, nil
}

// replaceGroupExprs substitutes references to computed group-by expressions
// (e.g. SELECT YEAR(d) ... GROUP BY YEAR(d)) with the group key column.
func replaceGroupExprs(e Scalar, groupExprs map[string]ColumnMeta) Scalar {
	if len(groupExprs) == 0 {
		return e
	}
	return RewriteScalar(e, func(x Scalar) Scalar {
		if m, ok := groupExprs[x.Fingerprint()]; ok {
			return NewColRef(m)
		}
		return nil
	})
}

// outItem is one bound select-list item prior to final projection.
type outItem struct {
	expr Scalar
	name string
}

// resolveOrderKey maps an ORDER BY expression to an output column: by
// ordinal, by alias, or by matching a select item's expression.
func (b *Binder) resolveOrderKey(e sqlparser.Expr, items []outItem, outCols []ColumnMeta, s *scope) (ColumnID, error) {
	if lit, ok := e.(*sqlparser.Lit); ok && lit.Value.Kind() == types.KindInt {
		n := lit.Value.Int()
		if n < 1 || int(n) > len(outCols) {
			return 0, fmt.Errorf("algebra: ORDER BY ordinal %d out of range", n)
		}
		return outCols[n-1].ID, nil
	}
	if cr, ok := e.(*sqlparser.ColRef); ok && cr.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.name, cr.Name) {
				return outCols[i].ID, nil
			}
		}
	}
	bound, err := b.bindExpr(e, s, true)
	if err != nil {
		return 0, err
	}
	fp := bound.Fingerprint()
	for i, it := range items {
		if it.expr.Fingerprint() == fp {
			return outCols[i].ID, nil
		}
	}
	if c, ok := bound.(*ColRef); ok {
		for _, oc := range outCols {
			if oc.ID == c.ID {
				return oc.ID, nil
			}
		}
	}
	return 0, fmt.Errorf("algebra: ORDER BY expression %s is not in the select list", sqlparser.FormatExpr(e))
}

func starColumns(s *scope, table string) ([]ColumnMeta, error) {
	var out []ColumnMeta
	for _, t := range s.tables {
		if table != "" && !strings.EqualFold(t.alias, table) {
			continue
		}
		out = append(out, t.cols...)
	}
	if len(out) == 0 {
		if table != "" {
			return nil, fmt.Errorf("algebra: unknown table %q in %s.*", table, table)
		}
		return nil, fmt.Errorf("algebra: SELECT * with empty scope")
	}
	return out, nil
}

func (b *Binder) bindTableRef(ref sqlparser.TableRef, s *scope) (*Tree, error) {
	switch r := ref.(type) {
	case *sqlparser.TableName:
		tbl := b.shell.Table(r.Name)
		if tbl == nil {
			return nil, fmt.Errorf("algebra: unknown table %q", r.Name)
		}
		alias := r.Alias
		if alias == "" {
			alias = tbl.Name
		}
		cols := make([]ColumnMeta, len(tbl.Columns))
		for i, c := range tbl.Columns {
			cols[i] = ColumnMeta{ID: b.NextID(), Name: c.Name, Qual: alias, Type: c.Type}
		}
		s.addTable(alias, cols)
		return NewTree(&Get{Table: tbl, Alias: alias, Cols: cols}), nil

	case *sqlparser.JoinRef:
		left, err := b.bindTableRef(r.Left, s)
		if err != nil {
			return nil, err
		}
		right, err := b.bindTableRef(r.Right, s)
		if err != nil {
			return nil, err
		}
		j := &Join{}
		switch r.Kind {
		case sqlparser.JoinInner:
			j.Kind = JoinInner
		case sqlparser.JoinCross:
			j.Kind = JoinCross
		case sqlparser.JoinLeft:
			j.Kind = JoinLeftOuter
		case sqlparser.JoinRight:
			j.Kind = JoinLeftOuter
			left, right = right, left
		case sqlparser.JoinFull:
			j.Kind = JoinFullOuter
		}
		if r.On != nil {
			on, err := b.bindExpr(r.On, s, false)
			if err != nil {
				return nil, err
			}
			j.On = on
		} else if j.Kind != JoinCross {
			return nil, fmt.Errorf("algebra: %s requires ON", r.Kind)
		}
		return NewTree(j, left, right), nil

	case *sqlparser.DerivedTable:
		sub, err := b.bindQuery(r.Select, s.parent)
		if err != nil {
			return nil, err
		}
		cols := make([]ColumnMeta, len(sub.OutputCols()))
		for i, c := range sub.OutputCols() {
			cols[i] = ColumnMeta{ID: c.ID, Name: c.Name, Qual: r.Alias, Type: c.Type}
		}
		s.addTable(r.Alias, cols)
		return sub, nil

	default:
		return nil, fmt.Errorf("algebra: unknown table reference %T", ref)
	}
}

// aggCollector accumulates aggregate definitions while binding expressions
// above a GroupBy.
type aggCollector struct {
	binder    *Binder
	scope     *scope
	groupKeys ColSet
	defs      []AggDef
}

// ref returns a reference to the aggregate's output column, reusing an
// existing definition with the same fingerprint.
func (a *aggCollector) ref(def AggDef) Scalar {
	fp := (AggDef{Func: def.Func, Arg: def.Arg, Distinct: def.Distinct}).Fingerprint()
	for _, d := range a.defs {
		if (AggDef{Func: d.Func, Arg: d.Arg, Distinct: d.Distinct}).Fingerprint() == fp {
			return NewColRef(ColumnMeta{ID: d.ID, Name: d.Name, Type: d.ResultType()})
		}
	}
	def.ID = a.binder.NextID()
	if def.Name == "" {
		def.Name = fmt.Sprintf("agg%d", def.ID)
	}
	a.defs = append(a.defs, def)
	return NewColRef(ColumnMeta{ID: def.ID, Name: def.Name, Type: def.ResultType()})
}

func containsAggregate(e sqlparser.Expr) bool {
	found := false
	var walk func(sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case nil:
		case *sqlparser.BinExpr:
			walk(x.L)
			walk(x.R)
		case *sqlparser.NotExpr:
			walk(x.E)
		case *sqlparser.NegExpr:
			walk(x.E)
		case *sqlparser.FuncExpr:
			if x.IsAggregate() {
				found = true
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *sqlparser.BetweenExpr:
			walk(x.E)
			walk(x.Lo)
			walk(x.Hi)
		case *sqlparser.LikeExpr:
			walk(x.E)
		case *sqlparser.IsNullExpr:
			walk(x.E)
		case *sqlparser.InExpr:
			walk(x.E)
		case *sqlparser.CaseExpr:
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(x.Else)
		case *sqlparser.CastExpr:
			walk(x.E)
		}
	}
	walk(e)
	return found
}

// bindMaybeAgg binds an expression that may contain aggregate calls, which
// are lifted into the collector and replaced by output references.
func (b *Binder) bindMaybeAgg(e sqlparser.Expr, s *scope, agg *aggCollector, grouping bool) (Scalar, error) {
	if f, ok := e.(*sqlparser.FuncExpr); ok && f.IsAggregate() {
		if !grouping {
			return nil, fmt.Errorf("algebra: aggregate %s outside grouping context", f.Name)
		}
		return b.bindAggregate(f, s, agg)
	}
	switch x := e.(type) {
	case *sqlparser.BinExpr:
		l, err := b.bindMaybeAgg(x.L, s, agg, grouping)
		if err != nil {
			return nil, err
		}
		r, err := b.bindMaybeAgg(x.R, s, agg, grouping)
		if err != nil {
			return nil, err
		}
		return b.makeBinary(x.Op, l, r)
	case *sqlparser.NotExpr:
		inner, err := b.bindMaybeAgg(x.E, s, agg, grouping)
		if err != nil {
			return nil, err
		}
		return negateScalar(inner), nil
	case *sqlparser.NegExpr:
		inner, err := b.bindMaybeAgg(x.E, s, agg, grouping)
		if err != nil {
			return nil, err
		}
		if !inner.Type().Numeric() && inner.Type() != types.KindNull {
			return nil, fmt.Errorf("algebra: negation of %s", inner.Type())
		}
		return &Neg{E: inner}, nil
	case *sqlparser.CastExpr:
		inner, err := b.bindMaybeAgg(x.E, s, agg, grouping)
		if err != nil {
			return nil, err
		}
		return &Cast{E: inner, To: x.To}, nil
	}
	return b.bindExpr(e, s, false)
}

func (b *Binder) bindAggregate(f *sqlparser.FuncExpr, s *scope, agg *aggCollector) (Scalar, error) {
	if f.Name == "AVG" {
		// AVG(x) := SUM(x) / COUNT(x); keeps the PDW partial/final split
		// uniform across aggregate functions.
		if f.Star || len(f.Args) != 1 {
			return nil, fmt.Errorf("algebra: AVG takes one argument")
		}
		arg, err := b.bindExpr(f.Args[0], s, false)
		if err != nil {
			return nil, err
		}
		if !arg.Type().Numeric() {
			return nil, fmt.Errorf("algebra: AVG over non-numeric type %s", arg.Type())
		}
		sum := agg.ref(AggDef{Func: AggSum, Arg: arg, Distinct: f.Distinct})
		cnt := agg.ref(AggDef{Func: AggCount, Arg: arg, Distinct: f.Distinct})
		return &Binary{Op: sqlparser.OpDiv, L: sum, R: cnt}, nil
	}
	var fn AggFunc
	switch f.Name {
	case "SUM":
		fn = AggSum
	case "COUNT":
		fn = AggCount
	case "MIN":
		fn = AggMin
	case "MAX":
		fn = AggMax
	default:
		return nil, fmt.Errorf("algebra: unknown aggregate %s", f.Name)
	}
	if f.Star {
		if fn != AggCount {
			return nil, fmt.Errorf("algebra: %s(*) is not valid", f.Name)
		}
		return agg.ref(AggDef{Func: AggCount}), nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("algebra: %s takes one argument", f.Name)
	}
	arg, err := b.bindExpr(f.Args[0], s, false)
	if err != nil {
		return nil, err
	}
	if containsAggregate(f.Args[0]) {
		return nil, fmt.Errorf("algebra: nested aggregates are not allowed")
	}
	if (fn == AggSum) && !arg.Type().Numeric() && arg.Type() != types.KindNull {
		return nil, fmt.Errorf("algebra: SUM over non-numeric type %s", arg.Type())
	}
	return agg.ref(AggDef{Func: fn, Arg: arg, Distinct: f.Distinct}), nil
}

// negateScalar pushes NOT into comparisons where trivially possible.
func negateScalar(e Scalar) Scalar {
	switch x := e.(type) {
	case *Binary:
		if x.Op.IsComparison() {
			return &Binary{Op: x.Op.Negate(), L: x.L, R: x.R}
		}
	case *Not:
		return x.E
	case *IsNull:
		return &IsNull{E: x.E, Negated: !x.Negated}
	case *Subquery:
		if x.Kind == SubqueryExists || x.Kind == SubqueryIn {
			return &Subquery{Kind: x.Kind, Input: x.Input, Outer: x.Outer, Negated: !x.Negated}
		}
	}
	return &Not{E: e}
}

// makeBinary builds a binary expression with implicit string→date coercion
// on comparisons (TPC-H queries compare date columns to string literals).
func (b *Binder) makeBinary(op sqlparser.BinOp, l, r Scalar) (Scalar, error) {
	if op.IsComparison() {
		l2, r2 := coerceComparison(l, r)
		if !types.Comparable(l2.Type(), r2.Type()) {
			return nil, fmt.Errorf("algebra: cannot compare %s with %s", l.Type(), r.Type())
		}
		return &Binary{Op: op, L: l2, R: r2}, nil
	}
	if op == sqlparser.OpAnd || op == sqlparser.OpOr {
		return &Binary{Op: op, L: l, R: r}, nil
	}
	lt, rt := l.Type(), r.Type()
	if (lt.Numeric() || lt == types.KindNull) && (rt.Numeric() || rt == types.KindNull) {
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return nil, fmt.Errorf("algebra: arithmetic %s on %s and %s", op, lt, rt)
}

// coerceComparison upgrades string constants compared against dates.
func coerceComparison(l, r Scalar) (Scalar, Scalar) {
	fix := func(target, e Scalar) Scalar {
		if target.Type() != types.KindDate {
			return e
		}
		if c, ok := e.(*Const); ok && c.Val.Kind() == types.KindString {
			if d, err := types.ParseDate(c.Val.Str()); err == nil {
				// The coerced date still stands in for the original string
				// literal slot: re-binding splices a new (string) literal
				// into the same comparison context, where the per-node
				// binder repeats this exact coercion.
				return &Const{Val: d, Param: c.Param}
			}
		}
		return e
	}
	return fix(r, l), fix(l, r)
}

// bindExpr binds a scalar expression with no aggregate context.
func (b *Binder) bindExpr(e sqlparser.Expr, s *scope, allowMissing bool) (Scalar, error) {
	switch x := e.(type) {
	case *sqlparser.Lit:
		return &Const{Val: x.Value}, nil

	case *sqlparser.ParamExpr:
		if x.Slot >= len(b.args) {
			return nil, &MarkerError{Slot: x.Slot}
		}
		return &Const{Val: b.args[x.Slot], Param: x.Slot + 1}, nil

	case *sqlparser.ColRef:
		m, ok, err := s.resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("algebra: unknown column %q", x.String())
		}
		return NewColRef(m), nil

	case *sqlparser.BinExpr:
		l, err := b.bindExpr(x.L, s, allowMissing)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(x.R, s, allowMissing)
		if err != nil {
			return nil, err
		}
		return b.makeBinary(x.Op, l, r)

	case *sqlparser.NotExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		return negateScalar(inner), nil

	case *sqlparser.NegExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		if !inner.Type().Numeric() && inner.Type() != types.KindNull {
			return nil, fmt.Errorf("algebra: negation of %s", inner.Type())
		}
		return &Neg{E: inner}, nil

	case *sqlparser.IsNullExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negated: x.Negated}, nil

	case *sqlparser.LikeExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		pat, ok := x.Pattern.(*sqlparser.Lit)
		if !ok || pat.Value.Kind() != types.KindString {
			return nil, fmt.Errorf("algebra: LIKE pattern must be a string literal")
		}
		if inner.Type() != types.KindString && inner.Type() != types.KindNull {
			return nil, fmt.Errorf("algebra: LIKE on %s", inner.Type())
		}
		return &Like{E: inner, Pattern: pat.Value.Str(), Negated: x.Negated}, nil

	case *sqlparser.BetweenExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(x.Lo, s, allowMissing)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(x.Hi, s, allowMissing)
		if err != nil {
			return nil, err
		}
		ge, err := b.makeBinary(sqlparser.OpGe, inner, lo)
		if err != nil {
			return nil, err
		}
		le, err := b.makeBinary(sqlparser.OpLe, inner, hi)
		if err != nil {
			return nil, err
		}
		out := Scalar(&Binary{Op: sqlparser.OpAnd, L: ge, R: le})
		if x.Negated {
			out = &Not{E: out}
		}
		return out, nil

	case *sqlparser.InExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		if x.Select != nil {
			sub, err := b.bindQuery(x.Select, s)
			if err != nil {
				return nil, err
			}
			if len(sub.OutputCols()) != 1 {
				return nil, fmt.Errorf("algebra: IN subquery must return one column")
			}
			return &Subquery{Kind: SubqueryIn, Input: sub, Outer: inner, Negated: x.Negated}, nil
		}
		list := make([]Scalar, len(x.List))
		for i, el := range x.List {
			v, err := b.bindExpr(el, s, allowMissing)
			if err != nil {
				return nil, err
			}
			list[i] = v
		}
		return &InList{E: inner, List: list, Negated: x.Negated}, nil

	case *sqlparser.ExistsExpr:
		sub, err := b.bindQuery(x.Select, s)
		if err != nil {
			return nil, err
		}
		return &Subquery{Kind: SubqueryExists, Input: sub, Negated: x.Negated}, nil

	case *sqlparser.SubqueryExpr:
		sub, err := b.bindQuery(x.Select, s)
		if err != nil {
			return nil, err
		}
		if len(sub.OutputCols()) != 1 {
			return nil, fmt.Errorf("algebra: scalar subquery must return one column")
		}
		return &Subquery{Kind: SubqueryScalar, Input: sub}, nil

	case *sqlparser.CaseExpr:
		out := &Case{}
		for _, w := range x.Whens {
			cond, err := b.bindExpr(w.Cond, s, allowMissing)
			if err != nil {
				return nil, err
			}
			then, err := b.bindExpr(w.Then, s, allowMissing)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			els, err := b.bindExpr(x.Else, s, allowMissing)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil

	case *sqlparser.CastExpr:
		inner, err := b.bindExpr(x.E, s, allowMissing)
		if err != nil {
			return nil, err
		}
		return &Cast{E: inner, To: x.To}, nil

	case *sqlparser.FuncExpr:
		if x.IsAggregate() {
			return nil, fmt.Errorf("algebra: aggregate %s is not allowed here", x.Name)
		}
		return b.bindFunc(x, s, allowMissing)

	default:
		return nil, fmt.Errorf("algebra: unsupported expression %T", e)
	}
}

func (b *Binder) bindFunc(x *sqlparser.FuncExpr, s *scope, allowMissing bool) (Scalar, error) {
	args := make([]Scalar, len(x.Args))
	for i, a := range x.Args {
		v, err := b.bindExpr(a, s, allowMissing)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch x.Name {
	case "DATEADD":
		if len(args) != 3 {
			return nil, fmt.Errorf("algebra: DATEADD takes (part, n, date)")
		}
		// Coerce a string date argument.
		if c, ok := args[2].(*Const); ok && c.Val.Kind() == types.KindString {
			d, err := types.ParseDate(c.Val.Str())
			if err != nil {
				return nil, err
			}
			args[2] = &Const{Val: d}
		}
		return &Func{Name: "DATEADD", Args: args, Out: types.KindDate}, nil
	case "YEAR":
		if len(args) != 1 {
			return nil, fmt.Errorf("algebra: YEAR takes one argument")
		}
		return &Func{Name: "YEAR", Args: args, Out: types.KindInt}, nil
	case "SUBSTRING":
		if len(args) != 3 {
			return nil, fmt.Errorf("algebra: SUBSTRING takes (str, start, len)")
		}
		return &Func{Name: "SUBSTRING", Args: args, Out: types.KindString}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown function %s", x.Name)
	}
}
