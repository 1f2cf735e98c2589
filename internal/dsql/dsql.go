// Package dsql implements DSQL plan generation (paper §2.4, §3.4, Figure
// 6): the winning distributed plan from the PDW optimizer is cut at every
// data-movement operation into a serial sequence of steps. Each movement
// becomes a DMS step whose source is a SQL string executed against the
// nodes' local DBMS instances and whose destination is a temp table; the
// final relational segment becomes the Return step streamed to the client.
// Like PDW (and unlike operator-shipping MPPs), nodes receive SQL text,
// which the engine's per-node instances parse and execute themselves.
package dsql

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// StepKind classifies DSQL steps.
type StepKind uint8

// Step kinds.
const (
	// StepMove executes SQL on source nodes and routes the rows into a
	// temp table per the move's kind.
	StepMove StepKind = iota
	// StepReturn executes SQL and streams the result to the client.
	StepReturn
)

// Step is one serially-executed DSQL operation.
type Step struct {
	ID   int
	Kind StepKind

	// SQL is the statement executed against each participating node's
	// local DBMS instance.
	SQL string
	// Where describes which nodes run the SQL: the placement of the
	// segment's inputs.
	Where core.DistKind
	// Idempotent marks steps the engine may retry after a transient
	// failure (carried from core.Option.Idempotent): move steps rerun
	// safely once their partial temp table is dropped, while the Return
	// step streams to the client and cannot be replayed.
	Idempotent bool

	// Move fields (StepMove only).
	MoveKind cost.MoveKind
	HashCol  string // routing column name (c<id>) for Shuffle / Trim
	Dest     string // destination temp table
	DestCols []catalog.Column

	// Estimates carried from the optimizer, for EXPLAIN output.
	Rows, Width, MoveCost float64

	// node is the step's node-compile slot, shared by every copy of the
	// step; text is SQL as Generate or Bind produced it, and args the
	// values of that Bind's parameter slots.
	node *nodeSlot
	text string
	args []types.Value
}

// nodeSlot is a generated step's node-compile slot. Every copy of the
// step shares it, each Bind of a cached template included, so the nodes
// compile the template once per plan rather than once per execution (in
// the paper's terms, the compute nodes' SQL Server instances keep the
// compiled plans of the step statements they have seen).
type nodeSlot struct {
	template string // the step SQL as generated, parameter markers included
	tree     atomic.Pointer[NodeTree]
}

// NodeTree is what the compute nodes compiled from a step's template
// text: the normalized tree and the catalog epoch it was compiled at.
// Slots lists, ascending, the parameter slots whose markers the template
// carries, and Args the arguments they were bound to at compile time; a
// tree with no slots serves every execution as it is. A NodeTree is
// immutable once published.
type NodeTree struct {
	Tree  *algebra.Tree
	Epoch uint64
	Args  []types.Value
	Slots []int
}

// Template returns the text the nodes compile for the step and the
// arguments of its parameter markers. ok is false when the step has no
// node-compile slot — Generate did not emit it, its SQL was edited after
// Generate or Bind produced it, or Bind was given a text that is not a
// single literal — and the nodes then compile SQL as it stands.
func (s *Step) Template() (text string, args []types.Value, ok bool) {
	if s.node == nil || s.SQL != s.text {
		return "", nil, false
	}
	return s.node.template, s.args, true
}

// NodeTree returns the tree the nodes last published for the step, or nil.
func (s *Step) NodeTree() *NodeTree {
	if s.node == nil {
		return nil
	}
	return s.node.tree.Load()
}

// SetNodeTree publishes t for every copy of the step.
func (s *Step) SetNodeTree(t *NodeTree) {
	if s.node != nil {
		s.node.tree.Store(t)
	}
}

// EstBytes is the optimizer's predicted byte volume of the step's stream
// (rows × width) — the quantity EXPLAIN ANALYZE reconciles against the
// engine's measured DMS bytes.
func (s Step) EstBytes() float64 { return s.Rows * s.Width }

// Plan is an executable DSQL plan.
type Plan struct {
	Steps []Step
	// OutCols is the client-visible result schema.
	OutCols []algebra.ColumnMeta
	// OrderBy are final merge keys as positions into OutCols; Top limits
	// the client result (0 = no limit). The control node applies both
	// when assembling per-node streams.
	OrderBy []MergeKey
	Top     int64
}

// MergeKey orders the final merge.
type MergeKey struct {
	Pos  int
	Desc bool
}

// String renders the plan in the paper's Figure 7 style.
func (p *Plan) String() string {
	var b strings.Builder
	for _, s := range p.Steps {
		switch s.Kind {
		case StepMove:
			fmt.Fprintf(&b, "DSQL step %d: DMS %s", s.ID, s.MoveKind)
			if s.HashCol != "" {
				fmt.Fprintf(&b, "(%s)", s.HashCol)
			}
			fmt.Fprintf(&b, " -> %s  [rows=%.6g cost=%.6g]\n", s.Dest, s.Rows, s.MoveCost)
		case StepReturn:
			fmt.Fprintf(&b, "DSQL step %d: RETURN  [rows=%.6g]\n", s.ID, s.Rows)
		}
		for _, line := range strings.Split(s.SQL, "\n") {
			b.WriteString("    ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Placeholder is the parameter marker rendered into step SQL for a
// constant carrying literal-slot provenance. The NUL delimiters cannot
// occur in generated SQL (identifiers are c<id>/T<n>, literals are
// escaped), so substitution can never corrupt surrounding text and a
// leftover marker is detectable.
func Placeholder(slot int) string {
	return fmt.Sprintf("\x00?%d\x00", slot)
}

// Bind returns a copy of the plan with every slot placeholder replaced
// by texts[slot] (SQL literal text). The receiver — a cached template —
// is not modified; shared read-only fields (OutCols, OrderBy, DestCols)
// are reused. Each step of the copy keeps the template's node-compile
// slot and records the slot values, read back from texts with the
// parser's literal rule, as the arguments the nodes bind the template's
// markers to.
func (p *Plan) Bind(texts []string) *Plan {
	pairs := make([]string, 0, 2*len(texts))
	args := make([]types.Value, len(texts))
	for slot, t := range texts {
		pairs = append(pairs, Placeholder(slot), t)
		v, ok := sqlparser.ParseLiteral(t)
		if !ok {
			args = nil
		} else if args != nil {
			args[slot] = v
		}
	}
	r := strings.NewReplacer(pairs...)
	out := *p
	out.Steps = make([]Step, len(p.Steps))
	for i, s := range p.Steps {
		if s.node == nil || s.SQL != s.node.template || args == nil {
			// An edited or already bound step, or a non-literal text: the
			// nodes compile the bound text itself.
			s.node = nil
		}
		s.SQL = r.Replace(s.SQL)
		s.text, s.args = s.SQL, args
		out.Steps[i] = s
	}
	return &out
}

// Generate converts an optimized plan into DSQL steps.
func Generate(plan *core.Plan, finalCols []algebra.ColumnMeta) (*Plan, error) {
	g := &generator{
		steps:   map[*core.Option]string{},
		aliases: 0,
	}
	root := plan.Root

	// Peel a root Sort into the final merge spec.
	var orderBy []MergeKey
	var top int64
	if s, ok := sortOf(root); ok {
		top = s.Top
		for _, k := range s.Keys {
			pos := -1
			for i, c := range finalCols {
				if c.ID == k.ID {
					pos = i
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("dsql: sort key c%d not in output", k.ID)
			}
			orderBy = append(orderBy, MergeKey{Pos: pos, Desc: k.Desc})
		}
	}

	sql, err := g.sqlFor(root)
	if err != nil {
		return nil, err
	}
	final := g.wrapFinal(sql, root, finalCols, top)
	g.plan.Steps = append(g.plan.Steps, Step{
		ID:    len(g.plan.Steps),
		Kind:  StepReturn,
		SQL:   final,
		node:  &nodeSlot{template: final},
		text:  final,
		Where: root.Dist.Kind,
		// The Return step streams rows to the client as they merge;
		// replaying it would duplicate delivered rows.
		Idempotent: false,
		Rows:       root.Rows,
		Width:      root.Width,
	})
	g.plan.OutCols = finalCols
	g.plan.OrderBy = orderBy
	g.plan.Top = top
	return &g.plan, nil
}

// sortOf finds a Sort payload at the root (possibly beneath projections).
func sortOf(o *core.Option) (*algebra.Sort, bool) {
	for cur := o; cur != nil; {
		if cur.Move != nil {
			cur = cur.Inputs[0]
			continue
		}
		switch op := cur.Op.(type) {
		case *algebra.Sort:
			return op, true
		case *algebra.Project:
			if len(cur.Inputs) == 1 {
				cur = cur.Inputs[0]
				continue
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}

type generator struct {
	plan    Plan
	steps   map[*core.Option]string // move option → temp table name
	aliases int
	temps   int
}

func (g *generator) nextAlias() string {
	g.aliases++
	return fmt.Sprintf("T%d", g.aliases)
}

// colName is the canonical column name used inside DSQL text and temp
// tables: c<id>, unambiguous across self-joins and reshapings.
func colName(id algebra.ColumnID) string { return fmt.Sprintf("c%d", id) }

// sqlFor renders the relational segment rooted at o as a SELECT statement
// whose output columns are named c<id>. Move nodes below o become steps.
func (g *generator) sqlFor(o *core.Option) (string, error) {
	if o.Move != nil {
		dest, err := g.emitMove(o)
		if err != nil {
			return "", err
		}
		cols := make([]string, len(o.OutCols))
		for i, c := range o.OutCols {
			cols[i] = colName(c.ID)
		}
		return fmt.Sprintf("SELECT %s FROM [tempdb].[%s]", strings.Join(cols, ", "), dest), nil
	}

	switch op := o.Op.(type) {
	case *algebra.Get:
		alias := g.nextAlias()
		cols := make([]string, len(op.Cols))
		for i, c := range op.Cols {
			cols[i] = fmt.Sprintf("%s.[%s] AS %s", alias, c.Name, colName(c.ID))
		}
		return fmt.Sprintf("SELECT %s FROM [dbo].[%s] AS %s",
			strings.Join(cols, ", "), op.Table.Name, alias), nil

	case *algebra.Values:
		return g.valuesSQL(op)

	case *algebra.Select:
		childSQL, err := g.sqlFor(o.Inputs[0])
		if err != nil {
			return "", err
		}
		alias := g.nextAlias()
		res := singleResolver(alias, o.Inputs[0].OutCols)
		pred, err := renderScalar(op.Filter, res)
		if err != nil {
			return "", err
		}
		cols := passThrough(alias, o.OutCols)
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s WHERE %s", cols, childSQL, alias, pred), nil

	case *algebra.Project:
		childSQL, err := g.sqlFor(o.Inputs[0])
		if err != nil {
			return "", err
		}
		alias := g.nextAlias()
		res := singleResolver(alias, o.Inputs[0].OutCols)
		defs := make([]string, len(op.Defs))
		for i, d := range op.Defs {
			e, err := renderScalar(d.Expr, res)
			if err != nil {
				return "", err
			}
			defs[i] = fmt.Sprintf("%s AS %s", e, colName(d.ID))
		}
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s", strings.Join(defs, ", "), childSQL, alias), nil

	case *algebra.Join:
		return g.joinSQL(o, op)

	case *algebra.GroupBy:
		childSQL, err := g.sqlFor(o.Inputs[0])
		if err != nil {
			return "", err
		}
		alias := g.nextAlias()
		res := singleResolver(alias, o.Inputs[0].OutCols)
		var items []string
		var keys []string
		for _, k := range op.Keys {
			items = append(items, fmt.Sprintf("%s.%s AS %s", alias, colName(k), colName(k)))
			keys = append(keys, alias+"."+colName(k))
		}
		for _, a := range op.Aggs {
			e, err := renderAgg(a, res)
			if err != nil {
				return "", err
			}
			items = append(items, fmt.Sprintf("%s AS %s", e, colName(a.ID)))
		}
		sql := fmt.Sprintf("SELECT %s FROM (%s) AS %s", strings.Join(items, ", "), childSQL, alias)
		if len(keys) > 0 {
			sql += " GROUP BY " + strings.Join(keys, ", ")
		}
		return sql, nil

	case *algebra.Sort:
		// Ordering is applied by the Return merge; TOP inside a segment is
		// only safe with an accompanying local ORDER BY.
		childSQL, err := g.sqlFor(o.Inputs[0])
		if err != nil {
			return "", err
		}
		if op.Top <= 0 {
			return childSQL, nil
		}
		alias := g.nextAlias()
		cols := passThrough(alias, o.OutCols)
		order := ""
		if len(op.Keys) > 0 {
			parts := make([]string, len(op.Keys))
			for i, k := range op.Keys {
				d := ""
				if k.Desc {
					d = " DESC"
				}
				parts[i] = alias + "." + colName(k.ID) + d
			}
			order = " ORDER BY " + strings.Join(parts, ", ")
		}
		return fmt.Sprintf("SELECT TOP %d %s FROM (%s) AS %s%s", op.Top, cols, childSQL, alias, order), nil

	case *algebra.UnionAll:
		// Both inputs expose identical column IDs by construction, so the
		// textual union is well-typed when re-parsed by a node.
		leftSQL, err := g.sqlFor(o.Inputs[0])
		if err != nil {
			return "", err
		}
		rightSQL, err := g.sqlFor(o.Inputs[1])
		if err != nil {
			return "", err
		}
		return leftSQL + " UNION ALL " + rightSQL, nil
	}
	return "", fmt.Errorf("dsql: cannot render %T", o.Op)
}

// valuesSQL renders a literal relation. Empty Values become a FROM-less
// select with a false predicate.
func (g *generator) valuesSQL(op *algebra.Values) (string, error) {
	items := make([]string, len(op.Cols))
	if len(op.Rows) == 0 {
		for i, c := range op.Cols {
			items[i] = fmt.Sprintf("CAST(NULL AS %s) AS %s", typeName(c.Type), colName(c.ID))
		}
		sel := "SELECT 1 AS dummy"
		if len(items) > 0 {
			sel = "SELECT " + strings.Join(items, ", ")
		}
		return sel + " WHERE 1 = 0", nil
	}
	if len(op.Rows) == 1 {
		for i, c := range op.Cols {
			items[i] = fmt.Sprintf("%s AS %s", op.Rows[0][i].SQLLiteral(), colName(c.ID))
		}
		if len(items) == 0 {
			return "SELECT 1 AS dummy", nil
		}
		return "SELECT " + strings.Join(items, ", "), nil
	}
	return "", fmt.Errorf("dsql: multi-row Values generation is not supported")
}

// typeName maps a kind to SQL type syntax accepted by the engine's parser.
func typeName(k types.Kind) string {
	switch k {
	case types.KindBool:
		return "BIT"
	case types.KindInt:
		return "BIGINT"
	case types.KindFloat:
		return "FLOAT"
	case types.KindString:
		return "VARCHAR"
	case types.KindDate:
		return "DATE"
	default:
		return "BIGINT"
	}
}

// joinSQL renders joins: inner/outer joins use JOIN syntax; semi and anti
// joins render as (NOT) EXISTS so the per-node engine re-derives them.
func (g *generator) joinSQL(o *core.Option, op *algebra.Join) (string, error) {
	leftSQL, err := g.sqlFor(o.Inputs[0])
	if err != nil {
		return "", err
	}
	rightSQL, err := g.sqlFor(o.Inputs[1])
	if err != nil {
		return "", err
	}
	la, ra := g.nextAlias(), g.nextAlias()
	res := pairResolver(la, o.Inputs[0].OutCols, ra, o.Inputs[1].OutCols)

	switch op.Kind {
	case algebra.JoinSemi, algebra.JoinAnti:
		cols := passThrough(la, o.OutCols)
		pred := "1 = 1"
		if op.On != nil {
			pred, err = renderScalar(op.On, res)
			if err != nil {
				return "", err
			}
		}
		not := ""
		if op.Kind == algebra.JoinAnti {
			not = "NOT "
		}
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s WHERE %sEXISTS (SELECT 1 FROM (%s) AS %s WHERE %s)",
			cols, leftSQL, la, not, rightSQL, ra, pred), nil

	case algebra.JoinCross:
		cols := passThrough2(la, o.Inputs[0].OutCols, ra, o.Inputs[1].OutCols)
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s CROSS JOIN (%s) AS %s",
			cols, leftSQL, la, rightSQL, ra), nil

	default:
		kw := "INNER JOIN"
		switch op.Kind {
		case algebra.JoinLeftOuter:
			kw = "LEFT JOIN"
		case algebra.JoinFullOuter:
			kw = "FULL JOIN"
		}
		pred := "1 = 1"
		if op.On != nil {
			pred, err = renderScalar(op.On, res)
			if err != nil {
				return "", err
			}
		}
		cols := passThrough2(la, o.Inputs[0].OutCols, ra, o.Inputs[1].OutCols)
		return fmt.Sprintf("SELECT %s FROM (%s) AS %s %s (%s) AS %s ON %s",
			cols, leftSQL, la, kw, rightSQL, ra, pred), nil
	}
}

// emitMove materializes the move option as a DSQL step, returning the temp
// table name (memoized: shared subplans materialize once).
func (g *generator) emitMove(o *core.Option) (string, error) {
	if dest, ok := g.steps[o]; ok {
		return dest, nil
	}
	src := o.Inputs[0]
	sql, err := g.sqlFor(src)
	if err != nil {
		return "", err
	}
	g.temps++
	dest := fmt.Sprintf("TEMP_ID_%d", g.temps)
	destCols := make([]catalog.Column, len(o.OutCols))
	for i, c := range o.OutCols {
		destCols[i] = catalog.Column{Name: colName(c.ID), Type: c.Type}
	}
	hashCol := ""
	if o.Move.Kind == cost.Shuffle || o.Move.Kind == cost.Trim {
		hashCol = colName(o.Move.Col)
	}
	g.plan.Steps = append(g.plan.Steps, Step{
		ID:         len(g.plan.Steps),
		Kind:       StepMove,
		SQL:        sql,
		node:       &nodeSlot{template: sql},
		text:       sql,
		Where:      src.Dist.Kind,
		Idempotent: o.Idempotent(),
		MoveKind:   o.Move.Kind,
		HashCol:    hashCol,
		Dest:       dest,
		DestCols:   destCols,
		Rows:       o.Rows,
		Width:      o.Width,
		MoveCost:   o.DMSCost - src.DMSCost,
	})
	g.steps[o] = dest
	return dest, nil
}

// wrapFinal renders the Return step SQL: the final segment with client-
// facing column names and, when ordered, a per-node ORDER BY for the merge.
func (g *generator) wrapFinal(sql string, root *core.Option, finalCols []algebra.ColumnMeta, top int64) string {
	alias := g.nextAlias()
	items := make([]string, len(finalCols))
	for i, c := range finalCols {
		name := c.Name
		if name == "" {
			name = colName(c.ID)
		}
		items[i] = fmt.Sprintf("%s.%s AS [%s]", alias, colName(c.ID), name)
	}
	out := fmt.Sprintf("SELECT %s FROM (%s) AS %s", strings.Join(items, ", "), sql, alias)
	_ = top
	_ = root
	return out
}

// passThrough renders "alias.cN AS cN" for each column.
func passThrough(alias string, cols []algebra.ColumnMeta) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s.%s AS %s", alias, colName(c.ID), colName(c.ID))
	}
	return strings.Join(parts, ", ")
}

// passThrough2 renders pass-throughs from two inputs.
func passThrough2(la string, lcols []algebra.ColumnMeta, ra string, rcols []algebra.ColumnMeta) string {
	l := passThrough(la, lcols)
	r := passThrough(ra, rcols)
	if l == "" {
		return r
	}
	if r == "" {
		return l
	}
	return l + ", " + r
}

// --- Scalar rendering ---

// resolver maps a column ID to its qualified SQL name.
type resolver func(algebra.ColumnID) (string, error)

func singleResolver(alias string, cols []algebra.ColumnMeta) resolver {
	return func(id algebra.ColumnID) (string, error) {
		if !hasCol(cols, id) {
			return "", fmt.Errorf("dsql: column c%d not in scope", id)
		}
		return alias + "." + colName(id), nil
	}
}

func pairResolver(la string, lcols []algebra.ColumnMeta, ra string, rcols []algebra.ColumnMeta) resolver {
	return func(id algebra.ColumnID) (string, error) {
		if hasCol(lcols, id) {
			return la + "." + colName(id), nil
		}
		if hasCol(rcols, id) {
			return ra + "." + colName(id), nil
		}
		return "", fmt.Errorf("dsql: column c%d not in scope", id)
	}
}

// hasCol reports whether the schema has column id. Resolvers scan the
// schema rather than build a column set: a partial aggregate's state
// columns are minted far above the memo's ids, where a dense set is large.
func hasCol(cols []algebra.ColumnMeta, id algebra.ColumnID) bool {
	for _, c := range cols {
		if c.ID == id {
			return true
		}
	}
	return false
}

// renderScalar renders a bound expression as SQL text in the engine's
// dialect.
func renderScalar(e algebra.Scalar, res resolver) (string, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		return res(x.ID)
	case *algebra.Const:
		if slot, ok := x.Slot(); ok {
			return Placeholder(slot), nil
		}
		return x.Val.SQLLiteral(), nil
	case *algebra.Binary:
		l, err := renderScalar(x.L, res)
		if err != nil {
			return "", err
		}
		r, err := renderScalar(x.R, res)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %s %s)", l, x.Op, r), nil
	case *algebra.Not:
		inner, err := renderScalar(x.E, res)
		if err != nil {
			return "", err
		}
		return "NOT (" + inner + ")", nil
	case *algebra.Neg:
		inner, err := renderScalar(x.E, res)
		if err != nil {
			return "", err
		}
		return "(-" + inner + ")", nil
	case *algebra.IsNull:
		inner, err := renderScalar(x.E, res)
		if err != nil {
			return "", err
		}
		if x.Negated {
			return inner + " IS NOT NULL", nil
		}
		return inner + " IS NULL", nil
	case *algebra.Like:
		inner, err := renderScalar(x.E, res)
		if err != nil {
			return "", err
		}
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return fmt.Sprintf("%s %sLIKE %s", inner, n, types.NewString(x.Pattern).SQLLiteral()), nil
	case *algebra.InList:
		inner, err := renderScalar(x.E, res)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(x.List))
		for i, el := range x.List {
			s, err := renderScalar(el, res)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return fmt.Sprintf("%s %sIN (%s)", inner, n, strings.Join(parts, ", ")), nil
	case *algebra.Func:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			// DATEADD's part argument renders bare.
			if i == 0 && x.Name == "DATEADD" {
				if c, ok := a.(*algebra.Const); ok && c.Val.Kind() == types.KindString {
					args[i] = c.Val.Str()
					continue
				}
			}
			s, err := renderScalar(a, res)
			if err != nil {
				return "", err
			}
			args[i] = s
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", ")), nil
	case *algebra.Case:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range x.Whens {
			c, err := renderScalar(w.Cond, res)
			if err != nil {
				return "", err
			}
			t, err := renderScalar(w.Then, res)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " WHEN %s THEN %s", c, t)
		}
		if x.Else != nil {
			e2, err := renderScalar(x.Else, res)
			if err != nil {
				return "", err
			}
			b.WriteString(" ELSE " + e2)
		}
		b.WriteString(" END")
		return b.String(), nil
	case *algebra.Cast:
		inner, err := renderScalar(x.E, res)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("CAST(%s AS %s)", inner, typeName(x.To)), nil
	default:
		return "", fmt.Errorf("dsql: cannot render scalar %T", e)
	}
}

// renderAgg renders an aggregate call.
func renderAgg(a algebra.AggDef, res resolver) (string, error) {
	if a.Arg == nil {
		return "COUNT(*)", nil
	}
	arg, err := renderScalar(a.Arg, res)
	if err != nil {
		return "", err
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", a.Func, d, arg), nil
}
