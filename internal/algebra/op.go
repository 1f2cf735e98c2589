package algebra

import (
	"fmt"
	"strings"

	"pdwqo/internal/catalog"
	"pdwqo/internal/types"
)

// Operator is the payload of one relational operator, independent of its
// children. The same payloads are shared between bound trees (Tree) and
// MEMO group expressions (payload + child group IDs), which is what lets
// the PDW optimizer consume the serial search space directly.
type Operator interface {
	// OpName returns the operator's display name.
	OpName() string
	// Fingerprint renders payload identity for memo duplicate detection.
	// Two operators with equal fingerprints and equal children are the
	// same expression.
	Fingerprint() string
	// Arity returns the number of children the operator requires.
	Arity() int
}

// JoinKind classifies logical joins after binding. RIGHT OUTER is
// normalized away by swapping inputs.
type JoinKind uint8

// Logical join kinds.
const (
	JoinInner JoinKind = iota
	JoinCross
	JoinLeftOuter
	JoinFullOuter
	JoinSemi
	JoinAnti
)

// String names the join kind.
func (k JoinKind) String() string {
	return [...]string{"Inner", "Cross", "LeftOuter", "FullOuter", "Semi", "Anti"}[k]
}

// Get scans a base table. Cols holds the fresh column IDs this instance
// minted for the table's columns, in table order.
type Get struct {
	Table *catalog.Table
	Alias string
	Cols  []ColumnMeta
}

// OpName implements Operator.
func (*Get) OpName() string { return "Get" }

// Arity implements Operator.
func (*Get) Arity() int { return 0 }

// Fingerprint implements Operator.
func (g *Get) Fingerprint() string {
	ids := make([]string, len(g.Cols))
	for i, c := range g.Cols {
		ids[i] = fmt.Sprintf("c%d", c.ID)
	}
	return fmt.Sprintf("Get(%s as %s -> %s)", g.Table.Name, g.Alias, strings.Join(ids, ","))
}

// Select filters its input by a boolean expression.
type Select struct {
	Filter Scalar
}

// OpName implements Operator.
func (*Select) OpName() string { return "Select" }

// Arity implements Operator.
func (*Select) Arity() int { return 1 }

// Fingerprint implements Operator.
func (s *Select) Fingerprint() string { return "Select(" + s.Filter.Fingerprint() + ")" }

// ProjDef is one projection: compute Expr, expose it as column ID/Name.
// A pass-through projection of a ColRef keeps the referenced ID.
type ProjDef struct {
	Expr Scalar
	ID   ColumnID
	Name string
}

// Project computes expressions over its input.
type Project struct {
	Defs []ProjDef
}

// OpName implements Operator.
func (*Project) OpName() string { return "Project" }

// Arity implements Operator.
func (*Project) Arity() int { return 1 }

// Fingerprint implements Operator.
func (p *Project) Fingerprint() string {
	parts := make([]string, len(p.Defs))
	for i, d := range p.Defs {
		parts[i] = fmt.Sprintf("c%d:=%s", d.ID, d.Expr.Fingerprint())
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// Join combines two inputs. On is nil for cross joins.
type Join struct {
	Kind JoinKind
	On   Scalar
}

// OpName implements Operator.
func (j *Join) OpName() string { return j.Kind.String() + "Join" }

// Arity implements Operator.
func (*Join) Arity() int { return 2 }

// Fingerprint implements Operator.
func (j *Join) Fingerprint() string {
	on := ""
	if j.On != nil {
		on = j.On.Fingerprint()
	}
	return fmt.Sprintf("%sJoin(%s)", j.Kind, on)
}

// AggPhase marks where a GroupBy runs in the distributed plan. The serial
// optimizer only emits AggComplete; the PDW optimizer splits a complete
// aggregation into a Partial/Final pair around a data movement (paper §4,
// "local-global transformation"): each node pre-aggregates its local rows
// into partial states, the much smaller states move, and a finalizing
// aggregation merges them.
type AggPhase uint8

// Aggregation phases.
const (
	AggComplete AggPhase = iota
	AggPartial
	AggFinal
)

// String names the phase.
func (p AggPhase) String() string {
	return [...]string{"", "Partial", "Final"}[p]
}

// GroupBy groups by key columns and computes aggregates. A GroupBy with no
// aggregates implements DISTINCT.
type GroupBy struct {
	Keys  []ColumnID
	Aggs  []AggDef
	Phase AggPhase
}

// OpName implements Operator.
func (g *GroupBy) OpName() string { return g.Phase.String() + "GroupBy" }

// Arity implements Operator.
func (*GroupBy) Arity() int { return 1 }

// Fingerprint implements Operator.
func (g *GroupBy) Fingerprint() string {
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = fmt.Sprintf("c%d", k)
	}
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.Fingerprint()
	}
	return fmt.Sprintf("%sGroupBy([%s] aggs=[%s])", g.Phase, strings.Join(keys, ","), strings.Join(aggs, ","))
}

// SortKey is one ordering column.
type SortKey struct {
	ID   ColumnID
	Desc bool
}

// Sort orders its input; Top > 0 additionally keeps only the first rows
// (TOP N / ORDER BY ... combinations).
type Sort struct {
	Keys []SortKey
	Top  int64 // 0 means no limit
}

// OpName implements Operator.
func (*Sort) OpName() string { return "Sort" }

// Arity implements Operator.
func (*Sort) Arity() int { return 1 }

// Fingerprint implements Operator.
func (s *Sort) Fingerprint() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		d := ""
		if k.Desc {
			d = " DESC"
		}
		parts[i] = fmt.Sprintf("c%d%s", k.ID, d)
	}
	return fmt.Sprintf("Sort([%s] top=%d)", strings.Join(parts, ","), s.Top)
}

// UnionAll concatenates two inputs with identical column IDs (the binder
// maps both sides onto the left side's IDs via projections).
type UnionAll struct{}

// OpName implements Operator.
func (*UnionAll) OpName() string { return "UnionAll" }

// Arity implements Operator.
func (*UnionAll) Arity() int { return 2 }

// Fingerprint implements Operator.
func (*UnionAll) Fingerprint() string { return "UnionAll()" }

// Tree is a bound operator tree: payload plus children. The binder and
// normalizer work on Trees; the memo flattens them.
type Tree struct {
	Op       Operator
	Children []*Tree

	outputCols   []ColumnMeta // lazily derived
	outputColSet *ColSet      // lazily derived; callers must not mutate
}

// NewTree builds a tree node, validating arity.
func NewTree(op Operator, children ...*Tree) *Tree {
	if len(children) != op.Arity() {
		panic(fmt.Sprintf("algebra: %s expects %d children, got %d", op.OpName(), op.Arity(), len(children)))
	}
	return &Tree{Op: op, Children: children}
}

// NewTreeSameSchema builds a tree node whose output schema is known to
// equal `like`'s — the contract of filter-placement rewrites, which only
// insert/remove Selects and fold conjuncts into join conditions. The
// cached schema carries over, so passes that rebuild a root-to-leaf path
// per conjunct (pushdown on a 100-relation join region) stay linear in
// path length instead of recomputing every schema along it.
func NewTreeSameSchema(like *Tree, op Operator, children ...*Tree) *Tree {
	t := NewTree(op, children...)
	t.outputCols = like.outputCols
	t.outputColSet = like.outputColSet
	return t
}

// OutputCols derives the operator's output schema from its children.
func (t *Tree) OutputCols() []ColumnMeta {
	if t.outputCols != nil {
		return t.outputCols
	}
	t.outputCols = OutputCols(t.Op, t.Children)
	return t.outputCols
}

// OutputCols computes the output schema of op over children.
func OutputCols(op Operator, children []*Tree) []ColumnMeta {
	schemas := make([][]ColumnMeta, len(children))
	for i, c := range children {
		schemas[i] = c.OutputCols()
	}
	return OutputColsFromSchemas(op, schemas)
}

// OutputColsFromSchemas computes the output schema of op given its
// children's schemas; shared with the memo, whose children are groups.
func OutputColsFromSchemas(op Operator, children [][]ColumnMeta) []ColumnMeta {
	switch o := op.(type) {
	case *Get:
		return o.Cols
	case *Select:
		return children[0]
	case *Project:
		in := children[0]
		out := make([]ColumnMeta, len(o.Defs))
		for i, d := range o.Defs {
			m := ColumnMeta{ID: d.ID, Name: d.Name, Type: d.Expr.Type()}
			if c, ok := d.Expr.(*ColRef); ok {
				m.Qual = c.Meta.Qual
				if m.Name == "" {
					m.Name = c.Meta.Name
				}
				// Preserve the original type for pass-throughs.
				for _, ic := range in {
					if ic.ID == c.ID {
						m.Type = ic.Type
					}
				}
			}
			out[i] = m
		}
		return out
	case *Join:
		left := children[0]
		switch o.Kind {
		case JoinSemi, JoinAnti:
			return left
		}
		right := children[1]
		out := make([]ColumnMeta, 0, len(left)+len(right))
		out = append(out, left...)
		out = append(out, right...)
		return out
	case *GroupBy:
		in := children[0]
		out := make([]ColumnMeta, 0, len(o.Keys)+len(o.Aggs))
		for _, k := range o.Keys {
			found := false
			for _, c := range in {
				if c.ID == k {
					out = append(out, c)
					found = true
					break
				}
			}
			if !found {
				out = append(out, ColumnMeta{ID: k, Name: fmt.Sprintf("c%d", k)})
			}
		}
		for _, a := range o.Aggs {
			out = append(out, ColumnMeta{ID: a.ID, Name: a.Name, Type: a.ResultType()})
		}
		return out
	case *Sort:
		return children[0]
	case *UnionAll:
		return children[0]
	case *Values:
		return o.Cols
	default:
		panic(fmt.Sprintf("algebra: OutputCols on unknown operator %T", op))
	}
}

// OutputColSet returns the output schema as a column set. The set is
// computed once and cached — normalization passes probe it on every
// conjunct placement, which is quadratic in plan depth on the
// 100-relation stress corpus — so callers must treat it as read-only
// (Copy before extending, as pruneColumns does).
func (t *Tree) OutputColSet() ColSet {
	if t.outputColSet != nil {
		return *t.outputColSet
	}
	s := ColSetOf(t.OutputCols())
	t.outputColSet = &s
	return s
}

// Fingerprint renders the whole tree deterministically.
func (t *Tree) Fingerprint() string {
	if len(t.Children) == 0 {
		return t.Op.Fingerprint()
	}
	parts := make([]string, len(t.Children))
	for i, c := range t.Children {
		parts[i] = c.Fingerprint()
	}
	return t.Op.Fingerprint() + "[" + strings.Join(parts, "; ") + "]"
}

// String renders an indented plan for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	t.format(&b, 0)
	return b.String()
}

func (t *Tree) format(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(t.Op.Fingerprint())
	b.WriteByte('\n')
	for _, c := range t.Children {
		c.format(b, depth+1)
	}
}

// VisitTree walks the tree pre-order, including subquery inputs embedded in
// scalar expressions.
func VisitTree(t *Tree, f func(*Tree)) {
	if t == nil {
		return
	}
	f(t)
	for _, s := range OperatorScalars(t.Op) {
		VisitScalar(s, func(e Scalar) {
			if sq, ok := e.(*Subquery); ok {
				VisitTree(sq.Input, f)
			}
		})
	}
	for _, c := range t.Children {
		VisitTree(c, f)
	}
}

// OperatorScalars returns every scalar expression embedded in an operator
// payload; used by column analyses and rewrites.
func OperatorScalars(op Operator) []Scalar {
	switch o := op.(type) {
	case *Select:
		return []Scalar{o.Filter}
	case *Project:
		out := make([]Scalar, len(o.Defs))
		for i, d := range o.Defs {
			out[i] = d.Expr
		}
		return out
	case *Join:
		if o.On != nil {
			return []Scalar{o.On}
		}
	case *GroupBy:
		var out []Scalar
		for _, a := range o.Aggs {
			if a.Arg != nil {
				out = append(out, a.Arg)
			}
		}
		return out
	}
	return nil
}

// FreeCols returns the columns referenced by the tree (including inside
// nested subqueries) that are not produced inside it — i.e. its correlated
// outer references.
func FreeCols(t *Tree) ColSet {
	var produced, referenced ColSet
	var walk func(n *Tree)
	walk = func(n *Tree) {
		if n == nil {
			return
		}
		produced = produced.Union(n.OutputColSet())
		// Inputs to operators also count as produced (e.g. columns consumed
		// by a Project but not re-exposed).
		for _, ch := range n.Children {
			produced = produced.Union(ch.OutputColSet())
		}
		for _, s := range OperatorScalars(n.Op) {
			VisitScalar(s, func(e Scalar) {
				switch x := e.(type) {
				case *ColRef:
					referenced.Add(x.ID)
				case *Subquery:
					walk(x.Input)
				}
			})
		}
		if g, ok := n.Op.(*GroupBy); ok {
			for _, k := range g.Keys {
				referenced.Add(k)
			}
		}
		if s, ok := n.Op.(*Sort); ok {
			for _, k := range s.Keys {
				referenced.Add(k.ID)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t)
	var free ColSet
	referenced.ForEach(func(id ColumnID) {
		if !produced.Has(id) {
			free.Add(id)
		}
	})
	return free
}

// Values is a literal relation. The normalizer uses an empty Values to
// replace provably-empty subtrees (contradiction detection); each row, when
// present, is a list of constants matching Cols.
type Values struct {
	Cols []ColumnMeta
	Rows [][]types.Value
}

// OpName implements Operator.
func (*Values) OpName() string { return "Values" }

// Arity implements Operator.
func (*Values) Arity() int { return 0 }

// Fingerprint implements Operator.
func (v *Values) Fingerprint() string {
	ids := make([]string, len(v.Cols))
	for i, c := range v.Cols {
		ids[i] = fmt.Sprintf("c%d", c.ID)
	}
	var rows strings.Builder
	for i, r := range v.Rows {
		if i > 0 {
			rows.WriteByte(';')
		}
		for j, val := range r {
			if j > 0 {
				rows.WriteByte(',')
			}
			rows.WriteString(val.SQLLiteral())
		}
	}
	return fmt.Sprintf("Values([%s] rows=%s)", strings.Join(ids, ","), rows.String())
}
