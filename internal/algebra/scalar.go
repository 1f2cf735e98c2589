// Package algebra defines the bound relational algebra shared by the
// normalizer, the serial (Cascades-style) optimizer and the PDW optimizer:
// operator payloads, expression trees over global column IDs, and the
// binder that produces them from parser ASTs (the SQL Server "algebrizer"
// role in paper Figure 2).
package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// ColumnID uniquely identifies a column instance across the whole query.
// Every Get of a base table mints fresh IDs, so self-joins are unambiguous.
type ColumnID int

// ColumnMeta describes one output column of an operator.
type ColumnMeta struct {
	ID   ColumnID
	Name string // display name (column name or alias)
	Qual string // originating table alias, for display only
	Type types.Kind
}

// Scalar is a bound scalar (or boolean) expression.
type Scalar interface {
	// Type returns the expression's result kind.
	Type() types.Kind
	// Fingerprint renders a deterministic encoding used for memo dedup and
	// plan display. Two scalars with equal fingerprints are identical.
	Fingerprint() string
}

// ColRef references a column by ID.
type ColRef struct {
	ID   ColumnID
	Meta ColumnMeta // display info; Meta.ID == ID
}

// NewColRef builds a reference from metadata.
func NewColRef(m ColumnMeta) *ColRef { return &ColRef{ID: m.ID, Meta: m} }

// Type implements Scalar.
func (c *ColRef) Type() types.Kind { return c.Meta.Type }

// Fingerprint implements Scalar.
func (c *ColRef) Fingerprint() string { return "c" + strconv.Itoa(int(c.ID)) }

// Const is a literal value. Param, when non-zero, ties the constant to
// parameter slot Param-1 of the query's parameterized form (see
// normalize.Parameterize): the plan cache re-binds such constants to new
// literal values on a cache hit. Slots are assigned per distinct value,
// so two Consts with equal values always carry the same Param — which is
// what makes value-based expression dedup safe under re-binding.
type Const struct {
	Val   types.Value
	Param int
}

// Slot returns the 0-based parameter slot, if any.
func (c *Const) Slot() (int, bool) { return c.Param - 1, c.Param > 0 }

// Type implements Scalar.
func (c *Const) Type() types.Kind { return c.Val.Kind() }

// Fingerprint implements Scalar. Parameterized constants fingerprint
// distinctly from plain ones with the same value: a plain constant is
// structural (e.g. a retained DATEADD argument) and must never be merged
// with a re-bindable slot by fingerprint-driven dedup.
func (c *Const) Fingerprint() string {
	if c.Param > 0 {
		return fmt.Sprintf("%s?p%d", c.Val.SQLLiteral(), c.Param-1)
	}
	return c.Val.SQLLiteral()
}

// Binary applies a binary operator. Comparison and logic operators yield
// KindBool; arithmetic follows numeric promotion.
type Binary struct {
	Op   sqlparser.BinOp
	L, R Scalar
}

// Type implements Scalar.
func (b *Binary) Type() types.Kind {
	if b.Op.IsComparison() || b.Op == sqlparser.OpAnd || b.Op == sqlparser.OpOr {
		return types.KindBool
	}
	if b.Op == sqlparser.OpDiv {
		return types.KindFloat
	}
	if b.L.Type() == types.KindFloat || b.R.Type() == types.KindFloat {
		return types.KindFloat
	}
	if b.L.Type() == types.KindNull {
		return b.R.Type()
	}
	return b.L.Type()
}

// Fingerprint implements Scalar.
func (b *Binary) Fingerprint() string {
	return "(" + b.L.Fingerprint() + " " + b.Op.String() + " " + b.R.Fingerprint() + ")"
}

// Not is logical negation.
type Not struct{ E Scalar }

// Type implements Scalar.
func (*Not) Type() types.Kind { return types.KindBool }

// Fingerprint implements Scalar.
func (n *Not) Fingerprint() string { return "NOT " + n.E.Fingerprint() }

// Neg is arithmetic negation.
type Neg struct{ E Scalar }

// Type implements Scalar.
func (n *Neg) Type() types.Kind { return n.E.Type() }

// Fingerprint implements Scalar.
func (n *Neg) Fingerprint() string { return "(-" + n.E.Fingerprint() + ")" }

// IsNull tests `E IS [NOT] NULL`.
type IsNull struct {
	E       Scalar
	Negated bool
}

// Type implements Scalar.
func (*IsNull) Type() types.Kind { return types.KindBool }

// Fingerprint implements Scalar.
func (i *IsNull) Fingerprint() string {
	if i.Negated {
		return i.E.Fingerprint() + " IS NOT NULL"
	}
	return i.E.Fingerprint() + " IS NULL"
}

// Like tests `E [NOT] LIKE pattern` (pattern is a constant string).
type Like struct {
	E       Scalar
	Pattern string
	Negated bool
}

// Type implements Scalar.
func (*Like) Type() types.Kind { return types.KindBool }

// Fingerprint implements Scalar.
func (l *Like) Fingerprint() string {
	n := ""
	if l.Negated {
		n = "NOT "
	}
	return l.E.Fingerprint() + " " + n + "LIKE " + types.NewString(l.Pattern).SQLLiteral()
}

// InList tests membership in a constant list.
type InList struct {
	E       Scalar
	List    []Scalar
	Negated bool
}

// Type implements Scalar.
func (*InList) Type() types.Kind { return types.KindBool }

// Fingerprint implements Scalar.
func (in *InList) Fingerprint() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.Fingerprint()
	}
	n := ""
	if in.Negated {
		n = "NOT "
	}
	return in.E.Fingerprint() + " " + n + "IN (" + strings.Join(parts, ", ") + ")"
}

// Func is a scalar function call (DATEADD, YEAR, ...). Aggregates are not
// Funcs: the binder lifts them into GroupBy operators as AggDef.
type Func struct {
	Name string
	Args []Scalar
	Out  types.Kind
}

// Type implements Scalar.
func (f *Func) Type() types.Kind { return f.Out }

// Fingerprint implements Scalar.
func (f *Func) Fingerprint() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.Fingerprint()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Case is a searched CASE expression.
type Case struct {
	Whens []CaseWhen
	Else  Scalar // nil means NULL
}

// CaseWhen is one WHEN arm.
type CaseWhen struct{ Cond, Then Scalar }

// Type implements Scalar.
func (c *Case) Type() types.Kind {
	for _, w := range c.Whens {
		if w.Then.Type() != types.KindNull {
			return w.Then.Type()
		}
	}
	if c.Else != nil {
		return c.Else.Type()
	}
	return types.KindNull
}

// Fingerprint implements Scalar.
func (c *Case) Fingerprint() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.Cond.Fingerprint() + " THEN " + w.Then.Fingerprint())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.Fingerprint())
	}
	b.WriteString(" END")
	return b.String()
}

// Cast converts to a target kind.
type Cast struct {
	E  Scalar
	To types.Kind
}

// Type implements Scalar.
func (c *Cast) Type() types.Kind { return c.To }

// Fingerprint implements Scalar.
func (c *Cast) Fingerprint() string {
	return "CAST(" + c.E.Fingerprint() + " AS " + c.To.String() + ")"
}

// SubqueryKind classifies an unresolved subquery scalar.
type SubqueryKind uint8

// Subquery kinds produced by the binder and consumed by the normalizer's
// unnesting rules.
const (
	SubqueryScalar SubqueryKind = iota // (SELECT agg ...) used as a value
	SubqueryIn                         // expr IN (SELECT col ...)
	SubqueryExists                     // EXISTS (SELECT ...)
)

// Subquery is a nested query embedded in an expression. The normalizer
// removes every Subquery by rewriting it into semi/anti/inner joins; any
// Subquery remaining after normalization is a compile error.
type Subquery struct {
	Kind    SubqueryKind
	Input   *Tree  // bound subquery plan
	Outer   Scalar // for SubqueryIn: the left-hand expression
	Negated bool   // NOT IN / NOT EXISTS
}

// Type implements Scalar.
func (s *Subquery) Type() types.Kind {
	switch s.Kind {
	case SubqueryScalar:
		cols := s.Input.OutputCols()
		if len(cols) > 0 {
			return cols[0].Type
		}
		return types.KindNull
	default:
		return types.KindBool
	}
}

// Fingerprint implements Scalar.
func (s *Subquery) Fingerprint() string {
	kind := [...]string{"SCALAR", "IN", "EXISTS"}[s.Kind]
	n := ""
	if s.Negated {
		n = "NOT-"
	}
	outer := ""
	if s.Outer != nil {
		outer = s.Outer.Fingerprint() + " "
	}
	return outer + n + kind + "-SUBQUERY[" + s.Input.Fingerprint() + "]"
}

// AggFunc enumerates aggregate functions. AVG is rewritten by the binder
// into SUM/COUNT so the PDW optimizer's partial/final split stays uniform.
type AggFunc uint8

// Aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
)

// String names the function in SQL.
func (f AggFunc) String() string {
	return [...]string{"SUM", "COUNT", "MIN", "MAX"}[f]
}

// AggDef is one aggregate computed by a GroupBy.
type AggDef struct {
	Func     AggFunc
	Arg      Scalar // nil for COUNT(*)
	Distinct bool
	ID       ColumnID // output column id
	Name     string   // display name
}

// ResultType returns the aggregate's output kind.
func (a AggDef) ResultType() types.Kind {
	if a.Func == AggCount {
		return types.KindInt
	}
	if a.Arg == nil {
		return types.KindInt
	}
	return a.Arg.Type()
}

// Fingerprint renders the aggregate deterministically.
func (a AggDef) Fingerprint() string {
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.Fingerprint()
	}
	return fmt.Sprintf("c%d:=%s(%s%s)", a.ID, a.Func, d, arg)
}

// --- Scalar utilities ---

// VisitScalar walks e depth-first, calling f on every node. Subquery inputs
// are not descended into; callers handle them explicitly.
func VisitScalar(e Scalar, f func(Scalar)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Binary:
		VisitScalar(x.L, f)
		VisitScalar(x.R, f)
	case *Not:
		VisitScalar(x.E, f)
	case *Neg:
		VisitScalar(x.E, f)
	case *IsNull:
		VisitScalar(x.E, f)
	case *Like:
		VisitScalar(x.E, f)
	case *InList:
		VisitScalar(x.E, f)
		for _, el := range x.List {
			VisitScalar(el, f)
		}
	case *Func:
		for _, a := range x.Args {
			VisitScalar(a, f)
		}
	case *Case:
		for _, w := range x.Whens {
			VisitScalar(w.Cond, f)
			VisitScalar(w.Then, f)
		}
		VisitScalar(x.Else, f)
	case *Cast:
		VisitScalar(x.E, f)
	case *Subquery:
		VisitScalar(x.Outer, f)
	}
}

// ScalarCols returns the set of column IDs referenced by e, ignoring
// columns bound inside subquery inputs.
func ScalarCols(e Scalar) ColSet {
	out := NewColSet()
	VisitScalar(e, func(s Scalar) {
		if c, ok := s.(*ColRef); ok {
			out.Add(c.ID)
		}
	})
	return out
}

// HasSubquery reports whether e contains any Subquery node.
func HasSubquery(e Scalar) bool {
	found := false
	VisitScalar(e, func(s Scalar) {
		if _, ok := s.(*Subquery); ok {
			found = true
		}
	})
	return found
}

// RewriteScalar rebuilds e bottom-up, replacing each node with f(node)
// after its children have been rewritten. f returning nil keeps the node.
func RewriteScalar(e Scalar, f func(Scalar) Scalar) Scalar {
	if e == nil {
		return nil
	}
	e = RewriteChildren(e, func(c Scalar) Scalar { return RewriteScalar(c, f) })
	if r := f(e); r != nil {
		return r
	}
	return e
}

// RewriteChildren returns a copy of e whose direct children are f(child),
// called left to right (an IN list's elements before its operand); a
// leaf is returned as it is. f is never called on an absent child (a
// CASE without ELSE, a subquery without an outer operand), which stays
// absent.
func RewriteChildren(e Scalar, f func(Scalar) Scalar) Scalar {
	switch x := e.(type) {
	case *Binary:
		return &Binary{Op: x.Op, L: f(x.L), R: f(x.R)}
	case *Not:
		return &Not{E: f(x.E)}
	case *Neg:
		return &Neg{E: f(x.E)}
	case *IsNull:
		return &IsNull{E: f(x.E), Negated: x.Negated}
	case *Like:
		return &Like{E: f(x.E), Pattern: x.Pattern, Negated: x.Negated}
	case *InList:
		list := make([]Scalar, len(x.List))
		for i, el := range x.List {
			list[i] = f(el)
		}
		return &InList{E: f(x.E), List: list, Negated: x.Negated}
	case *Func:
		args := make([]Scalar, len(x.Args))
		for i, a := range x.Args {
			args[i] = f(a)
		}
		return &Func{Name: x.Name, Args: args, Out: x.Out}
	case *Case:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{Cond: f(w.Cond), Then: f(w.Then)}
		}
		out := &Case{Whens: whens}
		if x.Else != nil {
			out.Else = f(x.Else)
		}
		return out
	case *Cast:
		return &Cast{E: f(x.E), To: x.To}
	case *Subquery:
		out := &Subquery{Kind: x.Kind, Input: x.Input, Negated: x.Negated}
		if x.Outer != nil {
			out.Outer = f(x.Outer)
		}
		return out
	}
	return e
}

// Conjuncts splits a boolean expression on AND into its conjunct list.
func Conjuncts(e Scalar) []Scalar { return appendConjuncts(nil, e) }

func appendConjuncts(dst []Scalar, e Scalar) []Scalar {
	if e == nil {
		return dst
	}
	if b, ok := e.(*Binary); ok && b.Op == sqlparser.OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.L), b.R)
	}
	return append(dst, e)
}

// AndAll rebuilds a conjunction from a list (nil for an empty list).
func AndAll(list []Scalar) Scalar {
	var out Scalar
	for _, e := range list {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Binary{Op: sqlparser.OpAnd, L: out, R: e}
		}
	}
	return out
}

// EquiJoinSides inspects a conjunct and, when it is `colA = colB`, returns
// the two column IDs. This powers join-column detection everywhere:
// transitivity closure, interesting properties, shuffle targets.
func EquiJoinSides(e Scalar) (ColumnID, ColumnID, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != sqlparser.OpEq {
		return 0, 0, false
	}
	l, lok := b.L.(*ColRef)
	r, rok := b.R.(*ColRef)
	if !lok || !rok {
		return 0, 0, false
	}
	return l.ID, r.ID, true
}
