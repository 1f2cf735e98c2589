// Package sqlparser implements the PDW parser (paper Figure 2, component 1):
// a lexer and recursive-descent parser producing an abstract syntax tree for
// the T-SQL subset the system supports — SELECT queries with joins, nested
// sub-queries (IN / EXISTS / scalar, correlated or not), grouping,
// aggregation, ordering and TOP, plus CREATE TABLE with PDW distribution
// clauses.
package sqlparser

import (
	"fmt"
	"strings"

	"pdwqo/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a (possibly nested) SELECT query. Union chains additional
// branches combined with UNION ALL; per SQL, ORDER BY/TOP parsed on the
// final branch apply to the whole union.
type SelectStmt struct {
	Distinct bool
	Top      int64 // 0 means no TOP clause
	Items    []SelectItem
	From     []TableRef // comma-separated factors, each possibly a join tree
	Where    Expr       // nil when absent
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Union    *SelectStmt // next UNION ALL branch, nil at chain end
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection in the select list.
type SelectItem struct {
	Expr  Expr // nil for a bare '*'
	Alias string
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a factor in the FROM clause.
type TableRef interface{ tableRef() }

// TableName references a base table, possibly schema-qualified; only the
// final part is meaningful to the shell database.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableRef() {}

// JoinKind enumerates explicit join syntax.
type JoinKind uint8

// Join kinds for explicit JOIN syntax.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	default:
		return "CROSS JOIN"
	}
}

// JoinRef is an explicit JOIN between two table references.
type JoinRef struct {
	Kind        JoinKind
	Left, Right TableRef
	On          Expr // nil for CROSS JOIN
}

func (*JoinRef) tableRef() {}

// DerivedTable is a parenthesized sub-select in FROM with an alias.
type DerivedTable struct {
	Select *SelectStmt
	Alias  string
}

func (*DerivedTable) tableRef() {}

// Expr is any scalar or boolean expression.
type Expr interface{ expr() }

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table string // alias or table name; empty when unqualified
	Name  string
}

func (*ColRef) expr() {}

// String renders the reference as written.
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Lit is a literal value.
type Lit struct {
	Value types.Value
}

func (*Lit) expr() {}

// ParamExpr is a plan-cache parameter marker (Marker) in a query template
// or generated step SQL. Slot is the 0-based literal-slot index.
type ParamExpr struct {
	Slot int
}

func (*ParamExpr) expr() {}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators in precedence groups (comparison, logic, arithmetic).
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String renders the operator in SQL syntax.
func (o BinOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/"}[o]
}

// IsComparison reports whether the operator is a comparison.
func (o BinOp) IsComparison() bool { return o <= OpGe }

// Negate returns the complementary comparison (e.g. < becomes >=).
func (o BinOp) Negate() BinOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic("sqlparser: Negate on non-comparison")
}

// Flip returns the comparison with swapped operands (< becomes >).
func (o BinOp) Flip() BinOp {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return o
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (*BinExpr) expr() {}

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

func (*NotExpr) expr() {}

// NegExpr is arithmetic negation.
type NegExpr struct{ E Expr }

func (*NegExpr) expr() {}

// FuncExpr is a function call, including aggregates. Star marks COUNT(*).
type FuncExpr struct {
	Name     string // upper-cased
	Distinct bool
	Star     bool
	Args     []Expr
}

func (*FuncExpr) expr() {}

// Aggregates recognized by the binder.
var aggregateNames = map[string]bool{
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether the call is an aggregate function.
func (f *FuncExpr) IsAggregate() bool { return aggregateNames[f.Name] }

// SubqueryExpr is a scalar sub-query used as an expression.
type SubqueryExpr struct{ Select *SelectStmt }

func (*SubqueryExpr) expr() {}

// InExpr is `expr [NOT] IN (list | subquery)`.
type InExpr struct {
	E       Expr
	List    []Expr      // value list form
	Select  *SelectStmt // sub-query form
	Negated bool
}

func (*InExpr) expr() {}

// ExistsExpr is `[NOT] EXISTS (subquery)`.
type ExistsExpr struct {
	Select  *SelectStmt
	Negated bool
}

func (*ExistsExpr) expr() {}

// BetweenExpr is `expr [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Negated   bool
}

func (*BetweenExpr) expr() {}

// LikeExpr is `expr [NOT] LIKE pattern`.
type LikeExpr struct {
	E       Expr
	Pattern Expr
	Negated bool
}

func (*LikeExpr) expr() {}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	E       Expr
	Negated bool
}

func (*IsNullExpr) expr() {}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct{ Cond, Then Expr }

func (*CaseExpr) expr() {}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	E  Expr
	To types.Kind
}

func (*CastExpr) expr() {}

// CreateTableStmt is PDW DDL:
//
//	CREATE TABLE t (col type [PRIMARY KEY], ... [, PRIMARY KEY (cols)])
//	WITH (DISTRIBUTION = HASH(col) | REPLICATE)
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
	Replicated bool
	HashColumn string // distribution column when not replicated
}

func (*CreateTableStmt) stmt() {}

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type types.Kind
}

// FormatExpr renders an expression back to SQL text; used by error messages
// and tests. DSQL generation has its own renderer working on bound trees.
func FormatExpr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ColRef:
		return x.String()
	case *Lit:
		return x.Value.SQLLiteral()
	case *ParamExpr:
		return fmt.Sprintf("@p%d", x.Slot)
	case *BinExpr:
		return fmt.Sprintf("(%s %s %s)", FormatExpr(x.L), x.Op, FormatExpr(x.R))
	case *NotExpr:
		return "NOT " + FormatExpr(x.E)
	case *NegExpr:
		return "-" + FormatExpr(x.E)
	case *FuncExpr:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = FormatExpr(a)
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return x.Name + "(" + d + strings.Join(args, ", ") + ")"
	case *SubqueryExpr:
		return "(<subquery>)"
	case *InExpr:
		n := ""
		if x.Negated {
			n = "NOT "
		}
		if x.Select != nil {
			return FormatExpr(x.E) + " " + n + "IN (<subquery>)"
		}
		args := make([]string, len(x.List))
		for i, a := range x.List {
			args[i] = FormatExpr(a)
		}
		return FormatExpr(x.E) + " " + n + "IN (" + strings.Join(args, ", ") + ")"
	case *ExistsExpr:
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return n + "EXISTS (<subquery>)"
	case *BetweenExpr:
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return fmt.Sprintf("%s %sBETWEEN %s AND %s", FormatExpr(x.E), n, FormatExpr(x.Lo), FormatExpr(x.Hi))
	case *LikeExpr:
		n := ""
		if x.Negated {
			n = "NOT "
		}
		return FormatExpr(x.E) + " " + n + "LIKE " + FormatExpr(x.Pattern)
	case *IsNullExpr:
		if x.Negated {
			return FormatExpr(x.E) + " IS NOT NULL"
		}
		return FormatExpr(x.E) + " IS NULL"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		for _, w := range x.Whens {
			fmt.Fprintf(&b, " WHEN %s THEN %s", FormatExpr(w.Cond), FormatExpr(w.Then))
		}
		if x.Else != nil {
			b.WriteString(" ELSE " + FormatExpr(x.Else))
		}
		b.WriteString(" END")
		return b.String()
	case *CastExpr:
		return fmt.Sprintf("CAST(%s AS %s)", FormatExpr(x.E), x.To)
	default:
		return fmt.Sprintf("<%T>", e)
	}
}
