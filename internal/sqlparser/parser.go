package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"pdwqo/internal/types"
)

// Parse parses a single SQL statement (SELECT or CREATE TABLE). A trailing
// semicolon is allowed.
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	var stmt Statement
	switch {
	case p.peekKeyword("SELECT"):
		stmt, err = p.parseSelectUnion()
	case p.peekKeyword("CREATE"):
		stmt, err = p.parseCreateTable()
	default:
		return nil, p.errHere("expected SELECT or CREATE TABLE")
	}
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if p.cur().Kind != tokEOF {
		return nil, p.errHere("unexpected trailing input %q", p.cur().Text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlparser: statement is not a SELECT")
	}
	return sel, nil
}

type parser struct {
	src  string
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) peek() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errHere(format string, args ...any) error {
	l := newLexer(p.src)
	return l.errf(p.cur().Pos, "%s", fmt.Sprintf(format, args...))
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == tokIdent && t.Upper == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errHere("expected %s, found %q", kw, p.cur().Text)
	}
	return nil
}

func (p *parser) peekPunct(s string) bool {
	t := p.cur()
	return t.Kind == tokPunct && t.Text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.peekPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errHere("expected %q, found %q", s, p.cur().Text)
	}
	return nil
}

// reservedAfterExpr blocks these keywords from being taken as aliases.
var reservedAfterExpr = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"CROSS": true, "ON": true, "AND": true, "OR": true, "NOT": true,
	"UNION": true, "AS": true, "ASC": true, "DESC": true, "SELECT": true,
	"IN": true, "EXISTS": true, "BETWEEN": true, "LIKE": true, "IS": true,
	"TOP": true, "DISTINCT": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "LIMIT": true, "WITH": true,
}

// parseSelectUnion parses a SELECT possibly followed by UNION ALL chains.
func (p *parser) parseSelectUnion() (*SelectStmt, error) {
	first, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	cur := first
	for p.peekKeyword("UNION") {
		p.advance()
		if err := p.expectKeyword("ALL"); err != nil {
			return nil, p.errHere("only UNION ALL is supported")
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		cur.Union = next
		cur = next
	}
	return first, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	if p.acceptKeyword("TOP") {
		t := p.cur()
		if t.Kind != tokNumber {
			return nil, p.errHere("expected number after TOP")
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errHere("invalid TOP count %q", t.Text)
		}
		p.advance()
		sel.Top = n
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	// FROM is optional: a FROM-less SELECT evaluates over a one-row dual
	// relation (used by DSQL text for constant and empty relations).
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.Kind != tokNumber {
			return nil, p.errHere("expected number after LIMIT")
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errHere("invalid LIMIT count %q", t.Text)
		}
		p.advance()
		sel.Top = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// '*' or 't.*'
	if p.peekPunct("*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if p.cur().Kind == tokIdent && p.peek().Kind == tokPunct && p.peek().Text == "." {
		// Look ahead for t.* without consuming on failure.
		save := p.i
		tbl := p.advance().Text
		p.advance() // '.'
		if p.peekPunct("*") {
			p.advance()
			return SelectItem{Star: true, Table: tbl}, nil
		}
		p.i = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.cur()
		if t.Kind != tokIdent {
			return SelectItem{}, p.errHere("expected alias after AS")
		}
		p.advance()
		item.Alias = t.Text
	} else if t := p.cur(); t.Kind == tokIdent && !reservedAfterExpr[t.Upper] {
		p.advance()
		item.Alias = t.Text
	}
	return item, nil
}

// parseTableRef parses one FROM factor: a primary reference followed by any
// number of explicit JOIN clauses (left-associative).
func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryRef()
	if err != nil {
		return nil, err
	}
	for {
		kind, ok := p.peekJoin()
		if !ok {
			return left, nil
		}
		right, err := p.parsePrimaryRef()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Kind: kind, Left: left, Right: right}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

// peekJoin consumes a join introducer if present and returns its kind.
func (p *parser) peekJoin() (JoinKind, bool) {
	switch {
	case p.acceptKeyword("JOIN"):
		return JoinInner, true
	case p.peekKeyword("INNER") && p.peek().Upper == "JOIN":
		p.advance()
		p.advance()
		return JoinInner, true
	case p.peekKeyword("CROSS") && p.peek().Upper == "JOIN":
		p.advance()
		p.advance()
		return JoinCross, true
	case p.peekKeyword("LEFT"), p.peekKeyword("RIGHT"), p.peekKeyword("FULL"):
		kw := p.cur().Upper
		next := p.peek().Upper
		if next != "JOIN" && next != "OUTER" {
			return 0, false
		}
		p.advance()
		p.acceptKeyword("OUTER")
		if !p.acceptKeyword("JOIN") {
			return 0, false
		}
		switch kw {
		case "LEFT":
			return JoinLeft, true
		case "RIGHT":
			return JoinRight, true
		default:
			return JoinFull, true
		}
	}
	return 0, false
}

func (p *parser) parsePrimaryRef() (TableRef, error) {
	if p.acceptPunct("(") {
		if p.peekKeyword("SELECT") {
			sel, err := p.parseSelectUnion()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			alias, err := p.parseAlias(true)
			if err != nil {
				return nil, err
			}
			return &DerivedTable{Select: sel, Alias: alias}, nil
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return ref, nil
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	alias, err := p.parseAlias(false)
	if err != nil {
		return nil, err
	}
	return &TableName{Name: name, Alias: alias}, nil
}

// parseAlias parses an optional (or, when required, mandatory) alias.
func (p *parser) parseAlias(required bool) (string, error) {
	if p.acceptKeyword("AS") {
		t := p.cur()
		if t.Kind != tokIdent {
			return "", p.errHere("expected alias after AS")
		}
		p.advance()
		return t.Text, nil
	}
	if t := p.cur(); t.Kind == tokIdent && !reservedAfterExpr[t.Upper] {
		p.advance()
		return t.Text, nil
	}
	if required {
		return "", p.errHere("derived table requires an alias")
	}
	return "", nil
}

// parseQualifiedName parses a dotted name and returns the final part; the
// shell database is single-schema so qualifiers only matter syntactically.
func (p *parser) parseQualifiedName() (string, error) {
	t := p.cur()
	if t.Kind != tokIdent {
		return "", p.errHere("expected table name, found %q", t.Text)
	}
	p.advance()
	name := t.Text
	for p.peekPunct(".") {
		p.advance()
		t = p.cur()
		if t.Kind != tokIdent {
			return "", p.errHere("expected identifier after '.'")
		}
		p.advance()
		name = t.Text
	}
	return name, nil
}

// --- Expressions ---

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("AND") {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

var comparisonOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	if p.peekKeyword("EXISTS") {
		p.advance()
		sel, err := p.parseParenSelect()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Select: sel}, nil
	}
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Comparison.
	if t := p.cur(); t.Kind == tokPunct {
		if op, ok := comparisonOps[t.Text]; ok {
			p.advance()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	negated := false
	if p.peekKeyword("NOT") {
		next := p.peek().Upper
		if next == "IN" || next == "BETWEEN" || next == "LIKE" {
			p.advance()
			negated = true
		}
	}
	switch {
	case p.acceptKeyword("IN"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		in := &InExpr{E: l, Negated: negated}
		if p.peekKeyword("SELECT") {
			sel, err := p.parseSelectUnion()
			if err != nil {
				return nil, err
			}
			in.Select = sel
		} else {
			for {
				e, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.acceptPunct(",") {
					break
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return in, nil

	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Negated: negated}, nil

	case p.acceptKeyword("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: pat, Negated: negated}, nil

	case p.peekKeyword("IS"):
		p.advance()
		neg := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return nil, p.errHere("expected NULL after IS")
		}
		return &IsNullExpr{E: l, Negated: neg}, nil
	}
	if negated {
		return nil, p.errHere("dangling NOT")
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: OpAdd, L: l, R: r}
		case p.acceptPunct("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: OpMul, L: l, R: r}
		case p.acceptPunct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptPunct("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Lit); ok && lit.Value.Kind().Numeric() {
			if lit.Value.Kind() == types.KindInt {
				return &Lit{Value: types.NewInt(-lit.Value.Int())}, nil
			}
			return &Lit{Value: types.NewFloat(-lit.Value.Float())}, nil
		}
		return &NegExpr{E: e}, nil
	}
	p.acceptPunct("+")
	return p.parsePrimary()
}

func (p *parser) parseParenSelect() (*SelectStmt, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	sel, err := p.parseSelectUnion()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case tokNumber, tokString:
		p.advance()
		v, err := literalValue(t.Kind, t.Text)
		if err != nil {
			return nil, p.errHere("%v", err)
		}
		return &Lit{Value: v}, nil

	case tokParam:
		p.advance()
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, p.errHere("invalid parameter marker %q", t.Text)
		}
		return &ParamExpr{Slot: n}, nil

	case tokPunct:
		if t.Text == "(" {
			p.advance()
			if p.peekKeyword("SELECT") {
				sel, err := p.parseSelectUnion()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}

	case tokIdent:
		switch t.Upper {
		case "NULL":
			p.advance()
			return &Lit{Value: types.Null}, nil
		case "TRUE":
			p.advance()
			return &Lit{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Lit{Value: types.NewBool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "DATE":
			// DATE 'YYYY-MM-DD' literal syntax.
			if p.peek().Kind == tokString {
				p.advance()
				lit := p.advance()
				v, err := types.ParseDate(lit.Text)
				if err != nil {
					return nil, p.errHere("%v", err)
				}
				return &Lit{Value: v}, nil
			}
		}
		// Function call?
		if p.peek().Kind == tokPunct && p.peek().Text == "(" {
			return p.parseFuncCall()
		}
		// Column reference, possibly qualified.
		p.advance()
		if p.peekPunct(".") {
			p.advance()
			c := p.cur()
			if c.Kind != tokIdent {
				return nil, p.errHere("expected column name after '.'")
			}
			p.advance()
			// Collapse deeper qualification (db.schema.table.col).
			tbl, col := t.Text, c.Text
			for p.peekPunct(".") {
				p.advance()
				c = p.cur()
				if c.Kind != tokIdent {
					return nil, p.errHere("expected identifier after '.'")
				}
				p.advance()
				tbl, col = col, c.Text
			}
			return &ColRef{Table: tbl, Name: col}, nil
		}
		return &ColRef{Name: t.Text}, nil
	}
	return nil, p.errHere("unexpected token %q in expression", t.Text)
}

func (p *parser) parseCase() (Expr, error) {
	p.advance() // CASE
	if !p.peekKeyword("WHEN") {
		return nil, p.errHere("only searched CASE (CASE WHEN ...) is supported")
	}
	out := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out.Whens = append(out.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseCast() (Expr, error) {
	p.advance() // CAST
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	kind, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CastExpr{E: e, To: kind}, nil
}

// parseTypeName parses a SQL type name with optional (p[,s]) arguments and
// maps it onto the engine's kind lattice.
func (p *parser) parseTypeName() (types.Kind, error) {
	t := p.cur()
	if t.Kind != tokIdent {
		return 0, p.errHere("expected type name")
	}
	p.advance()
	var kind types.Kind
	switch t.Upper {
	case "BIGINT", "INT", "INTEGER", "SMALLINT", "TINYINT":
		kind = types.KindInt
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC", "MONEY":
		kind = types.KindFloat
	case "VARCHAR", "CHAR", "NVARCHAR", "NCHAR", "TEXT":
		kind = types.KindString
	case "DATE", "DATETIME", "DATETIME2":
		kind = types.KindDate
	case "BIT", "BOOLEAN":
		kind = types.KindBool
	default:
		return 0, p.errHere("unsupported type %q", t.Text)
	}
	if p.acceptPunct("(") {
		for !p.peekPunct(")") {
			if p.cur().Kind == tokEOF {
				return 0, p.errHere("unterminated type arguments")
			}
			p.advance()
		}
		p.advance()
	}
	return kind, nil
}

// dateParts are valid first arguments to DATEADD, parsed as bare keywords.
var dateParts = map[string]bool{
	"YEAR": true, "YY": true, "YYYY": true,
	"MONTH": true, "MM": true, "M": true,
	"DAY": true, "DD": true, "D": true,
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := p.advance()
	p.advance() // '('
	fn := &FuncExpr{Name: name.Upper}
	if p.acceptPunct(")") {
		return fn, nil
	}
	if p.peekPunct("*") {
		p.advance()
		fn.Star = true
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return fn, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fn.Distinct = true
	}
	// DATEADD's first argument is a bare date-part keyword.
	if fn.Name == "DATEADD" {
		t := p.cur()
		if t.Kind == tokIdent && dateParts[t.Upper] {
			p.advance()
			fn.Args = append(fn.Args, &Lit{Value: types.NewString(strings.ToLower(t.Text))})
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fn.Args = append(fn.Args, e)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return fn, nil
}

// parseCreateTable parses PDW DDL with the WITH (DISTRIBUTION = ...) clause.
func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.peekKeyword("PRIMARY") {
			p.advance()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for {
				t := p.cur()
				if t.Kind != tokIdent {
					return nil, p.errHere("expected column name in PRIMARY KEY")
				}
				p.advance()
				stmt.PrimaryKey = append(stmt.PrimaryKey, t.Text)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		} else {
			t := p.cur()
			if t.Kind != tokIdent {
				return nil, p.errHere("expected column definition")
			}
			p.advance()
			kind, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, ColumnDef{Name: t.Text, Type: kind})
			// Optional constraints on the column.
			for {
				switch {
				case p.acceptKeyword("PRIMARY"):
					if err := p.expectKeyword("KEY"); err != nil {
						return nil, err
					}
					stmt.PrimaryKey = append(stmt.PrimaryKey, t.Text)
				case p.acceptKeyword("NOT"):
					if err := p.expectKeyword("NULL"); err != nil {
						return nil, err
					}
				case p.acceptKeyword("NULL"):
				default:
					goto colDone
				}
			}
		colDone:
		}
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	stmt.Replicated = true // default when no WITH clause: replicate
	if p.acceptKeyword("WITH") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("DISTRIBUTION"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKeyword("REPLICATE"):
			stmt.Replicated = true
		case p.acceptKeyword("HASH"):
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			t := p.cur()
			if t.Kind != tokIdent {
				return nil, p.errHere("expected distribution column")
			}
			p.advance()
			stmt.Replicated = false
			stmt.HashColumn = t.Text
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errHere("expected HASH or REPLICATE")
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}
