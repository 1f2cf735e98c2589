// Package memoxml implements the interface boundary between the SQL Server
// compilation stack and the PDW engine (paper Figure 2, components 3–4):
// the XML Generator that encodes the optimizer MEMO, and the memo parser
// that reconstructs it on the PDW side. The PDW optimizer consumes only
// this representation — never in-process memo pointers — mirroring the
// "showplan-XML-like" compilation entry point described in §3.1.
//
// Column metadata is hoisted into a single document-level dictionary
// (<Cols>), and every other site — group output lists, scan column lists,
// scalar column references — names columns by id alone. On a 100-relation
// join memo the join conditions repeat the same few hundred columns tens
// of thousands of times; the dictionary keeps the document linear in memo
// size rather than quadratic in join width.
package memoxml

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// --- XML schema ---

type xMemo struct {
	XMLName   xml.Name `xml:"Memo"`
	Root      int      `xml:"root,attr"`
	MaxCol    int      `xml:"maxCol,attr"`
	Exhausted bool     `xml:"exhausted,attr,omitempty"`
	Cols      []xCol   `xml:"Cols>Col,omitempty"`
	Groups    []xGroup `xml:"Group"`
}

type xGroup struct {
	ID    int        `xml:"id,attr"`
	Rows  float64    `xml:"rows,attr"`
	Width float64    `xml:"width,attr"`
	Out   string     `xml:"out,attr,omitempty"`
	Stats []xColStat `xml:"Stats>Col,omitempty"`
	Keys  []string   `xml:"Keys>Key,omitempty"`
	Exprs []xExpr    `xml:"Expr"`
}

type xCol struct {
	ID   int    `xml:"id,attr"`
	Name string `xml:"name,attr"`
	Qual string `xml:"qual,attr,omitempty"`
	Type uint8  `xml:"type,attr"`
}

type xColStat struct {
	ID       int     `xml:"id,attr"`
	NDV      float64 `xml:"ndv,attr"`
	NullFrac float64 `xml:"nullFrac,attr"`
	Width    float64 `xml:"width,attr"`
}

type xExpr struct {
	Op       string  `xml:"op,attr"`
	Children string  `xml:"children,attr,omitempty"`
	Physical bool    `xml:"physical,attr,omitempty"`
	Algo     string  `xml:"algo,attr,omitempty"`
	Cost     float64 `xml:"cost,attr,omitempty"`
	Winner   bool    `xml:"winner,attr,omitempty"`

	// Payload variants (exactly one populated, matching Op).
	Table    string       `xml:"table,attr,omitempty"`
	Alias    string       `xml:"alias,attr,omitempty"`
	Cols     string       `xml:"cols,attr,omitempty"`
	Filter   *xScalar     `xml:"Filter>S"`
	Defs     []xProjDef   `xml:"Defs>Def,omitempty"`
	JoinKind uint8        `xml:"joinKind,attr,omitempty"`
	On       *xScalar     `xml:"On>S"`
	Keys     string       `xml:"keys,attr,omitempty"`
	Aggs     []xAgg       `xml:"Aggs>Agg,omitempty"`
	Phase    uint8        `xml:"phase,attr,omitempty"`
	SortKeys []xSortKey   `xml:"SortKeys>Key,omitempty"`
	Top      int64        `xml:"top,attr,omitempty"`
	Rows     []xValuesRow `xml:"Rows>Row,omitempty"`
}

type xValuesRow struct {
	Vals []xScalar `xml:"V"`
}

type xProjDef struct {
	ID   int     `xml:"id,attr"`
	Name string  `xml:"name,attr"`
	Expr xScalar `xml:"S"`
}

type xAgg struct {
	Func     uint8    `xml:"func,attr"`
	Distinct bool     `xml:"distinct,attr,omitempty"`
	ID       int      `xml:"id,attr"`
	Name     string   `xml:"name,attr"`
	Arg      *xScalar `xml:"S"`
}

type xSortKey struct {
	ID   int  `xml:"id,attr"`
	Desc bool `xml:"desc,attr,omitempty"`
}

// xScalar is the recursive scalar-expression encoding. Column references
// name dictionary ids: a bare reference is kind="col" col="N", and a
// binary operator over two bare references collapses to l="N" r="M" with
// no child elements — the dominant shape in large join conditions.
type xScalar struct {
	Kind string `xml:"kind,attr"`

	ColID   int       `xml:"col,attr,omitempty"`
	L       int       `xml:"l,attr,omitempty"`
	R       int       `xml:"r,attr,omitempty"`
	Val     string    `xml:"val,attr,omitempty"`
	ValKind uint8     `xml:"valKind,attr,omitempty"`
	Param   int       `xml:"param,attr,omitempty"`
	Op      uint8     `xml:"binop,attr,omitempty"`
	Negated bool      `xml:"negated,attr,omitempty"`
	Pattern string    `xml:"pattern,attr,omitempty"`
	Name    string    `xml:"name,attr,omitempty"`
	OutKind uint8     `xml:"outKind,attr,omitempty"`
	Args    []xScalar `xml:"S"`
}

// --- Encoding ---

// encoder accumulates the column dictionary while serializing: the first
// sighting of a column id registers its metadata, every later sighting
// emits the id alone.
type encoder struct {
	dict  map[algebra.ColumnID]xCol
	order []algebra.ColumnID
}

// ref registers a column in the dictionary (first sighting wins) and
// returns its id for attribute encoding.
func (enc *encoder) ref(id algebra.ColumnID, m algebra.ColumnMeta) int {
	if _, ok := enc.dict[id]; !ok {
		enc.dict[id] = xCol{ID: int(id), Name: m.Name, Qual: m.Qual, Type: uint8(m.Type)}
		enc.order = append(enc.order, id)
	}
	return int(id)
}

// colList encodes an ordered column-meta list as a comma-joined id string.
func (enc *encoder) colList(cols []algebra.ColumnMeta) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = strconv.Itoa(enc.ref(c.ID, c))
	}
	return strings.Join(parts, ",")
}

// Encode serializes a memo as XML: every group with its statistics, its
// logical expressions and its one winner. The other physical expressions
// stay behind — the PDW side plans over logical expressions and reads a
// physical one only as the serial baseline's per-group winner.
func Encode(m *memo.Memo) ([]byte, error) {
	maxCol := 0
	enc := &encoder{dict: map[algebra.ColumnID]xCol{}}
	x := xMemo{Root: int(m.Root)}
	x.Exhausted = m.Exhausted()
	for _, g := range m.Groups[1:] {
		xg := xGroup{ID: int(g.ID)}
		if g.Props != nil {
			xg.Rows = g.Props.Rows
			xg.Width = g.Props.Width
			xg.Out = enc.colList(g.Props.OutCols)
			for _, c := range g.Props.OutCols {
				if int(c.ID) > maxCol {
					maxCol = int(c.ID)
				}
			}
			for _, id := range sortedStatIDs(g.Props) {
				cs := g.Props.Cols[id]
				xg.Stats = append(xg.Stats, xColStat{ID: int(id), NDV: cs.NDV, NullFrac: cs.NullFrac, Width: cs.Width})
			}
			for _, k := range g.Props.Keys {
				xg.Keys = append(xg.Keys, colSetString(k))
			}
		}
		winner := g.Winner()
		for _, e := range g.Exprs {
			if e.Physical && e != winner {
				continue
			}
			xe, err := enc.encodeExpr(e)
			if err != nil {
				return nil, err
			}
			if e == winner {
				xe.Winner = true
			}
			xg.Exprs = append(xg.Exprs, xe)
		}
		x.Groups = append(x.Groups, xg)
	}
	x.MaxCol = maxCol + 1
	for _, id := range enc.order {
		x.Cols = append(x.Cols, enc.dict[id])
	}
	out, err := xml.MarshalIndent(x, "", " ")
	if err != nil {
		return nil, fmt.Errorf("memoxml: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

func sortedStatIDs(p *memo.LogicalProps) []algebra.ColumnID {
	s := algebra.NewColSet()
	for id := range p.Cols {
		s.Add(id)
	}
	return s.Sorted()
}

func colSetString(s algebra.ColSet) string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}

func (enc *encoder) encodeExpr(e *memo.GroupExpr) (xExpr, error) {
	children := make([]string, len(e.Children))
	for i, c := range e.Children {
		children[i] = strconv.Itoa(int(c))
	}
	xe := xExpr{Children: strings.Join(children, ","), Physical: e.Physical, Cost: e.Cost}
	op := e.Op
	if p, ok := op.(*algebra.Phys); ok {
		xe.Algo = p.Algo
		op = p.Of
	}
	if err := enc.encodeOp(&xe, op); err != nil {
		return xe, err
	}
	return xe, nil
}

func (enc *encoder) encodeOp(xe *xExpr, op algebra.Operator) error {
	switch o := op.(type) {
	case *algebra.Get:
		xe.Op = "Get"
		xe.Table = o.Table.Name
		xe.Alias = o.Alias
		xe.Cols = enc.colList(o.Cols)
	case *algebra.Values:
		xe.Op = "Values"
		xe.Cols = enc.colList(o.Cols)
		for _, row := range o.Rows {
			xr := xValuesRow{}
			for _, v := range row {
				xr.Vals = append(xr.Vals, *encodeConst(v))
			}
			xe.Rows = append(xe.Rows, xr)
		}
	case *algebra.Select:
		xe.Op = "Select"
		s, err := enc.encodeScalar(o.Filter)
		if err != nil {
			return err
		}
		xe.Filter = s
	case *algebra.Project:
		xe.Op = "Project"
		for _, d := range o.Defs {
			s, err := enc.encodeScalar(d.Expr)
			if err != nil {
				return err
			}
			xe.Defs = append(xe.Defs, xProjDef{ID: int(d.ID), Name: d.Name, Expr: *s})
		}
	case *algebra.Join:
		xe.Op = "Join"
		xe.JoinKind = uint8(o.Kind)
		if o.On != nil {
			s, err := enc.encodeScalar(o.On)
			if err != nil {
				return err
			}
			xe.On = s
		}
	case *algebra.GroupBy:
		xe.Op = "GroupBy"
		xe.Phase = uint8(o.Phase)
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = strconv.Itoa(int(k))
		}
		xe.Keys = strings.Join(keys, ",")
		for _, a := range o.Aggs {
			xa := xAgg{Func: uint8(a.Func), Distinct: a.Distinct, ID: int(a.ID), Name: a.Name}
			if a.Arg != nil {
				s, err := enc.encodeScalar(a.Arg)
				if err != nil {
					return err
				}
				xa.Arg = s
			}
			xe.Aggs = append(xe.Aggs, xa)
		}
	case *algebra.Sort:
		xe.Op = "Sort"
		xe.Top = o.Top
		for _, k := range o.Keys {
			xe.SortKeys = append(xe.SortKeys, xSortKey{ID: int(k.ID), Desc: k.Desc})
		}
	case *algebra.UnionAll:
		xe.Op = "UnionAll"
	default:
		return fmt.Errorf("memoxml: cannot encode operator %T", op)
	}
	return nil
}

func (enc *encoder) encodeScalar(e algebra.Scalar) (*xScalar, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		return &xScalar{Kind: "col", ColID: enc.ref(x.ID, x.Meta)}, nil
	case *algebra.Const:
		s := encodeConst(x.Val)
		s.Param = x.Param
		return s, nil
	case *algebra.Binary:
		// Two bare column references — the dominant shape in join
		// conditions — collapse to a single element with l/r attributes.
		if lc, lok := x.L.(*algebra.ColRef); lok {
			if rc, rok := x.R.(*algebra.ColRef); rok {
				return &xScalar{
					Kind: "bin", Op: uint8(x.Op),
					L: enc.ref(lc.ID, lc.Meta), R: enc.ref(rc.ID, rc.Meta),
				}, nil
			}
		}
		l, err := enc.encodeScalar(x.L)
		if err != nil {
			return nil, err
		}
		r, err := enc.encodeScalar(x.R)
		if err != nil {
			return nil, err
		}
		return &xScalar{Kind: "bin", Op: uint8(x.Op), Args: []xScalar{*l, *r}}, nil
	case *algebra.Not:
		a, err := enc.encodeScalar(x.E)
		if err != nil {
			return nil, err
		}
		return &xScalar{Kind: "not", Args: []xScalar{*a}}, nil
	case *algebra.Neg:
		a, err := enc.encodeScalar(x.E)
		if err != nil {
			return nil, err
		}
		return &xScalar{Kind: "neg", Args: []xScalar{*a}}, nil
	case *algebra.IsNull:
		a, err := enc.encodeScalar(x.E)
		if err != nil {
			return nil, err
		}
		return &xScalar{Kind: "isnull", Negated: x.Negated, Args: []xScalar{*a}}, nil
	case *algebra.Like:
		a, err := enc.encodeScalar(x.E)
		if err != nil {
			return nil, err
		}
		return &xScalar{Kind: "like", Negated: x.Negated, Pattern: x.Pattern, Args: []xScalar{*a}}, nil
	case *algebra.InList:
		out := &xScalar{Kind: "inlist", Negated: x.Negated}
		a, err := enc.encodeScalar(x.E)
		if err != nil {
			return nil, err
		}
		out.Args = append(out.Args, *a)
		for _, el := range x.List {
			s, err := enc.encodeScalar(el)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, *s)
		}
		return out, nil
	case *algebra.Func:
		out := &xScalar{Kind: "func", Name: x.Name, OutKind: uint8(x.Out)}
		for _, a := range x.Args {
			s, err := enc.encodeScalar(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, *s)
		}
		return out, nil
	case *algebra.Case:
		out := &xScalar{Kind: "case"}
		for _, w := range x.Whens {
			c, err := enc.encodeScalar(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := enc.encodeScalar(w.Then)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, *c, *t)
		}
		if x.Else != nil {
			e2, err := enc.encodeScalar(x.Else)
			if err != nil {
				return nil, err
			}
			out.Negated = true // marks presence of ELSE
			out.Args = append(out.Args, *e2)
		}
		return out, nil
	case *algebra.Cast:
		a, err := enc.encodeScalar(x.E)
		if err != nil {
			return nil, err
		}
		return &xScalar{Kind: "cast", OutKind: uint8(x.To), Args: []xScalar{*a}}, nil
	case *algebra.Subquery:
		return nil, fmt.Errorf("memoxml: subquery survived normalization")
	default:
		return nil, fmt.Errorf("memoxml: cannot encode scalar %T", e)
	}
}

func encodeConst(v types.Value) *xScalar {
	out := &xScalar{Kind: "const", ValKind: uint8(v.Kind())}
	switch v.Kind() {
	case types.KindNull:
	case types.KindBool:
		out.Val = strconv.FormatBool(v.Bool())
	case types.KindInt:
		out.Val = strconv.FormatInt(v.Int(), 10)
	case types.KindFloat:
		out.Val = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case types.KindString:
		out.Val = v.Str()
	case types.KindDate:
		out.Val = strconv.FormatInt(v.DateDays(), 10)
	}
	return out
}

// --- Decoding ---

// DecodedExpr is one parsed group expression.
type DecodedExpr struct {
	Op       algebra.Operator
	Children []int
	Physical bool
	Cost     float64
	Winner   bool
}

// DecodedGroup is one parsed group with its logical properties.
type DecodedGroup struct {
	ID       int
	Rows     float64
	Width    float64
	OutCols  []algebra.ColumnMeta
	ColStats map[algebra.ColumnID]DecodedColStat
	Keys     []algebra.ColSet
	Exprs    []DecodedExpr
}

// DecodedColStat mirrors the exported per-column statistics.
type DecodedColStat struct {
	NDV      float64
	NullFrac float64
	Width    float64
}

// Decoded is the parsed memo, the input to the PDW optimizer.
type Decoded struct {
	Root      int
	MaxCol    int
	Exhausted bool
	Groups    map[int]*DecodedGroup
}

// colDict resolves dictionary ids back to column metadata during decode.
type colDict map[int]algebra.ColumnMeta

func (d colDict) meta(id int) (algebra.ColumnMeta, error) {
	m, ok := d[id]
	if !ok {
		return algebra.ColumnMeta{}, fmt.Errorf("memoxml: column %d missing from dictionary", id)
	}
	return m, nil
}

// metaList resolves a comma-joined id list to ordered column metadata.
func (d colDict) metaList(s string) ([]algebra.ColumnMeta, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]algebra.ColumnMeta, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("memoxml: bad column id %q", part)
		}
		m, err := d.meta(n)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Decode parses memo XML, resolving table references against the shell
// database.
func Decode(data []byte, shell *catalog.Shell) (*Decoded, error) {
	var x xMemo
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("memoxml: %w", err)
	}
	dict := colDict{}
	for _, c := range x.Cols {
		dict[c.ID] = decodeColMeta(c)
	}
	out := &Decoded{Root: x.Root, MaxCol: x.MaxCol, Exhausted: x.Exhausted, Groups: map[int]*DecodedGroup{}}
	for _, xg := range x.Groups {
		g := &DecodedGroup{
			ID:       xg.ID,
			Rows:     xg.Rows,
			Width:    xg.Width,
			ColStats: map[algebra.ColumnID]DecodedColStat{},
		}
		var err error
		if g.OutCols, err = dict.metaList(xg.Out); err != nil {
			return nil, err
		}
		for _, s := range xg.Stats {
			g.ColStats[algebra.ColumnID(s.ID)] = DecodedColStat{NDV: s.NDV, NullFrac: s.NullFrac, Width: s.Width}
		}
		for _, k := range xg.Keys {
			set, err := parseColSet(k)
			if err != nil {
				return nil, err
			}
			g.Keys = append(g.Keys, set)
		}
		for _, xe := range xg.Exprs {
			e, err := decodeExpr(xe, shell, dict)
			if err != nil {
				return nil, err
			}
			g.Exprs = append(g.Exprs, e)
		}
		if _, dup := out.Groups[g.ID]; dup {
			return nil, fmt.Errorf("memoxml: duplicate group id %d", g.ID)
		}
		out.Groups[g.ID] = g
	}
	if _, ok := out.Groups[out.Root]; !ok {
		return nil, fmt.Errorf("memoxml: root group %d missing", out.Root)
	}
	// Every expression's child references must resolve: a dangling group
	// id would surface much later as a nil dereference inside the PDW
	// enumerator, far from the XML that caused it.
	for _, g := range out.Groups {
		for _, e := range g.Exprs {
			for _, c := range e.Children {
				if _, ok := out.Groups[c]; !ok {
					return nil, fmt.Errorf("memoxml: group %d references unknown child group %d", g.ID, c)
				}
			}
		}
	}
	// The group graph must be acyclic: the bottom-up enumerator's
	// topological order does not exist for a cyclic memo, and the cycle
	// would otherwise surface as non-termination deep inside planning.
	if cyc := findCycle(out); cyc >= 0 {
		return nil, fmt.Errorf("memoxml: group %d participates in a reference cycle", cyc)
	}
	return out, nil
}

// findCycle returns a group id on a reference cycle, or -1 when the
// group graph is acyclic. All groups are roots of the search, not just
// the memo root, so cycles in detached subgraphs are rejected too.
func findCycle(dec *Decoded) int {
	const (
		visiting = 1
		done     = 2
	)
	state := map[int]uint8{}
	var dfs func(id int) int
	dfs = func(id int) int {
		switch state[id] {
		case visiting:
			return id
		case done:
			return -1
		}
		state[id] = visiting
		for _, e := range dec.Groups[id].Exprs {
			for _, c := range e.Children {
				if cyc := dfs(c); cyc >= 0 {
					return cyc
				}
			}
		}
		state[id] = done
		return -1
	}
	for id := range dec.Groups {
		if cyc := dfs(id); cyc >= 0 {
			return cyc
		}
	}
	return -1
}

func decodeColMeta(c xCol) algebra.ColumnMeta {
	return algebra.ColumnMeta{ID: algebra.ColumnID(c.ID), Name: c.Name, Qual: c.Qual, Type: types.Kind(c.Type)}
}

func parseColSet(s string) (algebra.ColSet, error) {
	set := algebra.NewColSet()
	if s == "" {
		return set, nil
	}
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("memoxml: bad column id %q", part)
		}
		set.Add(algebra.ColumnID(n))
	}
	return set, nil
}

func decodeExpr(xe xExpr, shell *catalog.Shell, dict colDict) (DecodedExpr, error) {
	e := DecodedExpr{Physical: xe.Physical, Cost: xe.Cost, Winner: xe.Winner}
	if xe.Children != "" {
		for _, part := range strings.Split(xe.Children, ",") {
			n, err := strconv.Atoi(part)
			if err != nil {
				return e, fmt.Errorf("memoxml: bad child group %q", part)
			}
			e.Children = append(e.Children, n)
		}
	}
	op, err := decodeOp(xe, shell, dict)
	if err != nil {
		return e, err
	}
	if xe.Algo != "" {
		op = algebra.NewPhys(xe.Algo, op)
	}
	e.Op = op
	return e, nil
}

func decodeOp(xe xExpr, shell *catalog.Shell, dict colDict) (algebra.Operator, error) {
	switch xe.Op {
	case "Get":
		tbl := shell.Table(xe.Table)
		if tbl == nil {
			return nil, fmt.Errorf("memoxml: unknown table %q", xe.Table)
		}
		cols, err := dict.metaList(xe.Cols)
		if err != nil {
			return nil, err
		}
		return &algebra.Get{Table: tbl, Alias: xe.Alias, Cols: cols}, nil
	case "Values":
		cols, err := dict.metaList(xe.Cols)
		if err != nil {
			return nil, err
		}
		v := &algebra.Values{Cols: cols}
		for _, xr := range xe.Rows {
			row := make([]types.Value, len(xr.Vals))
			for i, xv := range xr.Vals {
				val, err := decodeConst(xv)
				if err != nil {
					return nil, err
				}
				row[i] = val
			}
			v.Rows = append(v.Rows, row)
		}
		return v, nil
	case "Select":
		if xe.Filter == nil {
			return &algebra.Select{}, nil
		}
		f, err := decodeScalar(*xe.Filter, dict)
		if err != nil {
			return nil, err
		}
		return &algebra.Select{Filter: f}, nil
	case "Project":
		defs := make([]algebra.ProjDef, len(xe.Defs))
		for i, d := range xe.Defs {
			expr, err := decodeScalar(d.Expr, dict)
			if err != nil {
				return nil, err
			}
			defs[i] = algebra.ProjDef{Expr: expr, ID: algebra.ColumnID(d.ID), Name: d.Name}
		}
		return &algebra.Project{Defs: defs}, nil
	case "Join":
		j := &algebra.Join{Kind: algebra.JoinKind(xe.JoinKind)}
		if xe.On != nil {
			on, err := decodeScalar(*xe.On, dict)
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		return j, nil
	case "GroupBy":
		gb := &algebra.GroupBy{Phase: algebra.AggPhase(xe.Phase)}
		if xe.Keys != "" {
			for _, part := range strings.Split(xe.Keys, ",") {
				n, err := strconv.Atoi(part)
				if err != nil {
					return nil, fmt.Errorf("memoxml: bad group key %q", part)
				}
				gb.Keys = append(gb.Keys, algebra.ColumnID(n))
			}
		}
		for _, a := range xe.Aggs {
			def := algebra.AggDef{
				Func:     algebra.AggFunc(a.Func),
				Distinct: a.Distinct,
				ID:       algebra.ColumnID(a.ID),
				Name:     a.Name,
			}
			if a.Arg != nil {
				arg, err := decodeScalar(*a.Arg, dict)
				if err != nil {
					return nil, err
				}
				def.Arg = arg
			}
			gb.Aggs = append(gb.Aggs, def)
		}
		return gb, nil
	case "Sort":
		s := &algebra.Sort{Top: xe.Top}
		for _, k := range xe.SortKeys {
			s.Keys = append(s.Keys, algebra.SortKey{ID: algebra.ColumnID(k.ID), Desc: k.Desc})
		}
		return s, nil
	case "UnionAll":
		return &algebra.UnionAll{}, nil
	}
	return nil, fmt.Errorf("memoxml: unknown operator %q", xe.Op)
}

func decodeScalar(x xScalar, dict colDict) (algebra.Scalar, error) {
	switch x.Kind {
	case "col":
		m, err := dict.meta(x.ColID)
		if err != nil {
			return nil, err
		}
		return &algebra.ColRef{ID: m.ID, Meta: m}, nil
	case "const":
		v, err := decodeConst(x)
		if err != nil {
			return nil, err
		}
		return &algebra.Const{Val: v, Param: x.Param}, nil
	case "bin":
		if x.L > 0 || x.R > 0 {
			lm, err := dict.meta(x.L)
			if err != nil {
				return nil, err
			}
			rm, err := dict.meta(x.R)
			if err != nil {
				return nil, err
			}
			return &algebra.Binary{
				Op: sqlparser.BinOp(x.Op),
				L:  &algebra.ColRef{ID: lm.ID, Meta: lm},
				R:  &algebra.ColRef{ID: rm.ID, Meta: rm},
			}, nil
		}
		if len(x.Args) != 2 {
			return nil, fmt.Errorf("memoxml: binary scalar with %d operands", len(x.Args))
		}
		l, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		r, err := decodeScalar(x.Args[1], dict)
		if err != nil {
			return nil, err
		}
		return &algebra.Binary{Op: sqlparser.BinOp(x.Op), L: l, R: r}, nil
	case "not":
		a, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		return &algebra.Not{E: a}, nil
	case "neg":
		a, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		return &algebra.Neg{E: a}, nil
	case "isnull":
		a, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		return &algebra.IsNull{E: a, Negated: x.Negated}, nil
	case "like":
		a, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		return &algebra.Like{E: a, Pattern: x.Pattern, Negated: x.Negated}, nil
	case "inlist":
		a, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		out := &algebra.InList{E: a, Negated: x.Negated}
		for _, el := range x.Args[1:] {
			s, err := decodeScalar(el, dict)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, s)
		}
		return out, nil
	case "func":
		out := &algebra.Func{Name: x.Name, Out: types.Kind(x.OutKind)}
		for _, a := range x.Args {
			s, err := decodeScalar(a, dict)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, s)
		}
		return out, nil
	case "case":
		out := &algebra.Case{}
		args := x.Args
		if x.Negated { // ELSE present
			e, err := decodeScalar(args[len(args)-1], dict)
			if err != nil {
				return nil, err
			}
			out.Else = e
			args = args[:len(args)-1]
		}
		if len(args)%2 != 0 {
			return nil, fmt.Errorf("memoxml: malformed CASE")
		}
		for i := 0; i < len(args); i += 2 {
			c, err := decodeScalar(args[i], dict)
			if err != nil {
				return nil, err
			}
			t, err := decodeScalar(args[i+1], dict)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, algebra.CaseWhen{Cond: c, Then: t})
		}
		return out, nil
	case "cast":
		a, err := decodeScalar(x.Args[0], dict)
		if err != nil {
			return nil, err
		}
		return &algebra.Cast{E: a, To: types.Kind(x.OutKind)}, nil
	}
	return nil, fmt.Errorf("memoxml: unknown scalar kind %q", x.Kind)
}

func decodeConst(x xScalar) (types.Value, error) {
	switch types.Kind(x.ValKind) {
	case types.KindNull:
		return types.Null, nil
	case types.KindBool:
		b, err := strconv.ParseBool(x.Val)
		if err != nil {
			return types.Null, fmt.Errorf("memoxml: bad bool %q", x.Val)
		}
		return types.NewBool(b), nil
	case types.KindInt:
		n, err := strconv.ParseInt(x.Val, 10, 64)
		if err != nil {
			return types.Null, fmt.Errorf("memoxml: bad int %q", x.Val)
		}
		return types.NewInt(n), nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(x.Val, 64)
		if err != nil {
			return types.Null, fmt.Errorf("memoxml: bad float %q", x.Val)
		}
		return types.NewFloat(f), nil
	case types.KindString:
		return types.NewString(x.Val), nil
	case types.KindDate:
		n, err := strconv.ParseInt(x.Val, 10, 64)
		if err != nil {
			return types.Null, fmt.Errorf("memoxml: bad date %q", x.Val)
		}
		return types.NewDate(n), nil
	}
	return types.Null, fmt.Errorf("memoxml: unknown value kind %d", x.ValKind)
}
