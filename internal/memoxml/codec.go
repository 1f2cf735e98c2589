package memoxml

import (
	"bytes"
	"encoding/hex"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/types"
)

// codec moves a memo across the boundary in either direction. Every
// element below <Group> is described once, by a function that names its
// attributes and then its children in document order through the
// primitives of this file; a primitive writes the value it is pointed at
// when encoding and reads into it when decoding, so the two directions
// cannot disagree about the schema. An absent attribute is the zero value,
// both ways.
//
// Decoding, a description runs with its element's start tag just read,
// may use one child primitive (wrap, scalar, args, list, items) — which
// reads to the element's end — and is followed by leave.
type codec struct {
	dec bool
	scanner
	shell *catalog.Shell

	buf, colBuf []byte // encoding: the groups, and the <Cols> dictionary
	inTag       bool   // encoding: a start tag is open for attributes
	dict        colDict
}

// --- elements ---

func (c *codec) raw(s string) { c.buf = append(c.buf, s...) }

// begin opens an element for writing; end closes it, in place if nothing
// but attributes followed.
func (c *codec) begin(tag string) {
	c.closeTag()
	c.buf = append(append(c.buf, '<'), tag...)
	c.inTag = true
}

func (c *codec) closeTag() {
	if c.inTag {
		c.raw(">\n")
		c.inTag = false
	}
}

func (c *codec) end(tag string) {
	if c.inTag {
		c.raw("/>\n")
		c.inTag = false
		return
	}
	c.buf = append(append(append(c.buf, "</"...), tag...), ">\n"...)
}

// each advances the scanner to the next child element called tag,
// skipping others; leave closes the element that was read at depth.
func (c *codec) each(tag string) bool {
	for c.child() {
		if string(c.name) == tag {
			return true
		}
		c.skip()
	}
	return false
}

func (c *codec) leave(depth int) {
	if len(c.stack) >= depth {
		c.skip()
	}
}

// list describes a slice as <wrapper> holding one <tag> per item; items
// is the same without the wrapper. An empty slice writes nothing.
func list[T any](c *codec, wrapper, tag string, p *[]T, item func(*T)) {
	switch {
	case c.dec:
		for c.each(wrapper) {
			items(c, tag, p, item)
		}
	case len(*p) > 0:
		c.begin(wrapper)
		items(c, tag, p, item)
		c.end(wrapper)
	}
}

func items[T any](c *codec, tag string, p *[]T, item func(*T)) {
	if !c.dec {
		for i := range *p {
			c.begin(tag)
			item(&(*p)[i])
			c.end(tag)
		}
		return
	}
	for c.each(tag) {
		var v T
		depth := len(c.stack)
		item(&v)
		c.leave(depth)
		*p = append(*p, v)
	}
}

// --- attributes ---

func (c *codec) attr(name string) { c.buf = append(append(append(c.buf, ' '), name...), '=', '"') }

func num[T ~int | ~int64 | ~uint8](c *codec, name string, p *T) {
	if !c.dec {
		if *p != 0 {
			c.attr(name)
			c.buf = append(strconv.AppendInt(c.buf, int64(*p), 10), '"')
		}
	} else if v := c.get(name); v != nil {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if *p = T(n); err != nil || int64(*p) != n {
			c.fail("bad integer %s=%q", name, v)
		}
	}
}

// float writes the shortest form that parses back to the same bits.
func (c *codec) float(name string, p *float64) {
	if !c.dec {
		if math.Float64bits(*p) != 0 {
			c.attr(name)
			c.buf = append(strconv.AppendFloat(c.buf, *p, 'g', -1, 64), '"')
		}
	} else if v := c.get(name); v != nil {
		var err error
		if *p, err = strconv.ParseFloat(string(v), 64); err != nil {
			c.fail("bad number %s=%q", name, v)
		}
	}
}

func (c *codec) flag(name string, p *bool) {
	if !c.dec {
		if *p {
			c.attr(name)
			c.raw(`true"`)
		}
	} else if v := c.get(name); v != nil {
		var err error
		if *p, err = strconv.ParseBool(string(v)); err != nil {
			c.fail("bad flag %s=%q", name, v)
		}
	}
}

var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
	// A conforming reader turns literal white space into spaces.
	"\t", "&#x9;", "\n", "&#xA;", "\r", "&#xD;")

// str carries a Go string byte for byte. What XML 1.0 cannot hold —
// invalid UTF-8, a character outside the Char production — goes in
// hexadecimal under the attribute name suffixed ".hex".
func (c *codec) str(name string, p *string) {
	switch s := *p; {
	case c.dec:
		if v := c.get(name); v != nil {
			*p = string(v)
		} else if v := c.get(name + ".hex"); v != nil {
			raw, err := hex.AppendDecode(nil, v)
			if *p = string(raw); err != nil {
				c.fail("bad hex string %s.hex=%q", name, v)
			}
		}
	case s == "":
	case !utf8.ValidString(s) || strings.IndexFunc(s, func(r rune) bool {
		return (r < ' ' && r != '\t' && r != '\n' && r != '\r') || r == 0xFFFE || r == 0xFFFF
	}) >= 0:
		c.attr(name + ".hex")
		c.buf = append(hex.AppendEncode(c.buf, []byte(s)), '"')
	default:
		c.attr(name)
		c.raw(attrEscaper.Replace(s))
		c.raw(`"`)
	}
}

func appendIDs[T ~int](buf []byte, ids []T) []byte {
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return buf
}

// parseIDs reads a comma-joined id list; what names the kind of id in the
// error.
func parseIDs[T ~int](c *codec, val []byte, what string, p *[]T) {
	for more := len(val) > 0; more; {
		var part []byte
		part, val, more = bytes.Cut(val, []byte(","))
		id, err := strconv.Atoi(string(part))
		if err != nil {
			c.fail("bad %s %q", what, part)
		}
		*p = append(*p, T(id))
	}
}

func ids[T ~int](c *codec, name, what string, p *[]T) {
	if c.dec {
		parseIDs(c, c.get(name), what, p)
	} else if len(*p) > 0 {
		c.attr(name)
		c.buf = append(appendIDs(c.buf, *p), '"')
	}
}

// cols carries ordered column metadata as a list of dictionary ids.
func (c *codec) cols(name string, p *[]algebra.ColumnMeta) {
	var list []algebra.ColumnID
	for _, m := range *p {
		list = append(list, c.ref(m.ID, m))
	}
	ids(c, name, "column id", &list)
	if c.dec {
		for _, id := range list {
			*p = append(*p, c.col(int(id)).Meta)
		}
	}
}

// ref enters a column into the dictionary being written (first sighting
// wins) and returns its id.
func (c *codec) ref(id algebra.ColumnID, m algebra.ColumnMeta) algebra.ColumnID {
	if c.dict.get(int(id)) == nil {
		if !c.dict.put(int(id), &algebra.ColRef{}) {
			c.fail("column id %d out of range", id)
		}
		inTag := c.inTag
		c.buf, c.colBuf, c.inTag = c.colBuf, c.buf, false
		c.begin("Col")
		c.dictCol(&m)
		c.end("Col")
		c.buf, c.colBuf, c.inTag = c.colBuf, c.buf, inTag
	}
	return id
}

func (c *codec) dictCol(m *algebra.ColumnMeta) {
	num(c, "id", &m.ID)
	c.str("name", &m.Name)
	c.str("qual", &m.Qual)
	num(c, "type", &m.Type)
}

func (c *codec) memoAttrs(root, maxCol *int, exhausted *bool) {
	num(c, "root", root)
	num(c, "maxCol", maxCol)
	c.flag("exhausted", exhausted)
}

func (c *codec) groupAttrs(id *int, rows, width *float64, out *[]algebra.ColumnMeta) {
	num(c, "id", id)
	c.float("rows", rows)
	c.float("width", width)
	c.cols("out", out)
}

func (c *codec) stat(id *algebra.ColumnID, cs *DecodedColStat) {
	num(c, "id", id)
	c.float("ndv", &cs.NDV)
	c.float("nullFrac", &cs.NullFrac)
	c.float("width", &cs.Width)
}

// col resolves a dictionary id read from the document.
func (c *codec) col(id int) *algebra.ColRef {
	ref := c.dict.get(id)
	if ref == nil {
		c.fail("column %d missing from dictionary", id)
		ref = &algebra.ColRef{}
	}
	return ref
}

// --- expressions ---

var newOperator = map[string]func() algebra.Operator{
	"Get":      func() algebra.Operator { return &algebra.Get{} },
	"Values":   func() algebra.Operator { return &algebra.Values{} },
	"Select":   func() algebra.Operator { return &algebra.Select{} },
	"Project":  func() algebra.Operator { return &algebra.Project{} },
	"Join":     func() algebra.Operator { return &algebra.Join{} },
	"GroupBy":  func() algebra.Operator { return &algebra.GroupBy{} },
	"Sort":     func() algebra.Operator { return &algebra.Sort{} },
	"UnionAll": func() algebra.Operator { return &algebra.UnionAll{} },
}

// lit writes a constant attribute that needs no escaping: the name of an
// operator, the kind of a scalar. Decoding has already dispatched on it.
func (c *codec) lit(name, value string) {
	if !c.dec {
		c.attr(name)
		c.buf = append(append(c.buf, value...), '"')
	}
}

// expr describes one <Expr>; children are group ids of either side's id
// type. A physical expression wraps its operator in the algorithm.
func expr[T ~int](c *codec, op *algebra.Operator, children *[]T, physical *bool, cost *float64, winner *bool) {
	algo, inner := "", *op
	if p, ok := inner.(*algebra.Phys); ok {
		algo, inner = p.Algo, p.Of
	}
	c.str("algo", &algo)
	ids(c, "children", "child group", children)
	c.flag("physical", physical)
	c.float("cost", cost)
	c.flag("winner", winner)
	if c.dec {
		name := string(c.get("op"))
		fresh := newOperator[name]
		if fresh == nil {
			c.fail("unknown operator %q", name)
			fresh = newOperator["UnionAll"]
		}
		inner = fresh()
	}
	c.operator(inner)
	if c.dec {
		if algo != "" {
			inner = algebra.NewPhys(algo, inner)
		}
		*op = inner
	}
}

// operator describes an operator's payload: attributes, then the child
// elements that hold its scalars.
func (c *codec) operator(op algebra.Operator) {
	switch o := op.(type) {
	case *algebra.Get:
		c.lit("op", "Get")
		table := ""
		if o.Table != nil {
			table = o.Table.Name
		}
		c.str("table", &table)
		c.str("alias", &o.Alias)
		c.cols("cols", &o.Cols)
		if c.dec {
			if o.Table = c.shell.Table(table); o.Table == nil {
				c.fail("unknown table %q", table)
			}
		}
	case *algebra.Values:
		c.lit("op", "Values")
		c.cols("cols", &o.Cols)
		list(c, "Rows", "Row", &o.Rows, func(row *[]types.Value) {
			items(c, "V", row, func(v *types.Value) {
				c.lit("kind", "const")
				c.constant(v)
			})
		})
	case *algebra.Select:
		c.lit("op", "Select")
		c.wrap("Filter", &o.Filter)
	case *algebra.Project:
		c.lit("op", "Project")
		list(c, "Defs", "Def", &o.Defs, func(d *algebra.ProjDef) {
			num(c, "id", &d.ID)
			c.str("name", &d.Name)
			if c.scalar(&d.Expr); d.Expr == nil {
				c.fail("projection of column %d has no expression", d.ID)
			}
		})
	case *algebra.Join:
		c.lit("op", "Join")
		num(c, "joinKind", &o.Kind)
		c.wrap("On", &o.On)
	case *algebra.GroupBy:
		c.lit("op", "GroupBy")
		ids(c, "keys", "group key", &o.Keys)
		num(c, "phase", &o.Phase)
		list(c, "Aggs", "Agg", &o.Aggs, func(a *algebra.AggDef) {
			num(c, "func", &a.Func)
			c.flag("distinct", &a.Distinct)
			num(c, "id", &a.ID)
			c.str("name", &a.Name)
			c.scalar(&a.Arg)
		})
	case *algebra.Sort:
		c.lit("op", "Sort")
		num(c, "top", &o.Top)
		list(c, "SortKeys", "Key", &o.Keys, func(k *algebra.SortKey) {
			num(c, "id", &k.ID)
			c.flag("desc", &k.Desc)
		})
	case *algebra.UnionAll:
		c.lit("op", "UnionAll")
	default:
		c.fail("cannot encode operator %T", op)
	}
}

// --- scalars ---

var newScalar = map[string]func() algebra.Scalar{
	"col":    func() algebra.Scalar { return &algebra.ColRef{} },
	"const":  func() algebra.Scalar { return &algebra.Const{} },
	"bin":    func() algebra.Scalar { return &algebra.Binary{} },
	"not":    func() algebra.Scalar { return &algebra.Not{} },
	"neg":    func() algebra.Scalar { return &algebra.Neg{} },
	"isnull": func() algebra.Scalar { return &algebra.IsNull{} },
	"like":   func() algebra.Scalar { return &algebra.Like{} },
	"inlist": func() algebra.Scalar { return &algebra.InList{} },
	"func":   func() algebra.Scalar { return &algebra.Func{} },
	"case":   func() algebra.Scalar { return &algebra.Case{} },
	"cast":   func() algebra.Scalar { return &algebra.Cast{} },
}

// wrap describes an optional scalar inside a one-child wrapper element.
func (c *codec) wrap(tag string, p *algebra.Scalar) {
	switch {
	case c.dec:
		for c.each(tag) {
			c.scalar(p)
		}
	case *p != nil:
		c.begin(tag)
		c.node(p)
		c.end(tag)
	}
}

// scalar describes an optional <S> child.
func (c *codec) scalar(p *algebra.Scalar) {
	switch {
	case c.dec:
		for c.each("S") {
			c.node(p)
		}
	case *p != nil:
		c.node(p)
	}
}

// args describes the <S> children of a scalar: one per field of fixed, in
// order, and then — if the kind takes a list — any number more into rest.
func (c *codec) args(kind string, fixed []*algebra.Scalar, rest *[]algebra.Scalar) {
	if !c.dec {
		for _, p := range fixed {
			c.node(p)
		}
		for i := 0; rest != nil && i < len(*rest); i++ {
			c.node(&(*rest)[i])
		}
		return
	}
	n := 0
	for ; c.each("S"); n++ {
		var x algebra.Scalar
		c.node(&x)
		if n < len(fixed) {
			*fixed[n] = x
		} else if rest != nil {
			*rest = append(*rest, x)
		}
	}
	if n < len(fixed) || (n > len(fixed) && rest == nil) {
		c.fail("%s scalar with %d operands, want %d", kind, n, len(fixed))
	}
}

// colAttr carries a bare column reference as a dictionary id; decoding
// points p at the one reference the dictionary holds for the id.
func (c *codec) colAttr(name string, p *algebra.Scalar) {
	var id algebra.ColumnID
	if ref, ok := (*p).(*algebra.ColRef); ok && !c.dec {
		id = c.ref(ref.ID, ref.Meta)
	}
	if num(c, name, &id); c.dec {
		*p = c.col(int(id))
	}
}

// node describes one <S>, the recursive scalar-expression encoding.
// Column references name dictionary ids: a bare reference is kind="col"
// col="N", and a binary operator over two bare references collapses to
// l="N" r="M" with no child elements — the dominant shape in large join
// conditions.
func (c *codec) node(p *algebra.Scalar) {
	kind, depth := "", len(c.stack)
	if c.dec {
		kind = string(c.get("kind"))
		fresh := newScalar[kind]
		if fresh == nil {
			c.fail("unknown scalar kind %q", kind)
			fresh = newScalar["const"]
		}
		*p = fresh()
	} else {
		c.begin("S")
	}
	switch x := (*p).(type) {
	case *algebra.ColRef:
		c.lit("kind", "col")
		c.colAttr("col", p)
	case *algebra.Const:
		c.lit("kind", "const")
		c.constant(&x.Val)
		num(c, "param", &x.Param)
	case *algebra.Binary:
		c.lit("kind", "bin")
		num(c, "binop", &x.Op)
		_, lok := x.L.(*algebra.ColRef)
		_, rok := x.R.(*algebra.ColRef)
		// Collapsed: both sides bare when encoding, l or r present when
		// decoding (get finds no attribute on the idle scanner of an encoder).
		if (lok && rok) || c.get("l") != nil || c.get("r") != nil {
			c.colAttr("l", &x.L)
			c.colAttr("r", &x.R)
		} else {
			c.args(kind, []*algebra.Scalar{&x.L, &x.R}, nil)
		}
	case *algebra.Not:
		c.lit("kind", "not")
		c.args(kind, []*algebra.Scalar{&x.E}, nil)
	case *algebra.Neg:
		c.lit("kind", "neg")
		c.args(kind, []*algebra.Scalar{&x.E}, nil)
	case *algebra.IsNull:
		c.lit("kind", "isnull")
		c.flag("negated", &x.Negated)
		c.args(kind, []*algebra.Scalar{&x.E}, nil)
	case *algebra.Like:
		c.lit("kind", "like")
		c.flag("negated", &x.Negated)
		c.str("pattern", &x.Pattern)
		c.args(kind, []*algebra.Scalar{&x.E}, nil)
	case *algebra.InList:
		c.lit("kind", "inlist")
		c.flag("negated", &x.Negated)
		c.args(kind, []*algebra.Scalar{&x.E}, &x.List)
	case *algebra.Func:
		c.lit("kind", "func")
		c.str("name", &x.Name)
		num(c, "outKind", &x.Out)
		c.args(kind, nil, &x.Args)
	case *algebra.Case:
		c.lit("kind", "case")
		c.caseArms(x)
	case *algebra.Cast:
		c.lit("kind", "cast")
		num(c, "outKind", &x.To)
		c.args(kind, []*algebra.Scalar{&x.E}, nil)
	case *algebra.Subquery:
		c.fail("subquery survived normalization")
	default:
		c.fail("cannot encode scalar %T", x)
	}
	if c.dec {
		c.leave(depth)
	} else {
		c.end("S")
	}
}

// caseArms describes CASE as the flat operand list cond, then, cond, then,
// …, with negated marking an ELSE in last place.
func (c *codec) caseArms(x *algebra.Case) {
	var flat []algebra.Scalar
	for _, w := range x.Whens {
		flat = append(flat, w.Cond, w.Then)
	}
	hasElse := x.Else != nil
	if hasElse {
		flat = append(flat, x.Else)
	}
	c.flag("negated", &hasElse)
	if c.args("case", nil, &flat); !c.dec {
		return
	}
	if hasElse && len(flat) > 0 {
		x.Else, flat = flat[len(flat)-1], flat[:len(flat)-1]
	} else if hasElse {
		c.fail("case scalar with 0 operands, want ELSE")
	}
	if len(flat)%2 != 0 {
		c.fail("malformed CASE")
	}
	for i := 0; i+1 < len(flat); i += 2 {
		x.Whens = append(x.Whens, algebra.CaseWhen{Cond: flat[i], Then: flat[i+1]})
	}
}

// constant describes a literal as its val and valKind attributes.
func (c *codec) constant(v *types.Value) {
	kind, val := v.Kind(), ""
	switch kind {
	case types.KindBool:
		val = strconv.FormatBool(v.Bool())
	case types.KindInt:
		val = strconv.FormatInt(v.Int(), 10)
	case types.KindFloat:
		val = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case types.KindString:
		val = v.Str()
	case types.KindDate:
		val = strconv.FormatInt(v.DateDays(), 10)
	}
	c.str("val", &val)
	if num(c, "valKind", &kind); !c.dec {
		return
	}
	var err error
	switch kind {
	case types.KindNull:
	case types.KindBool:
		var b bool
		b, err = strconv.ParseBool(val)
		*v = types.NewBool(b)
	case types.KindInt, types.KindDate:
		var n int64
		if n, err = strconv.ParseInt(val, 10, 64); kind == types.KindInt {
			*v = types.NewInt(n)
		} else {
			*v = types.NewDate(n)
		}
	case types.KindFloat:
		var f float64
		f, err = strconv.ParseFloat(val, 64)
		*v = types.NewFloat(f)
	case types.KindString:
		*v = types.NewString(val)
	default:
		c.fail("unknown value kind %d", kind)
	}
	if err != nil {
		c.fail("bad %s %q", [...]string{"null", "bool", "int", "float", "string", "date"}[kind], val)
	}
}
