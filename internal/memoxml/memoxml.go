// Package memoxml implements the interface boundary between the SQL Server
// compilation stack and the PDW engine (paper Figure 2, components 3–4):
// the XML Generator that encodes the optimizer MEMO, and the memo parser
// that reconstructs it on the PDW side. The PDW optimizer consumes only
// this representation — never in-process memo pointers — mirroring the
// "showplan-XML-like" compilation entry point described in §3.1.
//
// Column metadata is hoisted into a single document-level dictionary
// (<Cols>), and every other site — group output lists, scan column lists,
// scalar column references — names columns by id alone. Join conditions get
// the same treatment: a second dictionary (<Conjs>) holds each conjunct the
// memo interned once, under the memo's conjunct id, and a join names its
// conjuncts by id (on="3,7"). Exploration writes the same few conjuncts
// into thousands of join expressions; the dictionaries keep the document
// linear in memo size rather than quadratic in join width, and decoding
// builds each conjunct once, shared by every join that names it.
//
// Both directions stream: Encode appends the document to one byte slice,
// one element per line, and Decode builds the Decoded memo in one descent
// over a pull tokenizer (scan.go). They share the description of every
// element (codec.go). Strings cross the boundary byte for byte, floats bit
// for bit.
package memoxml

import (
	"slices"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
)

// DecodedExpr is one parsed group expression. A costed export (the serial
// baseline's) marks each group's winner and carries its serial cost. For a
// join, Conjs lists the dictionary ids of its conjuncts and Op's On is
// their conjunction, in that order.
type DecodedExpr struct {
	Op       algebra.Operator
	Children []int
	Conjs    []int
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

// Decoded is the parsed memo, the input to the PDW optimizer. Conjs is the
// join conjunct dictionary indexed by id, nil where the document defines
// none; every join naming an id shares its scalar, which is read-only.
type Decoded struct {
	Root      int
	MaxCol    int
	Exhausted bool
	Groups    map[int]*DecodedGroup
	Conjs     []algebra.Scalar
}

// maxColID bounds the ids of the two dictionaries, tables indexed by id
// holding the one value that every site naming the id shares.
const maxColID = 1 << 20

type dict[T any] []T

func (d dict[T]) get(id int) (v T) {
	if id >= 0 && id < len(d) {
		v = d[id]
	}
	return v
}

// put enters v under id; it reports false for an id out of range.
func (d *dict[T]) put(id int, v T) bool {
	if id < 0 || id > maxColID {
		return false
	}
	if id >= len(*d) {
		*d = append(*d, make([]T, id+1-len(*d))...)
	}
	(*d)[id] = v
	return true
}

// Encode serializes a memo as XML: every group with its statistics and its
// logical expressions. After CostSerial, each group's winner is marked and
// carries its serial cost — all the serial baseline reads of the costing.
func Encode(m *memo.Memo) ([]byte, error) {
	c, maxCol := &codec{conjs: m.Conjuncts()}, 0
	var on []int
	for _, g := range m.Groups[1:] {
		p := g.Props
		if p == nil {
			p = &memo.LogicalProps{}
		}
		for _, col := range p.OutCols {
			maxCol = max(maxCol, int(col.ID))
		}
		c.group(int(g.ID), p.Rows, p.Width, p.OutCols, p.Keys, sortedKeys(p.Cols), func(id algebra.ColumnID) DecodedColStat {
			return DecodedColStat{NDV: p.Cols[id].NDV, NullFrac: p.Cols[id].NullFrac, Width: p.Cols[id].Width}
		})
		for _, x := range g.Exprs {
			winner, cost := x == g.Winner(), 0.0
			if winner {
				cost = x.Cost
			}
			on = x.AppendConjuncts(on[:0])
			c.begin("Expr")
			expr(c, &x.Op, &x.Children, &on, &cost, &winner)
			c.end("Expr")
		}
		c.end("Group")
	}
	return c.finish(int(m.Root), maxCol+1, m.Exhausted())
}

// Encode serializes a decoded memo back into the document form, groups in
// id order: Decode(d.Encode()) is d.
func (d *Decoded) Encode() ([]byte, error) {
	c := &codec{conjs: d.Conjs}
	for _, id := range sortedKeys(d.Groups) {
		g := d.Groups[id]
		c.group(g.ID, g.Rows, g.Width, g.OutCols, g.Keys, sortedKeys(g.ColStats), func(id algebra.ColumnID) DecodedColStat {
			return g.ColStats[id]
		})
		for i := range g.Exprs {
			x := &g.Exprs[i]
			c.begin("Expr")
			expr(c, &x.Op, &x.Children, &x.Conjs, &x.Cost, &x.Winner)
			c.end("Expr")
		}
		c.end("Group")
	}
	return c.finish(d.Root, d.MaxCol, d.Exhausted)
}

func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// group opens a <Group> and writes its properties.
func (c *codec) group(id int, rows, width float64, out []algebra.ColumnMeta, keys []algebra.ColSet, stats []algebra.ColumnID, stat func(algebra.ColumnID) DecodedColStat) {
	c.begin("Group")
	c.groupAttrs(&id, &rows, &width, &out)
	if len(stats) > 0 {
		c.begin("Stats")
		for _, id := range stats {
			cs := stat(id)
			c.begin("Col")
			c.stat(&id, &cs)
			c.end("Col")
		}
		c.end("Stats")
	}
	if len(keys) > 0 {
		c.begin("Keys")
		c.closeTag()
		for _, k := range keys {
			c.raw("<Key>")
			c.buf = appendIDs(c.buf, k.Sorted())
			c.raw("</Key>\n")
		}
		c.end("Keys")
	}
}

// finish splices the dictionaries and the groups under the root element:
// the conjuncts in id order, then the columns, which the conjuncts too
// have entered.
func (c *codec) finish(root, maxCol int, exhausted bool) ([]byte, error) {
	body := c.buf
	c.buf = nil
	for id, s := range c.conjs {
		if s != nil {
			c.begin("C")
			c.dictConj(&id, &s)
			c.end("C")
		}
	}
	conjs, cols := c.buf, c.colBuf
	c.buf = make([]byte, 0, len(cols)+len(conjs)+len(body)+128)
	c.raw(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	c.begin("Memo")
	c.memoAttrs(&root, &maxCol, &exhausted)
	c.splice("Cols", cols)
	c.splice("Conjs", conjs)
	c.closeTag()
	c.buf = append(c.buf, body...)
	c.end("Memo")
	return c.buf, c.err
}

// splice writes a dictionary element holding entries, if there are any.
func (c *codec) splice(tag string, entries []byte) {
	if len(entries) > 0 {
		c.begin(tag)
		c.closeTag()
		c.buf = append(c.buf, entries...)
		c.end(tag)
	}
}

// Decode parses memo XML, resolving table references against the shell
// database. Malformed input of any kind — syntax, operand and child
// counts, enumeration values, dangling ids — is an error prefixed
// "memoxml:", never a panic. Unknown elements and attributes are skipped;
// the dictionaries must precede the groups that name their ids, which is
// where Encode puts them.
func Decode(data []byte, shell *catalog.Shell) (*Decoded, error) {
	c := &codec{dec: true, scanner: scanner{data: data}, shell: shell, ons: map[string]onList{}}
	if !c.child() || string(c.name) != "Memo" {
		c.fail("expected a <Memo> document")
	}
	out := &Decoded{Groups: map[int]*DecodedGroup{}}
	c.memoAttrs(&out.Root, &out.MaxCol, &out.Exhausted)
	for c.child() {
		switch string(c.name) {
		case "Cols":
			for c.each("Col") {
				var m algebra.ColumnMeta
				if c.dictCol(&m); !c.dict.put(int(m.ID), algebra.NewColRef(m)) {
					c.fail("column id %d out of range", m.ID)
				}
				c.skip()
			}
		case "Conjs":
			for c.each("C") {
				var id int
				var s algebra.Scalar
				switch c.dictConj(&id, &s); {
				case s == nil:
					c.fail("conjunct %d has no scalar", id)
				case c.conjs.get(id) != nil:
					c.fail("duplicate conjunct id %d", id)
				case !c.conjs.put(id, s):
					c.fail("conjunct id %d out of range", id)
				}
			}
		case "Group":
			g := c.readGroup()
			if _, dup := out.Groups[g.ID]; dup {
				c.fail("duplicate group id %d", g.ID)
			}
			out.Groups[g.ID] = g
		default:
			c.skip()
		}
	}
	if _, ok := out.Groups[out.Root]; !ok {
		c.fail("root group %d missing", out.Root)
	}
	c.checkGraph(out)
	if c.err != nil {
		return nil, c.err
	}
	out.Conjs = c.conjs
	return out, nil
}

func (c *codec) readGroup() *DecodedGroup {
	g := &DecodedGroup{ColStats: map[algebra.ColumnID]DecodedColStat{}}
	c.groupAttrs(&g.ID, &g.Rows, &g.Width, &g.OutCols)
	for c.child() {
		switch string(c.name) {
		case "Stats":
			for c.each("Col") {
				var id algebra.ColumnID
				var cs DecodedColStat
				c.stat(&id, &cs)
				g.ColStats[id] = cs
				c.skip()
			}
		case "Keys":
			for c.each("Key") {
				var key []algebra.ColumnID
				parseIDs(c, c.text(), "column id", &key)
				g.Keys = append(g.Keys, algebra.NewColSet(key...))
				c.skip()
			}
		case "Expr":
			var x DecodedExpr
			depth := len(c.stack)
			expr(c, &x.Op, &x.Children, &x.Conjs, &x.Cost, &x.Winner)
			c.leave(depth)
			g.Exprs = append(g.Exprs, x)
		default:
			c.skip()
		}
	}
	return g
}

// checkGraph fails on a child reference that does not resolve — it would
// surface much later as a nil dereference inside the PDW enumerator, far
// from the XML that caused it — and on a reference cycle, for which the
// bottom-up enumerator's topological order does not exist. Every group is
// a root of the search, so cycles detached from the memo root count too.
func (c *codec) checkGraph(dec *Decoded) {
	const visiting, done = 1, 2
	state := make(map[int]uint8, len(dec.Groups))
	var dfs func(id int)
	dfs = func(id int) {
		if state[id] == visiting {
			c.fail("group %d participates in a reference cycle", id)
		}
		if state[id] != 0 || c.err != nil {
			return
		}
		state[id] = visiting
		for _, e := range dec.Groups[id].Exprs {
			for _, child := range e.Children {
				if dec.Groups[child] == nil {
					c.fail("group %d references unknown child group %d", id, child)
					return
				}
				dfs(child)
			}
		}
		state[id] = done
	}
	for _, id := range sortedKeys(dec.Groups) {
		dfs(id)
	}
}
