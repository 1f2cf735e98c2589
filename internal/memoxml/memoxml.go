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

// maxColID bounds the ids of the column dictionary, a table indexed by id
// holding the one reference that every site naming the id shares.
const maxColID = 1 << 20

type colDict []*algebra.ColRef

func (d colDict) get(id int) *algebra.ColRef {
	if id < 0 || id >= len(d) {
		return nil
	}
	return d[id]
}

// put enters ref under id; it reports false for an id out of range.
func (d *colDict) put(id int, ref *algebra.ColRef) bool {
	if id < 0 || id > maxColID {
		return false
	}
	for id >= len(*d) {
		*d = append(*d, nil)
	}
	(*d)[id] = ref
	return true
}

// Encode serializes a memo as XML: every group with its statistics, its
// logical expressions and its one winner. The other physical expressions
// stay behind — the PDW side plans over logical expressions and reads a
// physical one only as the serial baseline's per-group winner.
func Encode(m *memo.Memo) ([]byte, error) {
	c, maxCol := &codec{}, 0
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
			if winner := x == g.Winner(); winner || !x.Physical {
				c.begin("Expr")
				expr(c, &x.Op, &x.Children, &x.Physical, &x.Cost, &winner)
				c.end("Expr")
			}
		}
		c.end("Group")
	}
	return c.finish(int(m.Root), maxCol+1, m.Exhausted())
}

// Encode serializes a decoded memo back into the document form, groups in
// id order: Decode(d.Encode()) is d.
func (d *Decoded) Encode() ([]byte, error) {
	c := &codec{}
	for _, id := range sortedKeys(d.Groups) {
		g := d.Groups[id]
		c.group(g.ID, g.Rows, g.Width, g.OutCols, g.Keys, sortedKeys(g.ColStats), func(id algebra.ColumnID) DecodedColStat {
			return g.ColStats[id]
		})
		for i := range g.Exprs {
			x := &g.Exprs[i]
			c.begin("Expr")
			expr(c, &x.Op, &x.Children, &x.Physical, &x.Cost, &x.Winner)
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

// finish splices the dictionary and the groups under the root element.
func (c *codec) finish(root, maxCol int, exhausted bool) ([]byte, error) {
	body, cols := c.buf, c.colBuf
	c.buf = make([]byte, 0, len(cols)+len(body)+128)
	c.raw(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	c.begin("Memo")
	c.memoAttrs(&root, &maxCol, &exhausted)
	if len(cols) > 0 {
		c.begin("Cols")
		c.closeTag()
		c.buf = append(c.buf, cols...)
		c.end("Cols")
	}
	c.closeTag()
	c.buf = append(c.buf, body...)
	c.end("Memo")
	return c.buf, c.err
}

// Decode parses memo XML, resolving table references against the shell
// database. Malformed input of any kind — syntax, operand counts, dangling
// ids — is an error prefixed "memoxml:", never a panic. Unknown elements
// and attributes are skipped; the column dictionary must precede the
// groups that name its ids, which is where Encode puts it.
func Decode(data []byte, shell *catalog.Shell) (*Decoded, error) {
	c := &codec{dec: true, scanner: scanner{data: data}, shell: shell}
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
			expr(c, &x.Op, &x.Children, &x.Physical, &x.Cost, &x.Winner)
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
