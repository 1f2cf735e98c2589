// Package memo implements the Cascades-style search-space data structure
// and the serial (single-node) optimizer that populates it — the role SQL
// Server's optimizer plays against the shell database in the paper
// (§2.5 component 2, Figure 3c "initial/final serial memo").
//
// A Memo holds Groups of equivalent expressions; each GroupExpr is an
// operator payload whose children are groups rather than operators, so a
// memo compactly encodes a very large number of operator trees. The PDW
// optimizer (internal/core) consumes this structure — via its XML encoding
// — and augments it with data-movement operations.
package memo

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
)

// GroupID identifies a group within a memo. IDs are 1-based to match the
// paper's Figure 3 numbering; 0 is invalid.
type GroupID int

// GroupExpr is one operator with groups as children. Logical and physical
// expressions share the structure; physical ones carry a cost.
type GroupExpr struct {
	Op       algebra.Operator
	Children []GroupID
	Physical bool

	// Cost is the serial cost model's total cost (own + best children)
	// for physical expressions; 0 until costed.
	Cost float64
	// BestChildren pins the winning child expression index per child
	// group, set during costing.
	BestChildren []int
}

// Fingerprint identifies the expression for duplicate detection.
func (e *GroupExpr) Fingerprint() string {
	fp := e.Op.Fingerprint()
	for _, c := range e.Children {
		fp += "|g" + strconv.Itoa(int(c))
	}
	return fp
}

// bitset is a set of small interned integers. It never ends in a zero
// word, so equal sets have equal words.
type bitset []uint64

// set adds i in place (growing as needed); only for sets not yet shared.
func (b bitset) set(i int) bitset {
	for len(b) <= i/64 {
		b = append(b, 0)
	}
	b[i/64] |= 1 << (i % 64)
	return b
}

// union returns a fresh set holding b and c.
func (b bitset) union(c bitset) bitset {
	if len(b) < len(c) {
		b, c = c, b
	}
	out := append(bitset(nil), b...)
	for i, w := range c {
		out[i] |= w
	}
	return out
}

// logicalKey is the identity of an inner/cross join expression: the
// non-join groups it joins ("atoms") and the conjuncts applied anywhere
// beneath it. Two join trees with equal keys are equivalent by
// commutativity and associativity whatever their shape, so they share one
// group — the DP-table entry of their relation set. Every other operator is
// an atom, identified by expression fingerprint alone.
type logicalKey struct {
	atoms bitset // atom ordinals (Memo.atoms)
	conjs bitset // interned conjunct ids (Memo.conj)
}

// appendTo appends the key's map-index encoding to buf.
func (k logicalKey) appendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(k.atoms)))
	for _, w := range k.atoms {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range k.conjs {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Group is a set of equivalent expressions with shared logical properties.
type Group struct {
	ID    GroupID
	Exprs []*GroupExpr
	Props *LogicalProps

	// key is what the group contributes to the key of a join above it: the
	// key of its first inner/cross join expression, else — from the first
	// time the group is a join input — its own atom bit and no conjuncts.
	key logicalKey

	// winner is the index into Exprs of the cheapest physical expression,
	// -1 before costing.
	winner int
	// explored guards re-running transformation rules.
	exploredRound int
}

// Winner returns the cheapest physical expression, or nil.
func (g *Group) Winner() *GroupExpr {
	if g.winner < 0 || g.winner >= len(g.Exprs) {
		return nil
	}
	return g.Exprs[g.winner]
}

// Memo is the search space: groups plus two indexes that keep it free of
// duplicates — expression fingerprints, and logical keys so that a join
// reached through a different shape lands in the group of its relation set.
type Memo struct {
	Shell  *catalog.Shell
	Groups []*Group // Groups[0] is a placeholder; IDs are 1-based
	Root   GroupID

	exprGroup map[string]GroupID // expression fingerprint → owning group
	keyGroup  map[string]GroupID // encoded logicalKey → owning group
	atoms     int                // atom ordinals handed out
	buf       []byte             // scratch for building index keys

	// Join conjuncts are interned: by pointer (rules pass the same
	// scalars around) and, behind that, by fingerprint.
	conjPtr  map[algebra.Scalar]int
	conjID   map[string]int
	conjFP   []string         // id → fingerprint
	conjCols []algebra.ColSet // id → columns referenced

	// conflicts counts InsertExpr calls whose caller asserted a target
	// group other than the one that already owns the expression. No rule
	// produces one (a rule's output has its input's key), so the groups are
	// left apart rather than merged; TestSearchSpaceSize pins it at zero.
	conflicts int

	// Budget caps the number of expressions created during exploration,
	// mirroring SQL Server's optimization timeout (paper §3.1). 0 means
	// unlimited.
	Budget    int
	exhausted bool
	created   int
}

// DefaultBudget is the default exploration budget (expressions created
// before the optimizer "times out", paper §3.1). Large join graphs exhaust
// it and fall back to the space explored so far, exactly like SQL Server's
// timeout; 0 disables the cap.
const DefaultBudget = 5000

// New returns an empty memo over the given shell database.
func New(shell *catalog.Shell) *Memo {
	return &Memo{
		Shell:     shell,
		Groups:    []*Group{nil},
		exprGroup: map[string]GroupID{},
		keyGroup:  map[string]GroupID{},
		conjPtr:   map[algebra.Scalar]int{},
		conjID:    map[string]int{},
	}
}

// Group resolves a group by ID.
func (m *Memo) Group(id GroupID) *Group { return m.Groups[id] }

// NumGroups returns the number of groups.
func (m *Memo) NumGroups() int { return len(m.Groups) - 1 }

// NumExprs returns the total number of group expressions.
func (m *Memo) NumExprs() int {
	n := 0
	for _, g := range m.Groups[1:] {
		n += len(g.Exprs)
	}
	return n
}

// Exhausted reports whether exploration hit the budget before finishing —
// the analogue of SQL Server's optimizer timeout.
func (m *Memo) Exhausted() bool { return m.exhausted }

// Insert adds a whole operator tree, returning its group. Duplicate
// subtrees collapse onto existing groups.
func (m *Memo) Insert(t *algebra.Tree) GroupID {
	children := make([]GroupID, len(t.Children))
	for i, c := range t.Children {
		children[i] = m.Insert(c)
	}
	id, _ := m.InsertExpr(&GroupExpr{Op: t.Op, Children: children}, 0)
	return id
}

// InsertSeed adds an alternative plan for the root group — the paper's
// §3.1 seeding: "we seed the MEMO with execution plans that consider
// distribution information of tables". The tree must be semantically
// equivalent to the root (the caller asserts this); its subtrees dedup
// against existing groups where fingerprints match.
func (m *Memo) InsertSeed(t *algebra.Tree) {
	children := make([]GroupID, len(t.Children))
	for i, c := range t.Children {
		children[i] = m.Insert(c)
	}
	m.InsertExpr(&GroupExpr{Op: t.Op, Children: children}, m.Root)
}

// InsertExpr adds one expression. It lands in the group that already owns
// its fingerprint or, for an inner/cross join, its logical key; failing
// that in target (the caller asserts equivalence, e.g. the output of a
// transformation rule) or, if target is 0, in a fresh group. Returns the
// owning group and whether the expression was new.
func (m *Memo) InsertExpr(e *GroupExpr, target GroupID) (GroupID, bool) {
	fp := m.fingerprint(e)
	if owner, dup := m.exprGroup[fp]; dup {
		if target != 0 && owner != target {
			m.conflicts++
		}
		return owner, false
	}
	key, keyed := m.keyOf(e)
	var keyIndex string
	if keyed {
		m.buf = key.appendTo(m.buf[:0])
		keyIndex = string(m.buf)
	}
	switch owner := m.keyGroup[keyIndex]; {
	case owner != 0:
		if target != 0 && owner != target {
			m.conflicts++
		}
		target = owner
	case target == 0:
		target = GroupID(len(m.Groups))
		m.Groups = append(m.Groups, &Group{ID: target, winner: -1})
	}
	g := m.Groups[target]
	g.Exprs = append(g.Exprs, e)
	m.exprGroup[fp] = target
	m.created++
	if keyed {
		m.keyGroup[keyIndex] = target
		if g.key.atoms == nil {
			g.key = key
		}
	}
	if g.Props == nil && !e.Physical {
		g.Props = m.deriveProps(e)
	}
	return target, true
}

// conj interns one join conjunct.
func (m *Memo) conj(c algebra.Scalar) int {
	id, ok := m.conjPtr[c]
	if !ok {
		fp := c.Fingerprint()
		if id, ok = m.conjID[fp]; !ok {
			id = len(m.conjFP)
			m.conjID[fp] = id
			m.conjFP = append(m.conjFP, fp)
			m.conjCols = append(m.conjCols, algebra.ScalarCols(c))
		}
		m.conjPtr[c] = id
	}
	return id
}

// fingerprint identifies e for duplicate detection. A join spells its
// condition as the interned ids of its conjuncts in order, which is what
// keeps exploring wide joins from re-printing every condition it revisits.
func (m *Memo) fingerprint(e *GroupExpr) string {
	op, algo := e.Op, ""
	if p, ok := op.(*algebra.Phys); ok {
		op, algo = p.Of, p.Algo
	}
	j, ok := op.(*algebra.Join)
	if !ok {
		return e.Fingerprint()
	}
	buf := append(m.buf[:0], algo...)
	buf = strconv.AppendInt(append(buf, "Join"...), int64(j.Kind), 10)
	for _, c := range algebra.Conjuncts(j.On) {
		buf = strconv.AppendInt(append(buf, ','), int64(m.conj(c)), 10)
	}
	for _, c := range e.Children {
		buf = strconv.AppendInt(append(buf, "|g"...), int64(c), 10)
	}
	m.buf = buf
	return string(buf)
}

// keyOf computes the logical key of an inner/cross join expression from
// its children's keys; ok is false for every other operator.
func (m *Memo) keyOf(e *GroupExpr) (k logicalKey, ok bool) {
	j, isJoin := e.Op.(*algebra.Join)
	if !isJoin || (j.Kind != algebra.JoinInner && j.Kind != algebra.JoinCross) {
		return k, false
	}
	l, r := m.inputKey(e.Children[0]), m.inputKey(e.Children[1])
	k = logicalKey{atoms: l.atoms.union(r.atoms), conjs: l.conjs.union(r.conjs)}
	for _, c := range algebra.Conjuncts(j.On) {
		k.conjs = k.conjs.set(m.conj(c))
	}
	return k, true
}

// inputKey is what group id contributes to a join over it: its join key,
// or its own atom bit, handed out the first time it is a join input.
func (m *Memo) inputKey(id GroupID) logicalKey {
	g := m.Groups[id]
	if g.key.atoms == nil {
		g.key.atoms = bitset(nil).set(m.atoms)
		m.atoms++
	}
	return g.key
}

// budgetLeft reports whether exploration may create more expressions.
func (m *Memo) budgetLeft() bool {
	if m.Budget > 0 && m.created >= m.Budget {
		m.exhausted = true
		return false
	}
	return true
}

// String renders the memo in the paper's Figure 3 style: one line per
// group, expressions numbered group.ordinal.
func (m *Memo) String() string {
	var b strings.Builder
	for i := len(m.Groups) - 1; i >= 1; i-- {
		g := m.Groups[i]
		fmt.Fprintf(&b, "Group %d", g.ID)
		if g.Props != nil {
			fmt.Fprintf(&b, " (rows=%.5g width=%.4g)", g.Props.Rows, g.Props.Width)
		}
		if m.Root == g.ID {
			b.WriteString(" [root]")
		}
		b.WriteString(":\n")
		for j, e := range g.Exprs {
			kind := "L"
			if e.Physical {
				kind = "P"
			}
			fmt.Fprintf(&b, "  %d.%d %s %s", g.ID, j+1, kind, e.Op.OpName())
			if len(e.Children) > 0 {
				parts := make([]string, len(e.Children))
				for k, c := range e.Children {
					parts[k] = fmt.Sprintf("%d", c)
				}
				fmt.Fprintf(&b, "(%s)", strings.Join(parts, ","))
			}
			if e.Physical && e.Cost > 0 {
				fmt.Fprintf(&b, " cost=%.5g", e.Cost)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// LogicalExprs returns the group's logical expressions.
func (g *Group) LogicalExprs() []*GroupExpr {
	var out []*GroupExpr
	for _, e := range g.Exprs {
		if !e.Physical {
			out = append(out, e)
		}
	}
	return out
}
