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
	"slices"
	"sort"
	"strconv"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
)

// GroupID identifies a group within a memo. IDs are 1-based to match the
// paper's Figure 3 numbering; 0 is invalid.
type GroupID int

// GroupExpr is one logical operator with groups as children.
type GroupExpr struct {
	Op       algebra.Operator
	Children []GroupID

	// Cost is the serial cost model's total cost: the cheapest algorithm
	// that could run the operator plus its children's winners. 0 until
	// CostSerial.
	Cost float64

	// conj is a join's condition as interned conjunct ids in On order, set
	// when the expression is inserted; rules and indexes read it, not On.
	conj []int32
}

// Fingerprint identifies the expression for duplicate detection.
func (e *GroupExpr) Fingerprint() string {
	fp := e.Op.Fingerprint()
	for _, c := range e.Children {
		fp += "|g" + strconv.Itoa(int(c))
	}
	return fp
}

// logicalKey is the identity of an inner/cross join expression: the
// non-join groups it joins ("atoms") and the conjuncts applied anywhere
// beneath it. Two join trees with equal keys are equivalent by
// commutativity and associativity whatever their shape, so they share one
// group — the DP-table entry of their relation set. Every other operator is
// an atom, identified by expression fingerprint alone.
type logicalKey struct {
	atoms algebra.ColSet // atom ordinals (Memo.atoms)
	conjs algebra.ColSet // interned conjunct ids (Memo.conj)
}

// appendTo appends the key's map-index encoding to buf.
func (k logicalKey) appendTo(buf []byte) []byte {
	atoms := k.atoms.Words()
	buf = binary.AppendUvarint(buf, uint64(len(atoms)))
	for _, w := range atoms {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range k.conjs.Words() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Group is a set of equivalent expressions with shared logical properties.
type Group struct {
	ID      GroupID
	Exprs   []*GroupExpr
	Props   *LogicalProps
	outCols algebra.ColSet // Props.OutCols

	// key is what the group contributes to the key of a join above it: the
	// key of its first inner/cross join expression, else — from the first
	// time the group is a join input — its own atom bit and no conjuncts.
	key logicalKey

	// winner is the index into Exprs of the cheapest expression, -1
	// before costing.
	winner int
}

// Winner returns the cheapest expression, or nil before CostSerial.
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
	key       logicalKey         // scratch keyOf builds its result in

	// Join conjuncts are interned: by pointer (rules pass the same
	// scalars around) and, behind that, by fingerprint.
	conjPtr  map[algebra.Scalar]int32
	conjID   map[string]int32
	conjFP   []string         // id → fingerprint
	conjCols []algebra.ColSet // id → columns referenced
	conjS    []algebra.Scalar // id → the first scalar interned: what rules and export use
	conjRank []int32          // id → position in fingerprint order (ranks)
	pool     [2][]int32       // ruleJoinAssociate's scratch: the two conditions,
	cols     algebra.ColSet   // and the columns of B⋈C

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
		conjPtr:   map[algebra.Scalar]int32{},
		conjID:    map[string]int32{},
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
	if j, ok := e.Op.(*algebra.Join); ok {
		if e.conj == nil {
			e.conj = m.intern(j.On)
		}
		m.joinKey(j.Kind, e.conj, e.Children[0], e.Children[1])
	} else {
		m.buf = append(m.buf[:0], e.Fingerprint()...)
	}
	if owner, dup := m.owner(target); dup {
		return owner, false
	}
	return m.insertNew(e, target), true
}

// joinKey leaves in m.buf a join's fingerprint for duplicate detection,
// the condition spelt as its interned conjunct ids in order: exploring wide
// joins prints, and builds, no condition it only revisits.
func (m *Memo) joinKey(kind algebra.JoinKind, conj []int32, l, r GroupID) {
	buf := strconv.AppendInt(append(m.buf[:0], "Join"...), int64(kind), 10)
	for _, id := range conj {
		buf = strconv.AppendInt(append(buf, ','), int64(id), 10)
	}
	buf = strconv.AppendInt(append(buf, "|g"...), int64(l), 10)
	m.buf = strconv.AppendInt(append(buf, "|g"...), int64(r), 10)
}

// owner looks up the group holding the expression whose fingerprint is in
// m.buf, counting a conflict when the caller asserted another.
func (m *Memo) owner(target GroupID) (GroupID, bool) {
	owner, dup := m.exprGroup[string(m.buf)]
	if dup && target != 0 && owner != target {
		m.conflicts++
	}
	return owner, dup
}

// insertNew adds an expression owner just missed, its fingerprint in m.buf.
func (m *Memo) insertNew(e *GroupExpr, target GroupID) GroupID {
	fp := string(m.buf)
	key, keyed := m.keyOf(e)
	var owner GroupID
	if keyed {
		m.buf = key.appendTo(m.buf[:0])
		owner = m.keyGroup[string(m.buf)]
	}
	switch {
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
	if keyed && owner == 0 {
		m.keyGroup[string(m.buf)] = target
		if g.key.atoms.Len() == 0 {
			g.key = logicalKey{atoms: key.atoms.Copy(), conjs: key.conjs.Copy()}
		}
	}
	if g.Props == nil {
		g.Props = m.deriveProps(e)
		g.outCols = algebra.ColSetOf(g.Props.OutCols)
	}
	return target
}

// intern splits a join condition into its interned conjunct ids.
func (m *Memo) intern(on algebra.Scalar) []int32 {
	var out []int32
	for _, s := range algebra.Conjuncts(on) {
		id, ok := m.conjPtr[s]
		if !ok {
			fp := s.Fingerprint()
			if id, ok = m.conjID[fp]; !ok {
				id = int32(len(m.conjFP))
				m.conjID[fp] = id
				m.conjFP, m.conjCols = append(m.conjFP, fp), append(m.conjCols, algebra.ScalarCols(s))
				m.conjS = append(m.conjS, s)
			}
			m.conjPtr[s] = id
		}
		out = append(out, id)
	}
	return out
}

// Conjuncts returns the interned join conjuncts indexed by id. The slice
// is the caller's; the scalars are shared and must not be modified.
func (m *Memo) Conjuncts() []algebra.Scalar { return slices.Clone(m.conjS) }

// AppendConjuncts appends the interned ids of a join expression's
// conjuncts, in On order, to dst.
func (e *GroupExpr) AppendConjuncts(dst []int) []int {
	for _, id := range e.conj {
		dst = append(dst, int(id))
	}
	return dst
}

// ranks orders the interned conjuncts by fingerprint, the canonical order.
func (m *Memo) ranks() []int32 {
	if len(m.conjRank) != len(m.conjFP) {
		order := make([]int32, len(m.conjFP))
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(i, j int) bool { return m.conjFP[order[i]] < m.conjFP[order[j]] })
		m.conjRank = make([]int32, len(order))
		for rank, id := range order {
			m.conjRank[id] = int32(rank)
		}
	}
	return m.conjRank
}

// keyOf computes the logical key of an inner/cross join expression from its
// children's keys, in scratch; ok is false for every other operator.
func (m *Memo) keyOf(e *GroupExpr) (k logicalKey, ok bool) {
	j, isJoin := e.Op.(*algebra.Join)
	if !isJoin || (j.Kind != algebra.JoinInner && j.Kind != algebra.JoinCross) {
		return k, false
	}
	l, r := m.inputKey(e.Children[0]), m.inputKey(e.Children[1])
	m.key.atoms.SetUnion(l.atoms, r.atoms)
	m.key.conjs.SetUnion(l.conjs, r.conjs)
	for _, id := range e.conj {
		m.key.conjs.Add(algebra.ColumnID(id))
	}
	return m.key, true
}

// inputKey is what group id contributes to a join over it: its join key,
// or its own atom bit, handed out the first time it is a join input.
func (m *Memo) inputKey(id GroupID) logicalKey {
	g := m.Groups[id]
	if g.key.atoms.Len() == 0 {
		g.key.atoms = algebra.NewColSet(algebra.ColumnID(m.atoms))
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
			fmt.Fprintf(&b, "  %d.%d %s", g.ID, j+1, e.Op.OpName())
			if len(e.Children) > 0 {
				parts := make([]string, len(e.Children))
				for k, c := range e.Children {
					parts[k] = fmt.Sprintf("%d", c)
				}
				fmt.Fprintf(&b, "(%s)", strings.Join(parts, ","))
			}
			if e.Cost > 0 {
				fmt.Fprintf(&b, " cost=%.5g", e.Cost)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
