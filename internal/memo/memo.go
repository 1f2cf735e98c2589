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
	"sort"
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

	// conj is a join's condition as interned conjuncts in On order, set
	// when the expression is inserted; rules and indexes read it, not On.
	conj []conjunct
}

// conjunct is one conjunct of a join condition: its interned id and the
// scalar it was read from, which a rule puts in the conditions it builds.
type conjunct struct {
	id int32
	s  algebra.Scalar
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

// has reports whether i is in the set.
func (b bitset) has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

// subsetOf reports whether every member of b is in c.
func (b bitset) subsetOf(c bitset) bool {
	for i, w := range b {
		if w != 0 && (i >= len(c) || w&^c[i] != 0) {
			return false
		}
	}
	return true
}

// unionOf overwrites dst with b ∪ c, neither of which may share its words.
func (dst bitset) unionOf(b, c bitset) bitset {
	if len(b) < len(c) {
		b, c = c, b
	}
	dst = append(dst[:0], b...)
	for i, w := range c {
		dst[i] |= w
	}
	return dst
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
	ID      GroupID
	Exprs   []*GroupExpr
	Props   *LogicalProps
	outCols bitset // Props.OutCols by column id

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
	key       logicalKey         // scratch keyOf builds its result in

	// Join conjuncts are interned: by pointer (rules pass the same
	// scalars around) and, behind that, by fingerprint.
	conjPtr  map[algebra.Scalar]int32
	conjID   map[string]int32
	conjFP   []string      // id → fingerprint
	conjCols []bitset      // id → columns referenced, by column id
	conjRank []int32       // id → position in fingerprint order (ranks)
	pool     [2][]conjunct // ruleJoinAssociate's scratch: the two conditions,
	cols     bitset        // and the columns of B⋈C

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

	// decided is OptimizeUntil's predicate, asked when created reaches
	// nextAsk; stopped records the first yes, which ends exploration.
	decided func(*Memo) bool
	nextAsk int
	stopped bool
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

// Decided reports whether OptimizeUntil's predicate said yes.
func (m *Memo) Decided() bool { return m.stopped }

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
	op, algo := e.Op, ""
	if p, ok := op.(*algebra.Phys); ok {
		op, algo = p.Of, p.Algo
	}
	if j, ok := op.(*algebra.Join); ok {
		if e.conj == nil {
			e.conj = m.intern(j.On)
		}
		m.joinKey(algo, j.Kind, e.conj, e.Children[0], e.Children[1])
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
func (m *Memo) joinKey(algo string, kind algebra.JoinKind, conj []conjunct, l, r GroupID) {
	buf := append(m.buf[:0], algo...)
	buf = strconv.AppendInt(append(buf, "Join"...), int64(kind), 10)
	for _, c := range conj {
		buf = strconv.AppendInt(append(buf, ','), int64(c.id), 10)
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
		if g.key.atoms == nil {
			g.key = logicalKey{atoms: append(bitset(nil), key.atoms...), conjs: append(bitset(nil), key.conjs...)}
		}
	}
	if g.Props == nil && !e.Physical {
		g.Props = m.deriveProps(e)
		for _, c := range g.Props.OutCols {
			g.outCols = g.outCols.set(int(c.ID))
		}
	}
	return target
}

// intern splits a join condition into its interned conjuncts.
func (m *Memo) intern(on algebra.Scalar) []conjunct {
	var out []conjunct
	for _, s := range algebra.Conjuncts(on) {
		id, ok := m.conjPtr[s]
		if !ok {
			fp := s.Fingerprint()
			if id, ok = m.conjID[fp]; !ok {
				id = int32(len(m.conjFP))
				m.conjID[fp] = id
				var cols bitset
				for c := range algebra.ScalarCols(s) {
					cols = cols.set(int(c))
				}
				m.conjFP, m.conjCols = append(m.conjFP, fp), append(m.conjCols, cols)
			}
			m.conjPtr[s] = id
		}
		out = append(out, conjunct{id, s})
	}
	return out
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
	m.key.atoms = m.key.atoms.unionOf(l.atoms, r.atoms)
	m.key.conjs = m.key.conjs.unionOf(l.conjs, r.conjs)
	for _, c := range e.conj {
		m.key.conjs = m.key.conjs.set(int(c.id))
	}
	return m.key, true
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

// askEvery is how many expressions are created between two questions to
// Memo.decided: a count, not a clock, so every run decides on the same memo.
const askEvery = 64

// budgetLeft reports whether exploration may create more expressions: the
// budget is not spent and decided, asked when it is due, has not said yes.
func (m *Memo) budgetLeft() bool {
	if m.Budget > 0 && m.created >= m.Budget {
		m.exhausted = true
		return false
	}
	if m.decided != nil && m.created >= m.nextAsk {
		m.nextAsk = m.created + askEvery
		m.stopped = m.decided(m)
	}
	return !m.stopped
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
