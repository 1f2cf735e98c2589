package algebra

import (
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// ColSet is a set of column IDs (or other small non-negative integers, such
// as the memo's atom ordinals), stored densely: bit i%64 of word i/64 is
// member i. The zero value is empty. A set never ends in a zero word, so
// equal sets have equal words. Copies share words: Add and SetUnion work in
// place, so call them only on a set the caller built (every method that
// returns a set returns words of its own). A set costs a bit per id below
// its largest member, so it is for dense ids: bound columns, not the state
// columns the PDW enumerator mints above them.
type ColSet struct{ w []uint64 }

// ColSetOf returns the IDs of a schema's columns.
func ColSetOf(cols []ColumnMeta) ColSet {
	var s ColSet
	for _, c := range cols {
		s.Add(c.ID)
	}
	return s
}

// NewColSet builds a set from IDs.
func NewColSet(ids ...ColumnID) ColSet {
	var s ColSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id, which must not be negative.
func (s *ColSet) Add(id ColumnID) {
	i := int(id) >> 6
	if i >= len(s.w) {
		s.w = append(s.w, make([]uint64, i+1-len(s.w))...)
	}
	s.w[i] |= 1 << (uint(id) & 63)
}

// Has reports membership.
func (s ColSet) Has(id ColumnID) bool {
	i := int(id) >> 6
	return id >= 0 && i < len(s.w) && s.w[i]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of members.
func (s ColSet) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Copy returns the set on words of its own.
func (s ColSet) Copy() ColSet { return ColSet{w: slices.Clone(s.w)} }

// Union returns s ∪ o.
func (s ColSet) Union(o ColSet) ColSet {
	var u ColSet
	u.SetUnion(s, o)
	return u
}

// SetUnion overwrites s with a ∪ b, reusing s's words, which neither a nor b
// may share.
func (s *ColSet) SetUnion(a, b ColSet) {
	if len(a.w) < len(b.w) {
		a, b = b, a
	}
	s.w = append(s.w[:0], a.w...)
	for i, w := range b.w {
		s.w[i] |= w
	}
}

// Intersect returns s ∩ o.
func (s ColSet) Intersect(o ColSet) ColSet {
	n := min(len(s.w), len(o.w))
	for n > 0 && s.w[n-1]&o.w[n-1] == 0 {
		n--
	}
	out := ColSet{w: make([]uint64, n)}
	for i := range out.w {
		out.w[i] = s.w[i] & o.w[i]
	}
	return out
}

// SubsetOf reports whether every member of s is in o.
func (s ColSet) SubsetOf(o ColSet) bool {
	if len(s.w) > len(o.w) { // s's last word is not zero
		return false
	}
	for i, w := range s.w {
		if w&^o.w[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether the sets share a member.
func (s ColSet) Intersects(o ColSet) bool {
	for i := range min(len(s.w), len(o.w)) {
		if s.w[i]&o.w[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls f on every member in ascending order.
func (s ColSet) ForEach(f func(ColumnID)) {
	for i, w := range s.w {
		for ; w != 0; w &= w - 1 {
			f(ColumnID(i<<6 + bits.TrailingZeros64(w)))
		}
	}
}

// Sorted returns the members in ascending order.
func (s ColSet) Sorted() []ColumnID {
	out := make([]ColumnID, 0, s.Len())
	s.ForEach(func(id ColumnID) { out = append(out, id) })
	return out
}

// Words returns the set's words, lowest ids first, read-only.
func (s ColSet) Words() []uint64 { return s.w }

// String renders the set for fingerprints and debug output.
func (s ColSet) String() string {
	parts := make([]string, 0, s.Len())
	s.ForEach(func(id ColumnID) { parts = append(parts, "c"+strconv.Itoa(int(id))) })
	return "{" + strings.Join(parts, ",") + "}"
}
