package algebra

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func setFrom(ids []uint8) ColSet {
	s := NewColSet()
	for _, id := range ids {
		s.Add(ColumnID(id))
	}
	return s
}

func TestColSetSubsetReflexive(t *testing.T) {
	f := func(ids []uint8) bool {
		s := setFrom(ids)
		return s.SubsetOf(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColSetUnionIsUpperBound(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := setFrom(a), setFrom(b)
		u := sa.Union(sb)
		return sa.SubsetOf(u) && sb.SubsetOf(u) && slices.Equal(u.Words(), sb.Union(sa).Words())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColSetIntersectsSymmetric(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := setFrom(a), setFrom(b)
		return sa.Intersects(sb) == sb.Intersects(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColSetSortedIsSortedAndComplete(t *testing.T) {
	f := func(a []uint8) bool {
		s := setFrom(a)
		ids := s.Sorted()
		if len(ids) != s.Len() {
			return false
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				return false
			}
		}
		for _, id := range ids {
			if !s.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColSetStringDeterministic(t *testing.T) {
	f := func(a []uint8) bool {
		s1, s2 := setFrom(a), setFrom(a)
		return s1.String() == s2.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// colSetMachine runs a sequence of set operations over three slots of
// ColSet beside a map reference of each, and checks after every operation
// that each slot still agrees with its reference. Any write through shared
// words shows up as a slot that changed without being the destination.
type colSetMachine struct {
	t    *testing.T
	sets [3]ColSet
	refs [3]map[ColumnID]bool
}

// The ids a step draws from: word boundaries, the empty word in between,
// and ids two words apart.
var machineIDs = []ColumnID{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 255, 300}

const machineOps = 8

func runColSetOps(t *testing.T, ops []byte) {
	m := &colSetMachine{t: t}
	for i := range m.refs {
		m.refs[i] = map[ColumnID]bool{}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		m.step(ops[i], ops[i+1])
		m.check()
	}
}

func (m *colSetMachine) step(op, arg byte) {
	dst := int(op/machineOps) % 3
	src := int(arg/16) % 3
	id := machineIDs[int(arg)%len(machineIDs)]
	ref := func(of ...map[ColumnID]bool) map[ColumnID]bool {
		out := map[ColumnID]bool{}
		for _, r := range of {
			for k := range r {
				out[k] = true
			}
		}
		return out
	}
	switch op % machineOps {
	case 0:
		m.sets[dst].Add(id)
		m.refs[dst][id] = true
	case 1:
		m.sets[dst] = NewColSet(id)
		m.refs[dst] = map[ColumnID]bool{id: true}
	case 2:
		m.sets[dst] = m.sets[dst].Union(m.sets[src])
		m.refs[dst] = ref(m.refs[dst], m.refs[src])
	case 3:
		m.sets[dst] = m.sets[src].Union(m.sets[dst])
		m.refs[dst] = ref(m.refs[dst], m.refs[src])
	case 4:
		m.sets[dst] = m.sets[dst].Intersect(m.sets[src])
		out := map[ColumnID]bool{}
		for k := range m.refs[dst] {
			if m.refs[src][k] {
				out[k] = true
			}
		}
		m.refs[dst] = out
	case 5:
		// Mutating a copy must leave the original alone: the next step's
		// Add lands in one of the two, and check compares both.
		m.sets[dst] = m.sets[src].Copy()
		m.refs[dst] = ref(m.refs[src])
		m.sets[dst].Add(id)
		m.refs[dst][id] = true
	case 6:
		a, b := (dst+1)%3, (dst+2)%3
		m.sets[dst].SetUnion(m.sets[a], m.sets[b])
		m.refs[dst] = ref(m.refs[a], m.refs[b])
	case 7:
		m.sets[dst] = ColSet{}
		m.refs[dst] = map[ColumnID]bool{}
	}
}

func (m *colSetMachine) check() {
	t := m.t
	t.Helper()
	for i, s := range m.sets {
		ref := m.refs[i]
		want := make([]ColumnID, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		slices.Sort(want)
		if got := s.Sorted(); !slices.Equal(got, want) {
			t.Fatalf("slot %d: members %v, want %v", i, got, want)
		}
		if s.Len() != len(want) {
			t.Fatalf("slot %d: Len %d, want %d", i, s.Len(), len(want))
		}
		for _, id := range append([]ColumnID{-1, 1000}, machineIDs...) {
			if s.Has(id) != ref[id] {
				t.Fatalf("slot %d: Has(%d) = %v", i, id, s.Has(id))
			}
		}
		if w := s.Words(); len(w) > 0 && w[len(w)-1] == 0 {
			t.Fatalf("slot %d: trailing zero word in %x", i, w)
		}
		parts := make([]string, len(want))
		for j, id := range want {
			parts[j] = "c" + strconv.Itoa(int(id))
		}
		if got := s.String(); got != "{"+strings.Join(parts, ",")+"}" {
			t.Fatalf("slot %d: String %s", i, got)
		}
		for j, o := range m.sets {
			subset, meets := true, false
			for k := range ref {
				subset = subset && m.refs[j][k]
				meets = meets || m.refs[j][k]
			}
			if s.SubsetOf(o) != subset || s.Intersects(o) != meets {
				t.Fatalf("slot %d vs %d: SubsetOf %v Intersects %v, want %v %v", i, j, s.SubsetOf(o), s.Intersects(o), subset, meets)
			}
			if equal := subset && len(ref) == len(m.refs[j]); equal != slices.Equal(s.Words(), o.Words()) {
				t.Fatalf("slot %d vs %d: equal sets %v but words %x / %x", i, j, equal, s.Words(), o.Words())
			}
		}
	}
}

func TestColSetMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for run := 0; run < 300; run++ {
		ops := make([]byte, 2*(1+r.Intn(40)))
		r.Read(ops)
		runColSetOps(t, ops)
	}
}

func TestColSetEmpty(t *testing.T) {
	var zero ColSet
	empty := NewColSet()
	if zero.Len() != 0 || empty.Len() != 0 || len(zero.Words()) != 0 || len(empty.Words()) != 0 {
		t.Fatal("empty sets have no members and no words")
	}
	if !zero.SubsetOf(empty) || zero.Intersects(empty) || zero.String() != "{}" {
		t.Fatal("empty set algebra")
	}
	// Intersecting high words away trims them.
	if w := NewColSet(1, 200).Intersect(NewColSet(1, 300)).Words(); len(w) != 1 {
		t.Fatalf("intersection keeps %d words, want 1", len(w))
	}
}

func FuzzColSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 8, 3, 16, 7, 2, 16})       // adds into each slot, then a union
	f.Add([]byte{0, 12, 5, 13, 0, 2, 4, 0})       // copy of slot 0, mutated; intersection
	f.Add([]byte{1, 6, 9, 9, 6, 0, 3, 32, 15, 0}) // SetUnion, Union, reset
	f.Fuzz(func(t *testing.T, ops []byte) {
		runColSetOps(t, ops)
	})
}
