package algebra

// Slot survival: the one rule that decides whether a tree compiled from
// a parameter-marker template may serve other literal values. Its one
// caller, normalize.Compile, serves the plan cache's template on the
// control node and each step on the compute nodes: it binds the markers
// with Binder.SetArgs, counts the slotted constants of the bound tree
// (SlotUses) and checks the normalized tree against that count
// (SurvivingSlots).

import "pdwqo/internal/types"

// SlotUses counts, per slot of an n-slot argument vector, the slotted
// constants of t. Counted on the tree the binder returned, it is what
// SurvivingSlots checks the normalized tree against.
func SlotUses(t *Tree, n int) []int {
	if n == 0 {
		return nil
	}
	uses := make([]int, n)
	VisitSlotted(t, func(c *Const) { uses[c.Param-1]++ })
	return uses
}

// SurvivingSlots reports the slots the template's markers bound to, in
// ascending order, and whether the normalized tree keeps every one of
// their constants, each holding exactly the value its marker bound to.
// A slot folded, merged or pruned away, or a value rewritten, means the
// tree depends on the literal values.
func SurvivingSlots(tree *Tree, args []types.Value, uses []int) ([]int, bool) {
	kept := make([]int, len(uses))
	exact := true
	VisitSlotted(tree, func(c *Const) {
		p := c.Param - 1
		if p >= len(args) {
			exact = false
			return
		}
		if want := BoundValue(args[p], c.Val.Kind()); c.Val.Kind() != want.Kind() || !types.Equal(c.Val, want) {
			exact = false
			return
		}
		kept[p]++
	})
	var slots []int
	for s, n := range uses {
		if kept[s] < n {
			return nil, false
		}
		if n > 0 {
			slots = append(slots, s)
		}
	}
	return slots, exact
}

// BoundValue is the constant an argument binds to where a constant of
// kind k stands: a string argument compared with a date became a date.
func BoundValue(arg types.Value, k types.Kind) types.Value {
	if k == types.KindDate && arg.Kind() == types.KindString {
		if d, err := types.ParseDate(arg.Str()); err == nil {
			return d
		}
	}
	return arg
}

// VisitSlotted calls f on every slotted constant of the tree, subquery
// inputs included.
func VisitSlotted(t *Tree, f func(*Const)) {
	VisitTree(t, func(n *Tree) {
		for _, s := range OperatorScalars(n.Op) {
			VisitScalar(s, func(e Scalar) {
				if c, ok := e.(*Const); ok && c.Param > 0 {
					f(c)
				}
			})
		}
	})
}
