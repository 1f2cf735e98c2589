package core

import (
	"fmt"
	"slices"
	"strconv"

	"pdwqo/internal/algebra"
)

// BudgetError reports that PDW-side enumeration stopped because the
// search budget (Config.SearchBudget) was exhausted. The budget is
// checked only at wave barriers — between topological waves of the
// bottom-up enumeration — so the trip point is deterministic and the
// recorded counter is exact at any Parallelism setting: every option
// created by completed waves is counted, and no wave is half-counted.
//
// pdwqo.DB.Optimize never sets Config.SearchBudget, so it never sees a
// BudgetError: it decides the regime from SearchSpace before any memo
// exists. The traced compile replica in bench/ still trips it; the error
// and the barrier check go when that replica does.
type BudgetError struct {
	// Budget is the configured cap on options considered.
	Budget int
	// Considered is the exact number of options created by the waves
	// that completed before the barrier tripped.
	Considered int64
	// Wave is the barrier index that tripped; Waves is the total number
	// of topological waves the enumeration would have run.
	Wave, Waves int
	// Groups is the total number of memo groups under enumeration.
	Groups int
}

// Error renders the exhaustion diagnostics.
func (e *BudgetError) Error() string {
	return fmt.Sprintf(
		"core: search budget exhausted: %d options considered >= budget %d at wave %d/%d (%d groups)",
		e.Considered, e.Budget, e.Wave, e.Waves, e.Groups)
}

// SearchSpace counts the search space of a normalized tree: the weight of
// the memo that exploring it to its fixpoint builds — over the non-root
// groups the root reaches, 1 per group plus 2 per non-leaf expression and
// 1 per leaf — read off the tree before any memo exists. pdwqo.Options'
// SearchBudget is in these units.
//
// What the fixpoint memo holds (memo.Explore). Take a maximal inner/cross-
// join region of the tree over k distinct inputs. Every join group on a set
// S of them holds every ordered split of S: for |S| = 2 by commutation;
// above, a split (Z, W) either has a single input x on the left or, Z
// holding (x, Z∖x) by induction, associates to (x, Join(Z∖x, W)); commuting
// that and associating over every split (u, v) of S∖x gives (u, Join(v,
// x)), and commutation the rest. ruleJoinAssociate builds Join(B, C)
// whether or not a conjunct connects B and C, so the region holds 2ᵏ−k−1
// groups, one per input set (a group has one set), and 3ᵏ−2ᵏ⁺¹+1 join
// expressions, one per split. Every other node of the tree is a group of
// its own expression. Nodes are told apart by operator and children,
// regions by their input set, no finer than the memo tells groups apart,
// and a region sharing an input with one counted before adds nothing.
//
// Other rules (a join pushed below a group-by) only add expressions, so the
// count is at most the weight of the fixpoint memo. A memo budget that
// truncates exploration does not enter it: the count is a function of the
// tree alone. A region of more than 33 inputs counts as one of 33 (about
// 10¹⁶), past any budget.
func SearchSpace(tree *algebra.Tree) int {
	c := treeCount{ids: map[string]int{}, inputs: map[int]bool{}}
	c.node(tree, true)
	return c.weight
}

// treeCount sums the weight of the groups a fixpoint memo of a tree holds.
type treeCount struct {
	ids    map[string]int // node identity → dense id
	inputs map[int]bool   // inputs of the regions counted so far
	weight int
	key    []byte
}

// maxWeight keeps the sum of region weights (3ᵏ grows fast) from overflowing.
const maxWeight = 1 << 60

func reorderable(t *algebra.Tree) bool {
	j, ok := t.Op.(*algebra.Join)
	return ok && (j.Kind == algebra.JoinInner || j.Kind == algebra.JoinCross)
}

// node returns t's identity, adding the weight of its groups the first time
// the identity is seen; the root group weighs nothing.
func (c *treeCount) node(t *algebra.Tree, root bool) int {
	var add int
	if reorderable(t) {
		var inputs []int
		c.regionInputs(t, &inputs)
		slices.Sort(inputs)
		c.key = append(c.key[:0], '*')
		for _, in := range inputs {
			c.key = strconv.AppendInt(append(c.key, ','), int64(in), 10)
		}
		add = c.region(inputs, root)
	} else {
		children := make([]int, len(t.Children))
		for i, ch := range t.Children {
			children[i] = c.node(ch, false)
		}
		if j, ok := t.Op.(*algebra.Join); ok { // what memo.InsertExpr keys an outer join on
			c.key = strconv.AppendInt(append(c.key[:0], "Join"...), int64(j.Kind), 10)
			for _, s := range algebra.Conjuncts(j.On) {
				c.key = append(append(c.key, ','), s.Fingerprint()...)
			}
		} else {
			c.key = append(c.key[:0], t.Op.Fingerprint()...)
		}
		for _, ch := range children {
			c.key = strconv.AppendInt(append(c.key, "|g"...), int64(ch), 10)
		}
		if add = 3; len(children) == 0 {
			add = 2
		}
		if root {
			add = 0
		}
	}
	id, seen := c.ids[string(c.key)]
	if !seen {
		id = len(c.ids)
		c.ids[string(c.key)] = id
		c.weight = min(c.weight+add, maxWeight)
	}
	return id
}

// regionInputs appends the identities of the inputs of t's join region.
func (c *treeCount) regionInputs(t *algebra.Tree, out *[]int) {
	for _, ch := range t.Children {
		if reorderable(ch) {
			c.regionInputs(ch, out)
		} else {
			*out = append(*out, c.node(ch, false))
		}
	}
}

// region is the weight of the join groups of a region over the sorted input
// identities: nothing when an input repeats or was counted in another region.
func (c *treeCount) region(inputs []int, root bool) int {
	for i, in := range inputs {
		if c.inputs[in] || (i > 0 && inputs[i-1] == in) {
			return 0
		}
	}
	for _, in := range inputs {
		c.inputs[in] = true
	}
	k := min(len(inputs), 33) // 3ᵏ overflows soon after; 33 inputs weigh 10¹⁶
	pow3 := 1
	for range k {
		pow3 *= 3
	}
	groups, exprs := 1<<k-k-1, pow3-2<<k+1
	w := groups + 2*exprs
	if root {
		w -= 1 + 2*(1<<k-2)
	}
	return w
}
