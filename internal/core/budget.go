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
// Callers (pdwqo.DB.Optimize) treat a BudgetError as the signal to
// switch regimes: re-plan the query with the greedy join-order heuristic
// over a fixed memo instead of exhaustive enumeration.
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

// TreeLowerBound returns a lower bound on the options a ModeFull
// enumeration of memo.OptimizeSeeded(shell, tree, memoBudget, seeds...) will
// have considered when it reaches its last budget barrier, read off the
// normalized tree before any memo exists. A caller holding SearchBudget ≤
// bound knows the enumeration would end in a *BudgetError and can go
// straight to the greedy regime. The proof has two halves.
//
// What the enumerator considers (enumerate.go): every finished group keeps
// a replicated and a single-node option (enforce derives both kinds from
// any option, and the pruner keeps the best of class R and of class S under
// every Config), so a non-leaf logical expression creates at least two
// options, a leaf one, and a group's enforcer step at least one. The root
// reaches every group, so it is alone in the last wave and every other group
// is finished at the last barrier: the memo's "weight" — over the non-root
// groups the root reaches, 1 + 2 per non-leaf expression + 1 per leaf — is
// at most the counter there.
//
// What the memo weighs. Exploration ends in one of two ways (memo.Explore):
//
//  1. At a fixpoint. Take a maximal inner/cross-join region of the tree over
//     k distinct inputs. Every join group on a set S of them holds every
//     ordered split of S: for |S| = 2 by commutation; above, a split
//     (Z, W) either has a single input x on the left or, Z holding (x, Z∖x)
//     by induction, associates to (x, Join(Z∖x, W)); commuting that and
//     associating over every split (u, v) of S∖x gives (u, Join(v, x)), and
//     commutation the rest. ruleJoinAssociate builds Join(B, C) whether or
//     not a conjunct connects B and C, so the region holds 2ᵏ−k−1 groups,
//     one per input set (a group has one set), and 3ᵏ−2ᵏ⁺¹+1 join
//     expressions, one per split. Every other node of the tree is a group of
//     its own expression. Nodes are told apart by operator and children,
//     regions by their input set, no finer than the memo tells groups apart,
//     and a region sharing an input with one counted before adds nothing.
//  2. At the memo budget B, having created at least B expressions. Every
//     one is in a group the root reaches: a new group is made only for a
//     child of the next expression inserted, with no budget check between,
//     and a duplicate of that expression references it already. A leaf
//     group holds only its leaf, so each expression outside the root group
//     weighs at least 2. When neither the tree's root nor a seed's is an
//     inner/cross join, no rule adds to the root group, which holds the
//     tree's root and at most one expression per seed: the weight is at
//     least 2·(B − 1 − seeds).
//
// The bound is the fixpoint count, or under a budget the smaller of the
// two. Seeds only add expressions to reachable groups. ModeSerialBaseline
// enumerates one expression per group and is not covered; the ablation
// switches (DisableAggSplit, DisableInterestingRetention) only remove
// options the bound never counted.
func TreeLowerBound(tree *algebra.Tree, memoBudget int, seeds ...*algebra.Tree) int {
	c := treeCount{ids: map[string]int{}, inputs: map[int]bool{}}
	c.node(tree, true)
	if memoBudget <= 0 {
		return c.weight
	}
	truncated := 0
	if !reorderable(tree) && !slices.ContainsFunc(seeds, reorderable) {
		truncated = 2 * (memoBudget - 1 - len(seeds))
	}
	return max(min(c.weight, truncated), 0)
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
