package engine

import (
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/dsql"
	"pdwqo/internal/normalize"
	"pdwqo/internal/types"
)

// boundPlan compiles sql through literal parameterization and binds the
// template to sql's own literals, as a plan-cache hit does.
func boundPlan(t testing.TB, a *Appliance, sql string) *dsql.Plan {
	t.Helper()
	pq, err := normalize.Parameterize(sql)
	if err != nil {
		t.Fatal(err)
	}
	return slottedPlanFor(t, a, sql, pq).Bind(pq.BindTexts())
}

// TestRebindCopiesOnlySlottedPaths: filling new arguments into a compiled
// tree copies exactly the nodes above a slotted constant, leaves the
// published tree as it was, and keeps every copy's memoized schema.
func TestRebindCopiesOnlySlottedPaths(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	p := boundPlan(t, a, `SELECT o_orderkey, l_quantity FROM orders JOIN lineitem ON o_orderkey = l_orderkey WHERE o_custkey = 7 AND l_shipdate >= '1995-01-01'`)
	r := &run{a: a, plan: p, session: a.Shell.Overlay()}
	step := &p.Steps[len(p.Steps)-1]
	tree, outcome, err := r.compileStep(step)
	if err != nil || outcome != compileMiss {
		t.Fatalf("compile: %q, %v", outcome, err)
	}
	text, args, _ := step.Template()
	if len(args) != 2 {
		t.Fatalf("template %q: args %v, want 2", text, args)
	}
	before := tree.String()
	next := []types.Value{types.NewInt(8), types.NewString("1996-02-29")}
	got := rebindTree(tree, next)
	if tree.String() != before {
		t.Fatalf("rebinding changed the published tree:\n%s\nwas\n%s", tree, before)
	}
	slotted := 0
	var walk func(old, cur *algebra.Tree)
	walk = func(old, cur *algebra.Tree) {
		has := false
		algebra.VisitSlotted(old, func(*algebra.Const) { has = true })
		if has == (old == cur) {
			t.Errorf("%s: holds a slot %v, copied %v", old.Op.OpName(), has, old != cur)
		}
		if has {
			slotted++
		}
		algebra.VisitSlotted(cur, func(c *algebra.Const) {
			if want := algebra.BoundValue(next[c.Param-1], c.Val.Kind()); c.Val.Kind() != want.Kind() || !types.Equal(c.Val, want) {
				t.Errorf("slot %d holds %v, want %v", c.Param-1, c.Val, want)
			}
		})
		if cur.OutputCols() == nil {
			t.Errorf("%s copy lost its schema", cur.Op.OpName())
		}
		for i := range old.Children {
			walk(old.Children[i], cur.Children[i])
		}
	}
	walk(tree, got)
	if slotted == 0 {
		t.Fatal("no node held a slot")
	}
}

// BenchmarkStepCompile times the node-side compile of a point query's one
// step: "hit" reuses the published tree and fills in the arguments, "cold"
// bumps the catalog epoch first, so every compile parses, binds and
// normalizes the template.
func BenchmarkStepCompile(b *testing.B) {
	a, _ := buildAppliance(b, 4)
	p := boundPlan(b, a, `SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 7 AND o_orderdate >= '1995-01-01'`)
	r := &run{a: a, plan: p, session: a.Shell.Overlay()}
	step := &p.Steps[len(p.Steps)-1]
	for _, bc := range []struct {
		name string
		cold bool
		want string
	}{{"hit", false, compileHit}, {"cold", true, compileMiss}} {
		b.Run(bc.name, func(b *testing.B) {
			if _, _, err := r.compileStep(step); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.cold {
					a.Shell.BumpEpoch()
				}
				if _, outcome, err := r.compileStep(step); err != nil || outcome != bc.want {
					b.Fatalf("outcome %q, %v", outcome, err)
				}
			}
		})
	}
}
