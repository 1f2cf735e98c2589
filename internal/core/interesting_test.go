package core_test

import (
	"slices"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/planverify"
)

// TestInterestingIsOnePass checks that one top-down pass of step 04 is the
// fixpoint over TPC-H and the qgen corpus: a second pass adds nothing, and
// the sets satisfy the verifier's closure conditions.
func TestInterestingIsOnePass(t *testing.T) {
	for _, c := range core.EnumCorpus(t) {
		model := cost.NewModel(c.Shell.Topology.ComputeNodes, cost.DefaultLambda())
		o := core.New(c.Dec, c.Shell, model, core.Config{Parallelism: 1})
		if _, err := o.Optimize(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if vs := planverify.CheckInteresting(c.Dec, o.Interesting); len(vs) > 0 {
			t.Errorf("%s: %v", c.Name, vs)
		}
		first := map[int][]algebra.ColumnID{}
		for id := range c.Dec.Groups {
			first[id] = o.Interesting(id)
		}
		o.RederiveInteresting()
		for id := range c.Dec.Groups {
			if again := o.Interesting(id); !slices.Equal(again, first[id]) {
				t.Errorf("%s group %d: second pass %v, first %v", c.Name, id, again, first[id])
			}
		}
	}
}
