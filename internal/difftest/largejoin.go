package difftest

import (
	"fmt"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/qgen"
)

// OpenQGen builds a private appliance for one generated large-join query:
// fresh shell from the query's catalog, rows loaded per distribution,
// statistics computed and merged.
func OpenQGen(q *qgen.Query) (*pdwqo.DB, error) {
	shell, err := q.Shell()
	if err != nil {
		return nil, err
	}
	return pdwqo.Open(shell, q.Data)
}

// LargeJoinDiff certifies the metamorphic contract of the greedy
// large-join regime on one generated query where exhaustive search is
// feasible: the same query compiled exhaustively (no budget) and under a
// forced greedy fallback (SearchBudget=1 trips at the first wave
// barrier) must produce byte-identical result relations — the generated
// heads aggregate integers only, so not even float reassociation is in
// play. Both compilations run with the static plan verifier on. The
// returned value is the smoothed plan-cost ratio greedy/exhaustive
// (see cost.PlanCostRatio); the sweep gates its geometric mean.
func LargeJoinDiff(db *pdwqo.DB, q *qgen.Query, par int) (float64, error) {
	exh, err := db.Optimize(q.SQL, pdwqo.Options{Parallelism: par, Verify: true})
	if err != nil {
		return 0, fmt.Errorf("%s: exhaustive optimize: %w", q.Name, err)
	}
	if exh.Regime != "" {
		return 0, fmt.Errorf("%s: exhaustive arm reported regime %q, want \"\"", q.Name, exh.Regime)
	}
	greedy, err := db.Optimize(q.SQL, pdwqo.Options{Parallelism: par, SearchBudget: 1, Verify: true})
	if err != nil {
		return 0, fmt.Errorf("%s: greedy optimize: %w", q.Name, err)
	}
	if greedy.Regime != "greedy" {
		return 0, fmt.Errorf("%s: SearchBudget=1 arm reported regime %q, want greedy", q.Name, greedy.Regime)
	}
	if err := GreedyPlanShape(q, greedy); err != nil {
		return 0, err
	}
	c := Case{Name: q.Name, SQL: q.SQL}
	gres, err := runAt(db, greedy, par)
	if err != nil {
		return 0, fmt.Errorf("%s: execute greedy plan: %w", q.Name, err)
	}
	eres, err := runAt(db, exh, par)
	if err != nil {
		return 0, fmt.Errorf("%s: execute exhaustive plan: %w", q.Name, err)
	}
	if derr := diffRelations(c, gres, eres); derr != nil {
		return 0, fmt.Errorf("greedy-vs-exhaustive: %w", derr)
	}
	return cost.PlanCostRatio(greedy.Cost(), exh.Cost()), nil
}

// GreedyPlanShape checks the greedy heuristic's structural guarantees on
// a compiled plan: every relation of the generated query is scanned
// exactly once, and no cross join appears — the generated join graphs
// are connected, and the heuristic only cross-joins when no predicate
// edge exists.
func GreedyPlanShape(q *qgen.Query, qp *pdwqo.QueryPlan) error {
	scans := map[string]int{}
	var crossErr error
	seen := map[*core.Option]bool{}
	var walk func(o *core.Option)
	walk = func(o *core.Option) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		switch op := o.Op.(type) {
		case *algebra.Get:
			scans[op.Table.Name]++
		case *algebra.Join:
			if op.Kind == algebra.JoinCross && crossErr == nil {
				crossErr = fmt.Errorf("%s: plan contains a cross join despite a connected predicate graph", q.Name)
			}
		}
		for _, in := range o.Inputs {
			walk(in)
		}
	}
	walk(qp.Distributed.Root)
	if crossErr != nil {
		return crossErr
	}
	for _, name := range q.Shape.Tables {
		if scans[name] != 1 {
			return fmt.Errorf("%s: relation %s scanned %d times, want exactly 1", q.Name, name, scans[name])
		}
	}
	if len(scans) != len(q.Shape.Tables) {
		return fmt.Errorf("%s: plan scans %d relations, query has %d", q.Name, len(scans), len(q.Shape.Tables))
	}
	return nil
}
