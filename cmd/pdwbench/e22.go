package main

import (
	"fmt"
	"time"

	"pdwqo"
	"pdwqo/internal/difftest"
	"pdwqo/internal/qgen"
)

// --- E22: budget-aware enumeration — the exhaustive/greedy frontier ---

// e22 maps the search-budget frontier on generated large-join queries:
// every topology at 8, 20 and 48 relations plus the 100-relation clique
// headline, each compiled under a descending sequence of enumeration
// budgets with the static verifier on. The table shows where the
// bottom-up enumerator's budget trips — switching the compiler into the
// greedy join-order regime — and what that switch costs in plan quality
// (ratio against the best arm of the same query) and buys in wall clock.
// The metamorphic certification that greedy plans return byte-identical
// results lives in internal/difftest; this experiment records the
// quality/latency frontier.
func e22(db *pdwqo.DB) {
	header("E22", "budget-aware enumeration — plan quality vs search budget, greedy fallback frontier")
	var specs []qgen.Spec
	for _, topo := range qgen.Topologies() {
		for _, n := range []int{8, 20, 48} {
			specs = append(specs, qgen.Spec{Topology: topo, Relations: n, Seed: int64(42 + n)})
		}
	}
	specs = append(specs, qgen.Spec{Topology: qgen.Clique, Relations: 100, Seed: 1741})

	type arm struct {
		budget  int
		regime  string
		options int
		cost    float64
		wall    time.Duration
	}
	fmt.Printf("%-14s %-9s %-10s %-9s %-13s %-7s %s\n",
		"query", "budget", "regime", "options", "cost", "ratio", "time")
	queries, greedyArms, exhaustiveArms := 0, 0, 0
	var worstRatio float64 = 1
	for _, spec := range specs {
		q, err := qgen.Generate(spec)
		if err != nil {
			fatal(err)
		}
		qdb, err := difftest.OpenQGen(q)
		if err != nil {
			fatal(err)
		}
		budgets := []int{20000, 2000, 200}
		if spec.Relations <= 8 {
			budgets = append([]int{0}, budgets...) // unbounded arm where feasible
		}
		var arms []arm
		for _, b := range budgets {
			start := time.Now()
			p, err := qdb.Optimize(q.SQL, pdwqo.Options{SearchBudget: b, Verify: true})
			if err != nil {
				fatal(fmt.Errorf("%s budget=%d: %w", q.Name, b, err))
			}
			regime := p.Regime
			if regime == "" {
				regime = "unbounded"
			}
			arms = append(arms, arm{
				budget: b, regime: regime, options: p.Distributed.OptionsConsidered,
				cost: p.Cost(), wall: time.Since(start),
			})
		}
		best := arms[0].cost
		for _, a := range arms[1:] {
			if a.cost < best {
				best = a.cost
			}
		}
		queries++
		for _, a := range arms {
			r := ratio(a.cost+1, best+1) // smoothed: free plans are common at these sizes
			if r > worstRatio {
				worstRatio = r
			}
			switch a.regime {
			case "greedy":
				greedyArms++
			case "exhaustive", "unbounded":
				exhaustiveArms++
			}
			fmt.Printf("%-14s %-9d %-10s %-9d %-13.6g %-7.2f %s\n",
				q.Name, a.budget, a.regime, a.options, a.cost, r, a.wall.Round(time.Millisecond))
		}
	}
	fmt.Printf("E22 RESULT: ok queries=%d greedy-arms=%d exhaustive-arms=%d worst-ratio=%.2f\n\n",
		queries, greedyArms, exhaustiveArms, worstRatio)
}
