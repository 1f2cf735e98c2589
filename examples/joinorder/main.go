// Command joinorder demonstrates the paper's §3.2 argument: parallelizing
// the best serial plan is not enough. It optimizes the three-way
// customer⋈orders⋈lineitem join both ways — the full PDW search versus the
// serial-winner baseline — and compares movement costs and plan shapes.
// Orders and lineitem share their partitioning column (orderkey), so the
// full search can exploit the collocated join the serial order may hide.
package main

import (
	"fmt"
	"log"

	"pdwqo"
)

func main() {
	db, err := pdwqo.OpenTPCH(0.005, 8, 42)
	if err != nil {
		log.Fatal(err)
	}

	sql := `SELECT c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	        FROM customer, orders, lineitem
	        WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
	        GROUP BY c_name`

	full, err := db.Optimize(sql, pdwqo.Options{Mode: pdwqo.ModeFull})
	if err != nil {
		log.Fatal(err)
	}
	base, err := db.Optimize(sql, pdwqo.Options{Mode: pdwqo.ModeSerialBaseline})
	if err != nil {
		log.Fatal(err)
	}

	for _, arm := range []struct {
		title string
		plan  *pdwqo.QueryPlan
	}{{"full PDW search", full}, {"parallelized best serial plan (baseline)", base}} {
		out, err := arm.plan.ExplainText()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n%s\n", arm.title, out)
	}

	fmt.Printf("modeled DMS cost: full=%.6g baseline=%.6g (ratio %.2fx)\n",
		full.Cost(), base.Cost(), safeRatio(base.Cost(), full.Cost()))

	// Execute both and compare wall clock on the simulated appliance.
	for name, plan := range map[string]*pdwqo.QueryPlan{"full": full, "baseline": base} {
		res, err := db.ExecutePlan(plan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s moves=%v rows=%d\n", name, plan.Moves(), len(res.Rows))
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	return a / b
}
