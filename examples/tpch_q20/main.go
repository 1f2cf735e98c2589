// Command tpch_q20 reproduces the paper's §4 walk-through (Figure 7): the
// parallel plan for TPC-H Q20. The expected shape — a broadcast of the
// 'forest%'-filtered part table, a partial/final aggregation split around a
// shuffle, and replicated supplier/nation joined without movement — is
// printed as DSQL steps the way Figure 7 lays them out.
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

	sql, ok := pdwqo.TPCHQuery("q20")
	if !ok {
		log.Fatal("q20 missing from the suite")
	}
	fmt.Println("=== TPC-H Q20 (verbatim from the paper) ===")
	fmt.Println(sql)

	plan, err := db.Optimize(sql, pdwqo.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := plan.ExplainText()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== optimizer output ===")
	fmt.Println(out)

	fmt.Println("=== data movement summary (compare with Figure 7) ===")
	for kind, n := range plan.Moves() {
		fmt.Printf("  %-22s ×%d\n", kind, n)
	}

	res, err := db.ExecutePlan(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== executed: %d qualifying suppliers ===\n", len(res.Rows))
	for _, row := range res.Rows {
		fmt.Println(row)
	}
}
