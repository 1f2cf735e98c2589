// Command quickstart shows the minimal end-to-end flow: open a simulated
// PDW appliance over generated TPC-H data, optimize a join query, inspect
// the distributed plan, and execute it.
package main

import (
	"fmt"
	"log"

	"pdwqo"
)

func main() {
	// An 8-node appliance at scale factor 0.005 (~7.5k orders).
	db, err := pdwqo.OpenTPCH(0.005, 8, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's §2.4 example: customer is hash-partitioned on c_custkey,
	// orders on o_orderkey, so the join needs data movement.
	sql := `SELECT c_custkey, o_orderdate
	        FROM Orders, Customer
	        WHERE o_custkey = c_custkey AND o_totalprice > 100`

	plan, err := db.Optimize(sql, pdwqo.Options{})
	if err != nil {
		log.Fatal(err)
	}
	out, err := plan.ExplainText()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== distributed plan and DSQL steps ===")
	fmt.Println(out)

	res, err := db.ExecutePlan(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== result: %d rows, first 5 ===\n", len(res.Rows))
	for i, row := range res.Rows {
		if i == 5 {
			break
		}
		fmt.Println(row)
	}

	// The serial reference executor validates the distributed result.
	ref, err := db.ExecuteSerial(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial reference agrees on row count: %v (%d rows)\n",
		len(ref.Rows) == len(res.Rows), len(ref.Rows))
}
