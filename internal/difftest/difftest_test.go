package difftest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pdwqo"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memoxml"
)

// openAppliance is the shared sf 0.001 appliance of one topology; every
// sweep of this package reuses them.
func openAppliance(t testing.TB, nodes int) *pdwqo.DB {
	t.Helper()
	db, err := SharedTPCH(0.001, nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTPCHSerialVsParallel is the headline differential sweep: every
// adapted TPC-H query, on 1-, 2-, 4-, and 8-node topologies, must produce
// byte-identical plans (cost + DSQL text) and row-identical results under
// Parallelism=1 and Parallelism=8.
func TestTPCHSerialVsParallel(t *testing.T) {
	topologies := []int{1, 2, 4, 8}
	if testing.Short() {
		topologies = []int{4}
	}
	if raceEnabled {
		topologies = []int{8}
	}
	for _, nodes := range topologies {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			db := openAppliance(t, nodes)
			for _, c := range TPCHCases() {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					if err := Diff(db, c, 8); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestFuzzSerialVsParallel runs the seeded random corpus through the same
// differential contract on the 4-node appliance.
func TestFuzzSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz corpus skipped in -short mode")
	}
	db := openAppliance(t, 4)
	for _, c := range FuzzCases(40, 20260805) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := Diff(db, c, 8); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEnumerationDeterminism runs the PDW-side parallel enumerator 50
// times over the same exported MEMO (the widest join of the suite, q05)
// and asserts the cheapest plan is stable: identical cost bits and
// identical DSQL text on every run. The serial front half of the pipeline
// (parse → memo → XML) runs once; each iteration re-decodes the XML and
// re-enumerates under full parallelism, so any schedule-dependence in
// pruning or fresh-column allocation shows up here as a flaky diff.
func TestEnumerationDeterminism(t *testing.T) {
	db := openAppliance(t, 8)
	sql, ok := pdwqo.TPCHQuery("q05")
	if !ok {
		t.Fatal("q05 missing from the TPC-H suite")
	}
	runs := 50
	if testing.Short() || raceEnabled {
		runs = 10
	}
	ref, err := db.Optimize(sql, pdwqo.Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	refCost, refDSQL := ref.Cost(), ref.DSQL.String()
	shell := db.Shell()
	model := cost.NewModel(shell.Topology.ComputeNodes, cost.DefaultLambda())
	outCols := ref.Normalized.OutputCols()
	// The enumerator treats the decoded MEMO as read-only, so one decode
	// serves all runs.
	dec, err := memoxml.Decode(ref.MemoXML, shell)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		plan, err := core.New(dec, shell, model, core.Config{Parallelism: 8}).Optimize()
		if err != nil {
			t.Fatalf("run %d: enumerate: %v", i, err)
		}
		if plan.TotalCost != refCost {
			t.Fatalf("run %d: cost drifted: %v != %v", i, plan.TotalCost, refCost)
		}
		dp, err := dsql.Generate(plan, outCols)
		if err != nil {
			t.Fatalf("run %d: dsql: %v", i, err)
		}
		if d := dp.String(); d != refDSQL {
			t.Fatalf("run %d: DSQL drifted:\n%s", i, firstDiffLine(refDSQL, d))
		}
	}
}

// TestParallelSpeedup checks that the per-node fan-out actually overlaps
// work. Each dispatched node request carries a simulated control→compute
// round trip, so on an 8-node appliance the serial path pays ~8 latencies
// per step where the parallel path pays ~1; wall clock must improve even
// on a single-CPU host. The threshold is deliberately below the ~3×
// measured in bench_test.go to stay robust on loaded CI runners.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("wall-clock assertions are meaningless under the race detector")
	}
	db := openAppliance(t, 8)
	sql, _ := pdwqo.TPCHQuery("q12")
	plan, err := db.Optimize(sql, pdwqo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(par int) time.Duration {
		best := time.Duration(1<<62 - 1)
		cfg := pdwqo.ExecConfig{Parallelism: par, NodeLatency: 5 * time.Millisecond}
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := db.Run(context.Background(), plan, cfg); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial, parallel := measure(1), measure(8)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 1.7 {
		t.Errorf("parallel execution not overlapping latency: %.2fx speedup (serial %v, parallel %v)",
			speedup, serial, parallel)
	}
}
