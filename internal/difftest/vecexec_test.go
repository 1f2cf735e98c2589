package difftest

import (
	"fmt"
	"testing"
)

// TestVecMatchesRowTPCH runs the full TPC-H case list on the nodes'
// vectorized engine at every topology and checks each result against the
// row engine's oracle.
func TestVecMatchesRowTPCH(t *testing.T) {
	topologies := []int{1, 2, 4, 8}
	if testing.Short() {
		topologies = []int{4}
	}
	if raceEnabled {
		topologies = []int{8}
	}
	for _, nodes := range topologies {
		db := openAppliance(t, nodes)
		for _, c := range TPCHCases() {
			t.Run(fmt.Sprintf("n%d/%s", nodes, c.Name), func(t *testing.T) {
				if err := VecDiff(db, c, 8); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestVecMatchesRowFuzz sweeps two deterministic random-query corpora
// through the vectorized engine on a 4-node appliance and checks each
// result against the oracle; the second corpus (the one
// TestFuzzSerialVsParallel starts with) is numbered on from the first.
func TestVecMatchesRowFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz corpus skipped in -short")
	}
	db := openAppliance(t, 4)
	cases := append(FuzzCases(40, 20260807), FuzzCases(40, 20260805)...)
	for i, c := range cases {
		c.Name = fmt.Sprintf("fuzz-%03d", i)
		t.Run(c.Name, func(t *testing.T) {
			if err := VecDiff(db, c, 8); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVecChaosTPCH injects seeded faults into vectorized runs and checks
// recovery against the row engine's fault-free oracle.
func TestVecChaosTPCH(t *testing.T) {
	cases := TPCHCases()
	if testing.Short() {
		cases = cases[:6]
	}
	db := openAppliance(t, 4)
	for i, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if err := VecChaos(db, c, 8, int64(9000+i), 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}
