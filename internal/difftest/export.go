package difftest

import (
	"sync"

	"pdwqo"
)

// The helpers below are the exported face of this package's comparison
// machinery for sibling certification suites (internal/difftest/serverdiff)
// that live in their own directory so each corpus sweep gets its own test
// binary — and therefore its own -timeout budget — instead of stacking
// onto this package's already-long run.

// CanonRow renders a result row in the canonical form every differential
// comparison in this package uses: each value's String() joined with "|".
func CanonRow(row pdwqo.Row) string { return canonRow(row) }

// DiffResults asserts exact row-for-row equality between two library
// results, exactly as the in-package sweeps do.
func DiffResults(name string, par int, s, p *pdwqo.Result) error {
	return diffResults(name, par, s, p)
}

// LeakedTables scans every node for temp or staging tables; after any
// execution — successful, failed or retried — there must be none.
func LeakedTables(db *pdwqo.DB) []string { return leakedTables(db) }

type tpchKey struct {
	sf    float64
	nodes int
	seed  int64
}

var (
	tpchMu sync.Mutex
	tpchs  = map[tpchKey]*pdwqo.DB{}
)

// SharedTPCH returns this process's one TPC-H appliance for (sf, nodes,
// seed), opened on first use: the sweeps of a test binary compile and run
// on the same few appliances, and a DB serves concurrent compiles and runs.
// A test that changes the catalog, or leaves a plan cache installed, opens
// its own with pdwqo.OpenTPCH.
func SharedTPCH(sf float64, nodes int, seed int64) (*pdwqo.DB, error) {
	tpchMu.Lock()
	defer tpchMu.Unlock()
	key := tpchKey{sf, nodes, seed}
	if db, ok := tpchs[key]; ok {
		return db, nil
	}
	db, err := pdwqo.OpenTPCH(sf, nodes, seed)
	if err != nil {
		return nil, err
	}
	tpchs[key] = db
	return db, nil
}
