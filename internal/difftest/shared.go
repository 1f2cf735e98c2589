package difftest

import (
	"sync"

	"pdwqo"
)

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
