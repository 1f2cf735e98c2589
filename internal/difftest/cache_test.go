package difftest

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pdwqo"
)

// TestCacheMetamorphicTPCH is the headline plan-cache sweep: every
// adapted TPC-H query on every topology must produce byte-identical rows
// from a cold compile, a cache-populating miss, and a re-bound cache hit,
// and all three must agree with the single-instance serial reference.
func TestCacheMetamorphicTPCH(t *testing.T) {
	topologies := []int{1, 2, 4, 8}
	if testing.Short() {
		topologies = []int{4}
	}
	if raceEnabled {
		topologies = []int{8}
	}
	cases := TPCHCases()
	if raceEnabled {
		// The race detector multiplies execution cost ~10x and the oracle
		// executes each case four times; sample the corpus to keep the
		// package inside the test timeout (the full sweep runs without
		// -race on the main test lane).
		cases = sample(cases, 3)
	}
	for _, nodes := range topologies {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes-%d", nodes), func(t *testing.T) {
			db := openAppliance(t, nodes)
			for _, c := range cases {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					if err := CacheDiff(db, c, 8); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// sample keeps every stride-th case, always including the first.
func sample(cases []Case, stride int) []Case {
	var out []Case
	for i := 0; i < len(cases); i += stride {
		out = append(out, cases[i])
	}
	return out
}

// TestCacheMetamorphicFuzz runs the seeded random corpus through the
// cold/miss/hit/serial oracle on the 4-node appliance.
func TestCacheMetamorphicFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz corpus skipped in -short mode")
	}
	db := openAppliance(t, 4)
	for _, c := range FuzzCases(40, 20260805) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := CacheDiff(db, c, 8); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCacheInvalidation certifies the epoch contract across a mixed
// corpus slice: after a DDL/stats epoch bump no cached plan is served,
// and the recompiled plan reproduces the pre-bump rows.
func TestCacheInvalidation(t *testing.T) {
	db := openAppliance(t, 4)
	cases := append(TPCHCases()[:6], FuzzCases(6, 20260807)...)
	if raceEnabled {
		cases = sample(cases, 2)
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if err := CacheInvalidation(db, c, 8); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCacheChaos executes cache-served plans under seeded random fault
// plans: a re-bound template must be exactly as robust as a cold plan —
// recover to the fault-free answer, or fail with a typed StepError, and
// never leak temp tables.
func TestCacheChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	db := openAppliance(t, 4)
	for i, c := range TPCHCases()[:8] {
		i, c := i, c
		t.Run(c.Name, func(t *testing.T) {
			retries := 3
			if i%3 == 2 {
				retries = 0
			}
			if err := CacheChaos(db, c, 8, int64(17000+i), retries); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCacheParamVariants is the aliasing oracle: same-shape queries with
// different constants share one cached template, and every re-bound
// instantiation must match its own serial reference — a stale or
// wrongly-bound constant diverges immediately. The sweep asserts the
// variants actually hit the cache, so the oracle is known to exercise
// the re-binding path rather than silently compiling cold.
func TestCacheParamVariants(t *testing.T) {
	db := openAppliance(t, 4)
	db.SetPlanCache(cacheCapacity)
	defer db.SetPlanCache(-1)

	bases := append(TPCHCases()[:4], FuzzCases(10, 20260808)...)
	perBase := 4
	if raceEnabled {
		bases = sample(bases, 2)
		perBase = 2
	}
	var hits int64
	for _, base := range bases {
		base := base
		t.Run(base.Name, func(t *testing.T) {
			variants, err := ParamVariants(base, perBase, int64(len(base.SQL)))
			if err != nil {
				t.Fatal(err)
			}
			if len(variants) == 0 {
				t.Skip("no parameterizable literals")
			}
			// Warm the cache with the base query's template.
			if _, err := db.Optimize(base.SQL, pdwqo.Options{Parallelism: 8}); err != nil {
				t.Fatalf("warm optimize: %v", err)
			}
			for _, v := range variants {
				plan, err := db.Optimize(v.SQL, pdwqo.Options{Parallelism: 8})
				if err != nil {
					t.Fatalf("%s: optimize: %v", v.Name, err)
				}
				if plan.CacheStatus == "hit" {
					hits++
				}
				res, err := runAt(db, plan, 8)
				if err != nil {
					t.Fatalf("%s: execute: %v", v.Name, err)
				}
				if err := serialAgrees(db, v, res); err != nil {
					t.Errorf("cache status %q: %v", plan.CacheStatus, err)
				}
			}
		})
	}
	if hits == 0 {
		t.Error("no variant ever hit the cache; the aliasing oracle exercised nothing")
	}
}

// TestCacheStampedeDB is the end-to-end (-race) stampede: 64 goroutines
// optimize through one shared DB-level cache — every goroutine hammers a
// hot query shape with its own distinct constant while a quarter also
// rotate through distinct shapes — and a writer concurrently bumps the
// catalog epoch. Each caller must get a plan bound to its own constant
// (never another caller's — the aliasing/staleness contract), and the
// singleflight must keep total compilations well below total requests.
func TestCacheStampedeDB(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	db.SetPlanCache(cacheCapacity)
	goroutines, rounds := 64, 20
	if raceEnabled {
		rounds = 8
	}
	shapes := []string{
		"SELECT c_custkey FROM customer WHERE c_acctbal > %d",
		"SELECT c_custkey FROM customer WHERE c_acctbal > %d AND c_nationkey < 99",
		"SELECT o_orderkey FROM orders WHERE o_totalprice < %d",
		"SELECT s_suppkey FROM supplier WHERE s_acctbal > %d AND s_nationkey < 99",
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Throttled: a bump between every pair of requests would turn the
		// whole run into misses and starve the sharing assertion below.
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				db.Shell().BumpEpoch()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				shape := shapes[0]
				if g%4 == 0 && r%2 == 1 {
					shape = shapes[1+(g+r)%(len(shapes)-1)]
				}
				// A per-(goroutine, round) constant: if any caller is served
				// a plan bound to a different caller's literal, the text
				// check below catches it.
				lit := 100000 + g*1000 + r
				sql := fmt.Sprintf(shape, lit)
				plan, err := db.Optimize(sql, pdwqo.Options{Parallelism: 2})
				if err != nil {
					t.Errorf("g%d r%d: %v", g, r, err)
					return
				}
				switch plan.CacheStatus {
				case "hit", "shared", "miss":
				default:
					t.Errorf("g%d r%d: CacheStatus = %q", g, r, plan.CacheStatus)
					return
				}
				if text := plan.DSQL.String(); !strings.Contains(text, fmt.Sprint(lit)) {
					t.Errorf("g%d r%d (%s): plan not bound to this caller's literal %d:\n%s",
						g, r, plan.CacheStatus, lit, text)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()

	m := db.PlanCache().Metrics()
	total := int64(goroutines * rounds)
	t.Logf("metrics after %d requests: %+v", total, m)
	if m.Hits+m.Shared == 0 {
		t.Error("stampede produced no cache sharing at all")
	}
	if m.Compiles >= total {
		t.Errorf("singleflight ineffective: %d compiles for %d requests", m.Compiles, total)
	}
}
