package difftest

// Plan-cache metamorphic harness. The oracle is TLP-style agreement
// between independent derivations of the same answer:
//
//   cold    — compile + execute with no cache installed;
//   miss    — first compile through the cache (populates it);
//   hit     — second compile, served from the cache and re-bound;
//   serial  — ExecuteSerial on a single in-memory instance.
//
// cold, miss and hit must be row-identical (the cache is a pure
// memoization layer), and all three must match the serial reference up to
// row order and float summation error. Any divergence means a cached
// template was re-bound into the wrong plan — the one bug class a plan
// cache must never have.

import (
	"fmt"
	"math/rand"
	"strconv"

	"pdwqo"
	"pdwqo/internal/normalize"
	"pdwqo/internal/rowcmp"
	"pdwqo/internal/types"
)

// cacheCapacity is roomy enough that no corpus sweep ever evicts: an
// eviction-induced recompile would silently weaken the hit assertions.
const cacheCapacity = 4096

// CacheDiff runs the cold/miss/hit/serial oracle for one case. It
// installs (and removes) a plan cache on db; parallelism is set to par
// for the distributed executions.
func CacheDiff(db *pdwqo.DB, c Case, par int) error {
	opts := pdwqo.Options{Parallelism: par}

	// Cold reference: no cache installed.
	db.SetPlanCache(-1)
	coldPlan, err := db.Optimize(c.SQL, opts)
	if err != nil {
		return fmt.Errorf("%s: cold optimize: %w", c.Name, err)
	}
	if coldPlan.CacheStatus != "" {
		return fmt.Errorf("%s: cold plan has CacheStatus %q, want empty", c.Name, coldPlan.CacheStatus)
	}
	cold, err := runAt(db, coldPlan, par)
	if err != nil {
		return fmt.Errorf("%s: cold execute: %w", c.Name, err)
	}

	db.SetPlanCache(cacheCapacity)
	defer db.SetPlanCache(-1)

	missPlan, err := db.Optimize(c.SQL, opts)
	if err != nil {
		return fmt.Errorf("%s: miss optimize: %w", c.Name, err)
	}
	if missPlan.CacheStatus != "miss" {
		return fmt.Errorf("%s: first cached optimize has CacheStatus %q, want miss", c.Name, missPlan.CacheStatus)
	}
	miss, err := runAt(db, missPlan, par)
	if err != nil {
		return fmt.Errorf("%s: miss execute: %w", c.Name, err)
	}

	hitPlan, err := db.Optimize(c.SQL, opts)
	if err != nil {
		return fmt.Errorf("%s: hit optimize: %w", c.Name, err)
	}
	if hitPlan.CacheStatus != "hit" {
		return fmt.Errorf("%s: second cached optimize has CacheStatus %q, want hit", c.Name, hitPlan.CacheStatus)
	}
	hit, err := runAt(db, hitPlan, par)
	if err != nil {
		return fmt.Errorf("%s: hit execute: %w", c.Name, err)
	}

	// miss and hit instantiate the same template: byte-identical rows.
	if err := compare(rowcmp.Exact, c.Name, "miss", miss, "hit", hit); err != nil {
		return err
	}
	// cold may have compiled a (legitimately) different plan — slot
	// markers inhibit some constant dedup — so compare relations, not
	// plans: same rows in the same order, or for a TOP query the same
	// count, since another plan may keep other rows tied at the cut.
	if err := compare(rowcmp.Exact.AcrossPlans(c.SQL), c.Name, "cold", cold, "hit", hit); err != nil {
		return err
	}
	return serialAgrees(db, c, hit)
}

// CacheInvalidation certifies the epoch contract for one case: a bumped
// catalog/statistics epoch makes every cached plan unreachable, the next
// compile is a fresh miss, and — the catalog being otherwise unchanged —
// its result matches what the stale template produced.
func CacheInvalidation(db *pdwqo.DB, c Case, par int) error {
	opts := pdwqo.Options{Parallelism: par}
	db.SetPlanCache(cacheCapacity)
	defer db.SetPlanCache(-1)

	if _, err := db.Optimize(c.SQL, opts); err != nil {
		return fmt.Errorf("%s: warm optimize: %w", c.Name, err)
	}
	hitPlan, err := db.Optimize(c.SQL, opts)
	if err != nil {
		return fmt.Errorf("%s: hit optimize: %w", c.Name, err)
	}
	if hitPlan.CacheStatus != "hit" {
		return fmt.Errorf("%s: pre-bump optimize has CacheStatus %q, want hit", c.Name, hitPlan.CacheStatus)
	}
	hit, err := runAt(db, hitPlan, par)
	if err != nil {
		return fmt.Errorf("%s: hit execute: %w", c.Name, err)
	}

	before := db.PlanCache().Metrics()
	db.Shell().BumpEpoch()

	postPlan, err := db.Optimize(c.SQL, opts)
	if err != nil {
		return fmt.Errorf("%s: post-bump optimize: %w", c.Name, err)
	}
	if postPlan.CacheStatus != "miss" {
		return fmt.Errorf("%s: post-bump optimize has CacheStatus %q, want miss (stale plan served?)", c.Name, postPlan.CacheStatus)
	}
	after := db.PlanCache().Metrics()
	if after.Invalidations <= before.Invalidations {
		return fmt.Errorf("%s: epoch bump invalidated nothing (before %d, after %d)",
			c.Name, before.Invalidations, after.Invalidations)
	}
	post, err := runAt(db, postPlan, par)
	if err != nil {
		return fmt.Errorf("%s: post-bump execute: %w", c.Name, err)
	}
	return compare(rowcmp.Exact, c.Name, "pre-bump", hit, "post-bump", post)
}

// CacheChaos certifies that a cache-served plan is exactly as robust as a
// cold one: the re-bound template, run fault-free as the reference and
// then under a seeded random fault plan, either recovers to the
// reference's exact rows or fails with a clean typed StepError, and
// never leaks temp tables.
func CacheChaos(db *pdwqo.DB, c Case, par int, seed int64, maxRetries int) error {
	db.SetPlanCache(cacheCapacity)
	defer db.SetPlanCache(-1)

	if _, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par}); err != nil {
		return fmt.Errorf("%s: warm optimize: %w", c.Name, err)
	}
	plan, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: hit optimize: %w", c.Name, err)
	}
	if plan.CacheStatus != "hit" {
		return fmt.Errorf("%s: chaos plan has CacheStatus %q, want hit", c.Name, plan.CacheStatus)
	}
	return runChaos(db, c, chaosArm{
		ref:  func() (*pdwqo.Result, error) { return runAt(db, plan, par) },
		plan: plan,
		rule: rowcmp.Exact,
	}, par, seed, maxRetries)
}

// ParamVariants derives n same-shape variants of c by perturbing every
// parameterized literal slot (structural literals — TOP/LIMIT counts,
// DATEADD arguments, ORDER BY literals, LIKE patterns, DATE literals —
// are left alone, exactly as the cache key does). Deterministic under seed. Each variant keeps a distinct
// value per slot so the slot pattern, and hence the shape fingerprint,
// is preserved; running them against one warm cache is the aliasing
// oracle: a hit re-bound to the wrong constants diverges from the
// variant's own serial reference.
func ParamVariants(c Case, n int, seed int64) ([]Case, error) {
	pq, err := normalize.Parameterize(c.SQL)
	if err != nil {
		return nil, fmt.Errorf("%s: parameterize: %w", c.Name, err)
	}
	if len(pq.Lits) == 0 {
		return nil, nil
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		texts := make([]string, len(pq.Lits))
		used := map[string]bool{}
		for slot, l := range pq.Lits {
			for {
				t := perturbLiteral(r, l)
				if !used[l.Kind.String()+"\x00"+t] {
					used[l.Kind.String()+"\x00"+t] = true
					texts[slot] = t
					break
				}
			}
		}
		sql, err := pq.Splice(texts)
		if err != nil {
			return nil, fmt.Errorf("%s: splice: %w", c.Name, err)
		}
		out = append(out, Case{Name: fmt.Sprintf("%s-var%02d", c.Name, i), SQL: sql})
	}
	return out, nil
}

// perturbLiteral renders a fresh SQL literal of the same kind as l, and a
// negative number stays negative. Dates stay parseable dates (the binder
// coerces them in comparison context); other strings draw from a pool
// that keeps the text a valid literal.
func perturbLiteral(r *rand.Rand, l normalize.Literal) string {
	switch l.Kind {
	case normalize.LitInt:
		n := int64(r.Intn(5000))
		if l.Val.Int() < 0 {
			n = -1 - n
		}
		return strconv.FormatInt(n, 10)
	case normalize.LitFloat:
		v := l.Val.Float()
		if v == 0 {
			v = 1
		}
		return strconv.FormatFloat(v*(0.1+1.8*r.Float64()), 'g', -1, 64)
	default:
		if _, err := types.ParseDate(l.Val.Str()); err == nil {
			return fmt.Sprintf("'%d-%02d-01'", 1992+r.Intn(7), 1+r.Intn(12))
		}
		pool := []string{"BUILDING", "MACHINERY", "AIR", "SHIP", "1-URGENT", "R", "O", "ASIA", "EUROPE", "CANADA"}
		return "'" + pool[r.Intn(len(pool))] + "'"
	}
}
