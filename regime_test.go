package pdwqo_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pdwqo"
	"pdwqo/internal/core"
	"pdwqo/internal/difftest"
	"pdwqo/internal/qgen"
	"pdwqo/internal/tpch"
)

type regimeCase struct {
	name, sql string
	db        *pdwqo.DB
}

func openSpec(t *testing.T, spec qgen.Spec) regimeCase {
	t.Helper()
	q, err := qgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	db, err := difftest.OpenQGen(q)
	if err != nil {
		t.Fatal(err)
	}
	return regimeCase{q.Name, q.SQL, db}
}

// TestRegimeIsOneOfTwoPlans holds the one regime decision to its two
// outcomes, for every TPC-H query and every small generated join at each
// rung of a budget ladder, and for the whole generated corpus (up to 100
// relations) at the two budgets the difftest suites pin regimes under: a
// budgeted compile is greedy iff the tree's search space meets the budget,
// and its DSQL text and cost are then the SearchBudget: 1 compile's, and
// otherwise the unbudgeted compile's. -short drops two rungs and the joins
// above 24 relations.
func TestRegimeIsOneOfTwoPlans(t *testing.T) {
	tpchDB, err := difftest.SharedTPCH(0.002, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		regimeCase
		budgets []int
	}
	ladder := []int{1, 200, 2000, 5000, 20000}
	if testing.Short() {
		ladder = []int{1, 2000, 20000}
	}
	var runs []run
	for _, q := range tpch.Queries() {
		runs = append(runs, run{regimeCase{q.Name, q.SQL, tpchDB}, ladder})
	}
	for _, spec := range qgen.Corpus() {
		switch {
		case spec.Relations <= 10:
			runs = append(runs, run{openSpec(t, spec), ladder})
		case !testing.Short() || spec.Relations <= 24:
			runs = append(runs, run{openSpec(t, spec), []int{1, 20000}})
		}
	}
	greedyRuns, exhaustiveRuns := 0, 0
	for _, r := range runs {
		compile := func(opts pdwqo.Options) *pdwqo.QueryPlan {
			t.Helper()
			plan, err := r.db.Optimize(r.sql, opts)
			if err != nil {
				t.Fatalf("%s budget %d: %v", r.name, opts.SearchBudget, err)
			}
			return plan
		}
		greedy := compile(pdwqo.Options{SearchBudget: 1})
		space := core.SearchSpace(greedy.Normalized)
		var exhaustive *pdwqo.QueryPlan // compiled only if a rung needs it
		for _, budget := range r.budgets {
			got := compile(pdwqo.Options{SearchBudget: budget})
			want, wantRegime, wantHeader := greedy, "greedy", fmt.Sprintf("regime=greedy (search space %d ≥ budget %d)", space, budget)
			if space < budget {
				if exhaustive == nil {
					exhaustive = compile(pdwqo.Options{})
				}
				want, wantRegime, wantHeader = exhaustive, "exhaustive", "regime=exhaustive"
				exhaustiveRuns++
			} else {
				greedyRuns++
			}
			if got.Regime != wantRegime || got.DSQL.String() != want.DSQL.String() || got.Cost() != want.Cost() {
				t.Errorf("%s budget %d, search space %d: regime %q cost %v, want %s cost %v, same DSQL %v",
					r.name, budget, space, got.Regime, got.Cost(), wantRegime, want.Cost(), got.DSQL.String() == want.DSQL.String())
			}
			if header, _, _ := strings.Cut(explainOf(t, got), "\n"); !strings.Contains(header, wantHeader) {
				t.Errorf("%s budget %d: EXPLAIN header %q does not say %q", r.name, budget, header, wantHeader)
			}
		}
	}
	t.Logf("%d greedy, %d exhaustive", greedyRuns, exhaustiveRuns)
	if greedyRuns == 0 || exhaustiveRuns == 0 {
		t.Errorf("the ladder must reach both outcomes: %d greedy, %d exhaustive", greedyRuns, exhaustiveRuns)
	}
}

func explainOf(t *testing.T, plan *pdwqo.QueryPlan) string {
	t.Helper()
	text, err := plan.ExplainText()
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// spanAttr is the first value of an integer attribute on a span of the
// given name, or -1.
func spanAttr(tr *pdwqo.Tracer, span, key string) int64 {
	for _, sp := range tr.Spans() {
		if sp.Name != span {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Val
			}
		}
	}
	return -1
}

// spanCount counts a trace's spans by name.
func spanCount(tr *pdwqo.Tracer) map[string]int {
	count := map[string]int{}
	for _, sp := range tr.Spans() {
		count[sp.Name]++
	}
	return count
}

// TestLargeJoinExportsOnce traces DB.Optimize of the eight
// compile_largejoin queries (bench/compile.go's specs and budget): the
// search space of each meets the budget, so the trace holds no memo span
// (no exploratory memo was built), one memoxml-encode and one
// memoxml-decode span — the fixed memo's, under 256 KB — and a
// greedy-fallback span carrying the count.
func TestLargeJoinExportsOnce(t *testing.T) {
	const budget, nodes, dataSeed = 5000, 8, 42
	for _, topo := range qgen.Topologies() {
		for _, n := range []int{10, 30} {
			c := openSpec(t, qgen.Spec{Topology: topo, Relations: n, Seed: dataSeed*1000 + int64(n), Nodes: nodes})
			tr := pdwqo.NewTracer()
			plan, err := c.db.Optimize(c.sql, pdwqo.Options{Verify: true, SearchBudget: budget, Tracer: tr})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if plan.Regime != "greedy" {
				t.Errorf("%s: regime %q, want greedy", c.name, plan.Regime)
			}
			space := core.SearchSpace(plan.Normalized)
			if got := spanAttr(tr, "greedy-fallback", "search_space"); got != int64(space) || space < budget {
				t.Errorf("%s: greedy-fallback search_space=%d, tree's %d, want it ≥ %d", c.name, got, space, budget)
			}
			if b := spanAttr(tr, "memoxml-encode", "bytes"); b <= 0 || b >= 256<<10 {
				t.Errorf("%s: exported %d bytes, want under 256 KB", c.name, b)
			}
			count := spanCount(tr)
			if count["memoxml-encode"] != 1 || count["memoxml-decode"] != 1 || count["greedy-fallback"] != 1 {
				t.Errorf("%s: %d encode, %d decode, %d greedy-fallback spans, want one of each",
					c.name, count["memoxml-encode"], count["memoxml-decode"], count["greedy-fallback"])
			}
			if count["memo"] != 0 {
				t.Errorf("%s: %d memo spans: an exploratory memo was built for a query the budget sends to greedy", c.name, count["memo"])
			}
			if n := tr.Counters().Get("optimize.greedy_fallback"); n != 1 {
				t.Errorf("%s: counter greedy_fallback=%d, want 1", c.name, n)
			}
			header, _, _ := strings.Cut(explainOf(t, plan), "\n")
			if want := fmt.Sprintf("regime=greedy (search space %d ≥ budget %d)", space, budget); !strings.Contains(header, want) {
				t.Errorf("%s: EXPLAIN header %q does not say %q", c.name, header, want)
			}
		}
	}
}

// TestRegimeShortcutArms holds every option arm, both modes included, to
// the count: at a search budget equal to the tree's search space the
// compile plans the SearchBudget: 1 compile's greedy plan without building
// an exploratory memo, and at one above it explores and plans what the
// unbudgeted compile plans, with no greedy-fallback span.
func TestRegimeShortcutArms(t *testing.T) {
	c := openSpec(t, qgen.Spec{Topology: qgen.Star, Relations: 6, Seed: 42006, Nodes: 8})
	arms := []struct {
		name string
		opts pdwqo.Options
	}{
		{"full", pdwqo.Options{}},
		{"no-agg-split", pdwqo.Options{DisableAggSplit: true}},
		{"no-interesting-retention", pdwqo.Options{DisableInterestingRetention: true}},
		{"seeded", pdwqo.Options{SeedCollocated: true}},
		{"serial-baseline", pdwqo.Options{Mode: pdwqo.ModeSerialBaseline}},
	}
	for _, arm := range arms {
		compile := func(budget int, tr *pdwqo.Tracer) *pdwqo.QueryPlan {
			t.Helper()
			opts := arm.opts
			opts.SearchBudget, opts.Tracer = budget, tr
			plan, err := c.db.Optimize(c.sql, opts)
			if err != nil {
				t.Fatalf("%s budget %d: %v", arm.name, budget, err)
			}
			return plan
		}
		exhaustive, greedy := compile(0, nil), compile(1, nil)
		space := core.SearchSpace(exhaustive.Normalized)
		for _, budget := range []int{space, space + 1} {
			tr := pdwqo.NewTracer()
			got := compile(budget, tr)
			want, wantRegime := greedy, "greedy"
			if budget > space {
				want, wantRegime = exhaustive, "exhaustive"
			}
			if got.Regime != wantRegime || got.DSQL.String() != want.DSQL.String() || got.Cost() != want.Cost() {
				t.Errorf("%s budget %d, search space %d: regime %q cost %v, want %s cost %v",
					arm.name, budget, space, got.Regime, got.Cost(), wantRegime, want.Cost())
			}
			count := spanCount(tr)
			if greedyRegime := wantRegime == "greedy"; (count["greedy-fallback"] == 1) != greedyRegime || (count["memo"] == 1) == greedyRegime {
				t.Errorf("%s budget %d: %d greedy-fallback and %d memo spans for a %s compile",
					arm.name, budget, count["greedy-fallback"], count["memo"], wantRegime)
			}
		}
	}
}

// TestStringLiteralsCrossTheBoundary compiles filters on literals that XML
// 1.0 cannot carry, or that a careless writer would mangle: the DSQL must
// spell the literal the query spelt, and the distributed rows must be the
// serial reference's.
func TestStringLiteralsCrossTheBoundary(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.002, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range []string{"A\x01B", "A\x00B", "caf\xff", "\x7f", "tab\there", "line\r\nbreak", " padded ", `a<b&c>"d`, "ALGERIA"} {
		sql := "SELECT n_name FROM nation WHERE n_name <> '" + lit + "' AND n_regionkey = 0"
		plan, err := db.Optimize(sql, pdwqo.Options{Verify: true})
		if err != nil {
			t.Fatalf("%q: %v", lit, err)
		}
		if text := plan.DSQL.Steps[len(plan.DSQL.Steps)-1].SQL; !strings.Contains(text, "'"+lit+"'") {
			t.Errorf("%q: the DSQL filters on another literal:\n%s", lit, text)
		}
		dist, err := db.ExecutePlan(plan)
		if err != nil {
			t.Fatalf("%q: %v", lit, err)
		}
		serial, err := db.ExecuteSerial(sql)
		if err != nil {
			t.Fatalf("%q: serial: %v", lit, err)
		}
		if got, want := rowSet(dist), rowSet(serial); got != want {
			t.Errorf("%q: distributed rows %s, serial rows %s", lit, got, want)
		}
	}
}

func rowSet(r *pdwqo.Result) string {
	seen := map[string]int{}
	for _, row := range r.Rows {
		seen[fmt.Sprint(row)]++
	}
	return fmt.Sprint(seen)
}

// TestDecidedExplorationStops compiles the four 30-relation joins under a
// search budget their search space meets, at the default memo budget and
// with none: the regime must be decided before any memo exists — no memo
// span, so not one expression explored — and the plan must be the
// SearchBudget: 1 compile's. Explored with no memo budget, such a join
// holds 3³⁰ expressions, so each compile runs against a deadline.
func TestDecidedExplorationStops(t *testing.T) {
	const searchBudget = 5000
	for _, topo := range qgen.Topologies() {
		c := openSpec(t, qgen.Spec{Topology: topo, Relations: 30, Seed: 42030, Nodes: 8})
		want, err := c.db.Optimize(c.sql, pdwqo.Options{SearchBudget: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, memoBudget := range []int{0, -1} {
			tr := pdwqo.NewTracer()
			type outcome struct {
				plan *pdwqo.QueryPlan
				err  error
			}
			done := make(chan outcome, 1)
			go func() {
				plan, err := c.db.Optimize(c.sql, pdwqo.Options{Budget: memoBudget, SearchBudget: searchBudget, Tracer: tr})
				done <- outcome{plan, err}
			}()
			var got outcome
			select {
			case got = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s memo budget %d: still compiling after 30 s", c.name, memoBudget)
			}
			if got.err != nil {
				t.Fatalf("%s memo budget %d: %v", c.name, memoBudget, got.err)
			}
			if got.plan.Regime != "greedy" || got.plan.DSQL.String() != want.DSQL.String() || got.plan.Cost() != want.Cost() {
				t.Errorf("%s memo budget %d: regime %q cost %v, want greedy cost %v",
					c.name, memoBudget, got.plan.Regime, got.plan.Cost(), want.Cost())
			}
			if n := spanCount(tr)["memo"]; n != 0 {
				t.Errorf("%s memo budget %d: %d exploratory memos were built", c.name, memoBudget, n)
			}
			if space := spanAttr(tr, "greedy-fallback", "search_space"); space < searchBudget {
				t.Errorf("%s memo budget %d: greedy-fallback search_space=%d, want ≥ %d", c.name, memoBudget, space, searchBudget)
			}
			if m := got.plan.Memo; m.NumExprs() != m.NumGroups() {
				t.Errorf("%s memo budget %d: the plan's memo holds %d expressions in %d groups, want the fixed memo's one each",
					c.name, memoBudget, m.NumExprs(), m.NumGroups())
			}
		}
	}
}

// TestConcurrentSearchBudgets compiles on one DB from several goroutines
// at once, each under its own search budget: what decides one compile's
// regime is a value of that compile alone, so every plan must be the one
// the same call returns alone.
func TestConcurrentSearchBudgets(t *testing.T) {
	c := openSpec(t, qgen.Spec{Topology: qgen.Mixed, Relations: 10, Seed: 42010, Nodes: 8})
	budgets := []int{0, 1, 5000}
	type result struct{ regime, text string }
	compile := func(budget int) (result, error) {
		plan, err := c.db.Optimize(c.sql, pdwqo.Options{SearchBudget: budget})
		if err != nil {
			return result{}, err
		}
		return result{plan.Regime, plan.DSQL.String()}, nil
	}
	want := map[int]result{}
	for _, b := range budgets {
		r, err := compile(b)
		if err != nil {
			t.Fatal(err)
		}
		want[b] = r
	}
	if want[0].regime != "" || want[1].regime != "greedy" || want[0].text == want[1].text {
		t.Fatalf("regimes %q and %q: the budgets no longer tell the compiles apart", want[0].regime, want[1].regime)
	}
	var wg sync.WaitGroup
	for i := 0; i < 9; i++ {
		budget := budgets[i%len(budgets)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := compile(budget); err != nil {
				t.Error(err)
			} else if got != want[budget] {
				t.Errorf("search budget %d: regime %q concurrently, %q alone, same DSQL %v", budget, got.regime, want[budget].regime, got.text == want[budget].text)
			}
		}()
	}
	wg.Wait()
}

// TestGreedySeedNeverRaisesCost holds the §3.1 seed to its promise over
// every TPC-H query and the whole generated corpus: at the default memo
// budget, seeding the greedy join order beside the normalized plan leaves
// the exhaustive enumeration with no costlier a plan than it finds unseeded
// (to the 0.1% internal/core TestSeedingHelpsUnderTightBudget allows), and
// the seeded plan verifies. The one exception is pinned, not tolerated: q05
// keeps its join tree, but the memo takes a group's cardinality from the
// group's first expression, and the seed's shape estimates
// customer⋈supplier⋈nation⋈region — the side that is broadcast — at 3.17
// rows where the shape exploration reaches first says 1.91. The test logs,
// without gating, the seeded exhaustive cost beside the greedy regime's:
// what always-on seeding ([estimates] in ROADMAP.md) would buy. -short drops the joins
// above 24 relations.
func TestGreedySeedNeverRaisesCost(t *testing.T) {
	tpchDB, err := difftest.SharedTPCH(0.002, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	var cases []regimeCase
	for _, q := range tpch.Queries() {
		cases = append(cases, regimeCase{q.Name, q.SQL, tpchDB})
	}
	for _, spec := range qgen.Corpus() {
		if !testing.Short() || spec.Relations <= 24 {
			cases = append(cases, openSpec(t, spec))
		}
	}
	cost := func(c regimeCase, opts pdwqo.Options) float64 {
		t.Helper()
		plan, err := c.db.Optimize(c.sql, opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", c.name, opts, err)
		}
		return plan.Cost()
	}
	below, above := 0, 0
	for _, c := range cases {
		unseeded := cost(c, pdwqo.Options{})
		seeded := cost(c, pdwqo.Options{SeedCollocated: true, Verify: true})
		greedy := cost(c, pdwqo.Options{SearchBudget: 1})
		if raised := seeded > unseeded*1.001; raised != (c.name == "q05") {
			t.Errorf("%s: seeded cost %v, unseeded %v: only q05's estimate may rise, and if it no longer does drop the exemption", c.name, seeded, unseeded)
		}
		switch {
		case seeded < greedy*0.999:
			below++
		case seeded > greedy*1.001:
			above++
		}
		t.Logf("%-15s unseeded %-12.6g seeded %-12.6g greedy regime %.6g", c.name, unseeded, seeded, greedy)
	}
	t.Logf("exhaustive with the seed vs the greedy regime: cheaper on %d, costlier on %d, of %d", below, above, len(cases))
}

// TestNegativeSearchBudgetIsUnset holds every search budget ≤ 0 to the one
// documented meaning, "no cap": no regime is reported, EXPLAIN names no
// budget, and the plan cache files it under the template an unbudgeted
// compile cached.
func TestNegativeSearchBudgetIsUnset(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	sql, _ := pdwqo.TPCHQuery("q03")
	db.SetPlanCache(0)
	if _, err := db.Optimize(sql, pdwqo.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Optimize(sql, pdwqo.Options{SearchBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Regime != "" || plan.CacheStatus != "hit" {
		t.Errorf("SearchBudget -1: regime %q, cache %q, want \"\" and a hit on the unbudgeted template", plan.Regime, plan.CacheStatus)
	}
	doc, err := plan.ExplainJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(doc, "searchBudget") {
		t.Errorf("SearchBudget -1: EXPLAIN names a budget:\n%s", doc)
	}
}

// TestCacheHitKeepsVerify compiles one query unverified and then asks for
// it verified through the plan cache: the second caller must get a plan the
// verifier ran over, not the first caller's unverified template.
func TestCacheHitKeepsVerify(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	sql, _ := pdwqo.TPCHQuery("q03")
	db.SetPlanCache(0)
	if _, err := db.Optimize(sql, pdwqo.Options{}); err != nil {
		t.Fatal(err)
	}
	tr := pdwqo.NewTracer()
	plan, err := db.Optimize(sql, pdwqo.Options{Verify: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if n := spanCount(tr)["verify"]; plan.CacheStatus != "miss" || n != 1 {
		t.Errorf("Verify after an unverified compile: cache %q with %d verify spans, want a miss that verifies", plan.CacheStatus, n)
	}
}
