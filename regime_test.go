package pdwqo_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pdwqo"
	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/difftest"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

// unshortened compiles sql the way DB.Optimize did before it could choose
// the greedy regime ahead of the export, from the layers' exported calls:
// export the explored memo (costed for the serial baseline) and enumerate
// it under the budget, and only when the enumeration trips re-plan over the
// greedy join order. It returns what a caller can observe of the outcome.
func unshortened(t *testing.T, db *pdwqo.DB, sql string, opts pdwqo.Options) (regime, text string, planCost float64) {
	t.Helper()
	shell := db.Shell()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(shell)
	bound, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(bound)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.OptimizeSeeded(shell, norm, memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(shell.Topology.ComputeNodes, cost.DefaultLambda())
	lower := func(m *memo.Memo, budget int) (*core.Plan, error) {
		if opts.Mode == pdwqo.ModeSerialBaseline {
			if err := m.CostSerial(); err != nil {
				t.Fatal(err)
			}
		}
		data, err := memoxml.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := memoxml.Decode(data, shell)
		if err != nil {
			t.Fatal(err)
		}
		return core.New(dec, shell, model, core.Config{
			Mode:                        opts.Mode,
			DisableAggSplit:             opts.DisableAggSplit,
			DisableInterestingRetention: opts.DisableInterestingRetention,
			SearchBudget:                budget,
		}).Optimize()
	}
	if opts.SearchBudget > 0 {
		regime = "exhaustive"
	}
	plan, err := lower(m, opts.SearchBudget)
	var be *core.BudgetError
	if errors.As(err, &be) {
		regime = "greedy"
		if m, err = memo.OptimizeFixed(shell, normalize.GreedyJoinOrder(norm)); err != nil {
			t.Fatal(err)
		}
		plan, err = lower(m, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dsql.Generate(plan, norm.OutputCols())
	if err != nil {
		t.Fatal(err)
	}
	return regime, dp.String(), plan.TotalCost
}

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

// TestRegimeShortcutChangesNoPlan holds DB.Optimize, which may choose the
// greedy regime from a lower bound before exporting anything, to the
// unshortened sequence: same regime, same DSQL text, same cost — for every
// TPC-H query and every small generated join at each rung of a budget
// ladder, and for the whole generated corpus (up to 100 relations) at the
// two budgets the difftest suites pin regimes under. -short drops two rungs
// and the joins above 24 relations.
func TestRegimeShortcutChangesNoPlan(t *testing.T) {
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
	predicted, tripped, exhaustive := 0, 0, 0
	for _, r := range runs {
		for _, budget := range r.budgets {
			opts := pdwqo.Options{SearchBudget: budget}
			wantRegime, wantText, wantCost := unshortened(t, r.db, r.sql, opts)
			got, err := r.db.Optimize(r.sql, opts)
			if err != nil {
				t.Fatalf("%s budget %d: %v", r.name, budget, err)
			}
			if got.Regime != wantRegime || got.DSQL.String() != wantText || got.Cost() != wantCost {
				t.Errorf("%s budget %d: regime %q cost %v, unshortened regime %q cost %v, same DSQL %v",
					r.name, budget, got.Regime, got.Cost(), wantRegime, wantCost, got.DSQL.String() == wantText)
			}
			header, _, _ := strings.Cut(explainOf(t, got), "\n")
			switch {
			case strings.Contains(header, "chosen before export"):
				predicted++
			case strings.Contains(header, "tripped at wave"):
				tripped++
			case strings.Contains(header, "regime=exhaustive"):
				exhaustive++
			default:
				t.Errorf("%s budget %d: EXPLAIN header names no regime: %s", r.name, budget, header)
			}
		}
	}
	t.Logf("%d chosen before export, %d tripped, %d exhaustive", predicted, tripped, exhaustive)
	if predicted == 0 || tripped == 0 || exhaustive == 0 {
		t.Errorf("the ladder must reach all three outcomes: %d predicted, %d tripped, %d exhaustive", predicted, tripped, exhaustive)
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

// TestLargeJoinExportsOnce traces DB.Optimize of the eight
// compile_largejoin queries (bench/compile.go's specs and budget): each is
// sent to the greedy regime by the tree bound, so the trace holds no memo
// span (no exploratory memo was built), one memoxml-encode and one
// memoxml-decode span — the fixed memo's, under 256 KB — and the
// greedy-fallback span says the regime was predicted.
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
			count := map[string]int{}
			for _, sp := range tr.Spans() {
				count[sp.Name]++
				attr := func(key string) int64 {
					for _, a := range sp.Attrs {
						if a.Key == key {
							return a.Val
						}
					}
					return -1
				}
				switch sp.Name {
				case "memoxml-encode":
					if b := attr("bytes"); b <= 0 || b >= 256<<10 {
						t.Errorf("%s: exported %d bytes, want under 256 KB", c.name, b)
					}
				case "greedy-fallback":
					if attr("predicted") != 1 || attr("bound") < budget {
						t.Errorf("%s: greedy-fallback predicted=%d bound=%d, want 1 and ≥ %d", c.name, attr("predicted"), attr("bound"), budget)
					}
				}
			}
			if count["memoxml-encode"] != 1 || count["memoxml-decode"] != 1 || count["greedy-fallback"] != 1 {
				t.Errorf("%s: %d encode, %d decode, %d greedy-fallback spans, want one of each",
					c.name, count["memoxml-encode"], count["memoxml-decode"], count["greedy-fallback"])
			}
			if count["memo"] != 0 {
				t.Errorf("%s: %d memo spans: an exploratory memo was built for a query the bound sends to greedy", c.name, count["memo"])
			}
			reg := tr.Counters()
			if reg.Get("optimize.greedy_fallback") != 1 || reg.Get("optimize.greedy_predicted") != 1 {
				t.Errorf("%s: counters greedy_fallback=%d greedy_predicted=%d, want 1 and 1",
					c.name, reg.Get("optimize.greedy_fallback"), reg.Get("optimize.greedy_predicted"))
			}
			header, _, _ := strings.Cut(explainOf(t, plan), "\n")
			if !strings.Contains(header, fmt.Sprintf("≥ budget %d, chosen before export)", budget)) {
				t.Errorf("%s: EXPLAIN header %q does not say the regime was chosen before the export", c.name, header)
			}
		}
	}
}

// TestRegimeShortcutArms says which option arms may take the shortcut. The
// bound is proven for ModeFull, and the two ablation switches only remove
// options it never counted (internal/core TestSearchLowerBoundIsSound runs
// it under each), so they predict; ModeSerialBaseline enumerates another
// expression set and always exports first. Either way the outcome is the
// unshortened sequence's.
func TestRegimeShortcutArms(t *testing.T) {
	c := openSpec(t, qgen.Spec{Topology: qgen.Star, Relations: 10, Seed: 42010, Nodes: 8})
	arms := []struct {
		name      string
		opts      pdwqo.Options
		predicted int64
	}{
		{"full", pdwqo.Options{}, 1},
		{"no-agg-split", pdwqo.Options{DisableAggSplit: true}, 1},
		{"no-interesting-retention", pdwqo.Options{DisableInterestingRetention: true}, 1},
		{"seeded", pdwqo.Options{SeedCollocated: true}, 1}, // the seed and the fixed memo are one tree, built once
		{"serial-baseline", pdwqo.Options{Mode: pdwqo.ModeSerialBaseline}, 0},
	}
	for _, arm := range arms {
		opts := arm.opts
		opts.SearchBudget = 200
		wantRegime, wantText, wantCost := unshortened(t, c.db, c.sql, opts)
		opts.Tracer = pdwqo.NewTracer()
		got, err := c.db.Optimize(c.sql, opts)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		if got.Regime != wantRegime || got.DSQL.String() != wantText || got.Cost() != wantCost {
			t.Errorf("%s: regime %q cost %v, unshortened regime %q cost %v", arm.name, got.Regime, got.Cost(), wantRegime, wantCost)
		}
		if n := opts.Tracer.Counters().Get("optimize.greedy_predicted"); n != arm.predicted {
			t.Errorf("%s: optimize.greedy_predicted = %d, want %d (regime %q)", arm.name, n, arm.predicted, got.Regime)
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
// search budget the tree bound meets, at the default memo budget and with
// none: the regime must be decided before any memo exists — no memo span,
// so not one expression explored — and the plan must be the unshortened
// sequence's. Explored with no memo budget, such a join holds 3³⁰
// expressions, so each compile runs against a deadline.
func TestDecidedExplorationStops(t *testing.T) {
	const searchBudget = 5000
	for _, topo := range qgen.Topologies() {
		c := openSpec(t, qgen.Spec{Topology: topo, Relations: 30, Seed: 42030, Nodes: 8})
		wantRegime, wantText, wantCost := unshortened(t, c.db, c.sql, pdwqo.Options{SearchBudget: searchBudget})
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
			if got.plan.Regime != wantRegime || got.plan.DSQL.String() != wantText || got.plan.Cost() != wantCost {
				t.Errorf("%s memo budget %d: regime %q cost %v, unshortened regime %q cost %v",
					c.name, memoBudget, got.plan.Regime, got.plan.Cost(), wantRegime, wantCost)
			}
			for _, sp := range tr.Spans() {
				if sp.Name == "memo" {
					t.Errorf("%s memo budget %d: an exploratory memo was built (%v)", c.name, memoBudget, sp.Attrs)
				}
			}
			if n := tr.Counters().Get("optimize.greedy_predicted"); n != 1 {
				t.Errorf("%s memo budget %d: optimize.greedy_predicted = %d, want 1", c.name, memoBudget, n)
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
// what always-on seeding (ROADMAP item 4) would buy. -short drops the joins
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
