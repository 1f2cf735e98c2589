package core

import (
	"errors"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/cost"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
)

var (
	budgetDec   *memoxml.Decoded
	budgetShell *catalog.Shell
)

// budgetFixture compiles one 64-relation clique down to a decoded memo,
// cached across the budget tests (the decoded memo is read-only during
// enumeration).
func budgetFixture(t *testing.T) (*memoxml.Decoded, *catalog.Shell) {
	t.Helper()
	if budgetDec != nil {
		return budgetDec, budgetShell
	}
	q, err := qgen.Generate(qgen.Spec{Topology: qgen.Clique, Relations: 64, Seed: 4242})
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.Shell()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(s)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.OptimizeSeeded(s, norm, memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	data, err := memoxml.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := memoxml.Decode(data, s)
	if err != nil {
		t.Fatal(err)
	}
	budgetDec, budgetShell = dec, s
	return dec, s
}

// TestBudgetCounterExactUnderParallelWaves is the race-freedom contract
// of the enumeration budget: a 64-relation clique optimized at
// Parallelism=8 under -race must trip the budget at the same wave with
// the exact same counter value as the serial reference, on every run.
// The counter is approximate nowhere: options are counted atomically and
// the budget is read only at wave barriers, after the wave's workers
// have joined.
func TestBudgetCounterExactUnderParallelWaves(t *testing.T) {
	dec, shell := budgetFixture(t)
	model := cost.NewModel(8, cost.DefaultLambda())

	run := func(par, budget int) *BudgetError {
		t.Helper()
		opt := New(dec, shell, model, Config{SearchBudget: budget, Parallelism: par})
		_, err := opt.Optimize()
		if err == nil {
			t.Fatalf("par=%d budget=%d: expected budget exhaustion, search finished", par, budget)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("par=%d budget=%d: expected *BudgetError, got %v", par, budget, err)
		}
		return be
	}

	// Budget 1 trips at the first barrier: the counter is exactly the
	// scan wave's option count.
	ref := run(1, 1)
	if ref.Wave != 1 {
		t.Fatalf("budget=1 tripped at wave %d, want 1", ref.Wave)
	}
	if ref.Considered < 64 {
		t.Fatalf("wave 0 of a 64-relation clique considered %d options, want >= 64", ref.Considered)
	}

	// A budget just past wave 0 lets at least one join wave run before
	// tripping, so parallel workers contribute to the counter.
	deep := run(1, int(ref.Considered)+1)
	if deep.Wave < 2 {
		t.Fatalf("budget=%d tripped at wave %d, want >= 2", ref.Considered+1, deep.Wave)
	}

	for i := 0; i < 3; i++ {
		for _, want := range []*BudgetError{ref, deep} {
			got := run(8, want.Budget)
			if got.Considered != want.Considered || got.Wave != want.Wave || got.Waves != want.Waves {
				t.Fatalf("run %d budget=%d: parallel trip {considered=%d wave=%d/%d} != serial {considered=%d wave=%d/%d}",
					i, want.Budget, got.Considered, got.Wave, got.Waves, want.Considered, want.Wave, want.Waves)
			}
		}
	}
}

// TestBudgetDisabledFinishes: SearchBudget=0 keeps enumeration exhaustive
// and the serial-over-waves iteration produces the same plan and counters
// as before the budget existed.
func TestBudgetDisabledFinishes(t *testing.T) {
	dec, shell := budgetFixture(t)
	model := cost.NewModel(8, cost.DefaultLambda())
	serial, err := New(dec, shell, model, Config{Parallelism: 1}).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(dec, shell, model, Config{Parallelism: 8}).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if serial.OptionsConsidered != parallel.OptionsConsidered {
		t.Fatalf("options considered diverged: serial %d, parallel %d",
			serial.OptionsConsidered, parallel.OptionsConsidered)
	}
	if serial.TotalCost != parallel.TotalCost {
		t.Fatalf("plan cost diverged: serial %g, parallel %g", serial.TotalCost, parallel.TotalCost)
	}
	// A budget generously above the total never trips.
	over, err := New(dec, shell, model, Config{SearchBudget: serial.OptionsConsidered + 1, Parallelism: 8}).Optimize()
	if err != nil {
		t.Fatalf("budget above total tripped: %v", err)
	}
	if over.TotalCost != serial.TotalCost {
		t.Fatalf("plan cost under slack budget diverged: %g vs %g", over.TotalCost, serial.TotalCost)
	}
}
