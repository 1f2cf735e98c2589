package pdwqo

import (
	"context"
	"time"

	"pdwqo/internal/explain"
)

// ExplainText renders the plan through the observability renderer: the
// distributed plan tree with placements and estimated rows/bytes/DMS
// cost, followed by the DSQL step sequence. Output is deterministic for
// a given query, catalog and topology — the golden EXPLAIN suite relies
// on that.
func (p *QueryPlan) ExplainText() (string, error) {
	return explain.Render(p.explainInput(), explain.Options{})
}

// ExplainJSON renders the machine-readable EXPLAIN document.
func (p *QueryPlan) ExplainJSON() (string, error) {
	return explain.Render(p.explainInput(), explain.Options{JSON: true})
}

func (p *QueryPlan) explainInput() explain.Input {
	return explain.Input{SQL: p.SQL, Plan: p.Distributed, DSQL: p.DSQL, Regime: p.regime}
}

// ExplainAnalyze executes the plan under cfg and renders EXPLAIN ANALYZE:
// per step, the optimizer's estimated rows/bytes next to the engine's
// measured rows, bytes moved, attempts and wall time, plus a
// predicted-vs-actual q-error summary over the move steps.
//
// Actuals, retries and faults are the run's own record, so the report is
// exact however many other executions share the appliance. On execution
// failure the report still covers the steps that completed, and the
// execution error is returned alongside it.
func (db *DB) ExplainAnalyze(plan *QueryPlan, cfg ExecConfig, jsonOut bool) (*Result, string, error) {
	start := time.Now()
	run, execErr := db.appliance.Execute(context.Background(), plan.DSQL, cfg)
	in := plan.explainInput()
	in.Elapsed = time.Since(start)
	in.Actuals, in.Retries, in.Faults = run.Steps, run.Retries, run.Faults
	var res *Result
	if execErr == nil {
		res = resultOf(run.Cols, run.Rows)
	}
	report, err := explain.Render(in, explain.Options{Analyze: true, JSON: jsonOut})
	if err != nil {
		return res, "", err
	}
	return res, report, execErr
}
