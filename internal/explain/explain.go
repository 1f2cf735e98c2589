// Package explain renders the optimizer's chosen distributed plan —
// EXPLAIN — and, after execution, reconciles the optimizer's estimates
// against the engine's measured step metrics — EXPLAIN ANALYZE.
//
// EXPLAIN output is deterministic for a given (query, catalog, topology):
// it shows the plan tree with placements and estimated rows/bytes/DMS
// cost, followed by the DSQL step sequence. ANALYZE additionally shows,
// per executed step, actual rows, bytes moved, attempts and wall time,
// plus a predicted-vs-actual q-error summary over the move steps (the
// cost model's accuracy metric; see EXPERIMENTS.md E16).
package explain

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"pdwqo/internal/algebra"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/engine"
)

// Input is everything a render needs. Plan and DSQL are required;
// Actuals/Retries/Faults/Elapsed are the execution-side measurements and
// only consulted under Options.Analyze.
type Input struct {
	SQL  string
	Plan *core.Plan
	DSQL *dsql.Plan
	// Regime says how the PDW-side search space was covered; the zero
	// value is an exhaustive search under no budget.
	Regime Regime

	// Actuals are the StepMetrics this execution appended, in step order;
	// steps that never ran (fault-aborted execution) are simply absent.
	Actuals []engine.StepMetric
	Retries int64
	Faults  int64
	Elapsed time.Duration
}

// Regime is how the PDW-side search space was covered, decided once from
// the normalized tree: the greedy join-order regime when a search budget
// was set and the tree's search space (core.SearchSpace) meets it, else the
// exhaustive search.
type Regime struct {
	Greedy bool
	// Budget is the search budget in force, 0 when none was set.
	Budget int
	// SearchSpace is the count the budget was held against, 0 when none
	// was set.
	SearchSpace int
}

// Name is "greedy" or "exhaustive".
func (r Regime) Name() string {
	if r.Greedy {
		return "greedy"
	}
	return "exhaustive"
}

// String renders the regime as the EXPLAIN header shows it.
func (r Regime) String() string {
	if !r.Greedy {
		return r.Name()
	}
	return fmt.Sprintf("greedy (search space %d ≥ budget %d)", r.SearchSpace, r.Budget)
}

// Options selects the output flavor.
type Options struct {
	// Analyze includes per-step actuals and the q-error summary.
	Analyze bool
	// JSON renders the machine-readable form instead of text.
	JSON bool
}

// Render produces the EXPLAIN (or EXPLAIN ANALYZE) output.
func Render(in Input, opts Options) (string, error) {
	if in.Plan == nil || in.DSQL == nil {
		return "", fmt.Errorf("explain: missing plan")
	}
	if opts.JSON {
		b, err := json.MarshalIndent(buildJSON(in, opts), "", "  ")
		if err != nil {
			return "", err
		}
		return string(b) + "\n", nil
	}
	return renderText(in, opts), nil
}

// actualsByStep indexes execution metrics by DSQL step ID.
func actualsByStep(in Input) map[int]engine.StepMetric {
	m := make(map[int]engine.StepMetric, len(in.Actuals))
	for _, a := range in.Actuals {
		m[a.StepID] = a
	}
	return m
}

// --- text rendering ---

func renderText(in Input, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- distributed plan  cost=%.6g groups=%d options considered=%d retained=%d  regime=%s",
		in.Plan.TotalCost, in.Plan.Groups, in.Plan.OptionsConsidered, in.Plan.OptionsRetained, in.Regime)
	if in.Plan.MemoExhausted {
		b.WriteString("  memo exhausted")
	}
	b.WriteByte('\n')
	writeTree(&b, in.Plan.Root, 0)
	b.WriteString("-- DSQL steps\n")
	acts := actualsByStep(in)
	for _, s := range in.DSQL.Steps {
		writeStep(&b, s, opts, acts)
	}
	if opts.Analyze {
		writeSummary(&b, in, acts)
	}
	return b.String()
}

// writeTree renders the option tree with placement and estimates.
func writeTree(b *strings.Builder, o *core.Option, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%-*s  [%s rows=%.6g bytes=%.6g dms=%.6g]\n",
		28-2*depth, nodeLabel(o), o.Dist, o.Rows, o.Rows*o.Width, o.DMSCost)
	for _, in := range o.Inputs {
		writeTree(b, in, depth+1)
	}
}

// nodeLabel names a plan node the way core's own plan display does.
func nodeLabel(o *core.Option) string {
	if o.Move != nil {
		return o.Move.String()
	}
	switch op := o.Op.(type) {
	case *algebra.Get:
		return fmt.Sprintf("%s(%s)", o.Op.OpName(), op.Table.Name)
	case *algebra.GroupBy:
		keys := make([]string, len(op.Keys))
		for i, k := range op.Keys {
			keys[i] = fmt.Sprintf("c%d", k)
		}
		return fmt.Sprintf("%s[%s]", o.Op.OpName(), strings.Join(keys, ","))
	default:
		return o.Op.OpName()
	}
}

func writeStep(b *strings.Builder, s dsql.Step, opts Options, acts map[int]engine.StepMetric) {
	switch s.Kind {
	case dsql.StepMove:
		fmt.Fprintf(b, "step %d: DMS %s", s.ID, s.MoveKind)
		if s.HashCol != "" {
			fmt.Fprintf(b, "(%s)", s.HashCol)
		}
		fmt.Fprintf(b, " -> %s  on %s  [est_rows=%.6g est_bytes=%.6g est_cost=%.6g]\n",
			s.Dest, whereName(s.Where), s.Rows, s.EstBytes(), s.MoveCost)
	default:
		fmt.Fprintf(b, "step %d: RETURN  on %s  [est_rows=%.6g est_bytes=%.6g]\n",
			s.ID, whereName(s.Where), s.Rows, s.EstBytes())
	}
	for _, line := range strings.Split(s.SQL, "\n") {
		b.WriteString("    ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if !opts.Analyze {
		return
	}
	a, ok := acts[s.ID]
	if !ok {
		b.WriteString("    actual: (step did not complete)\n")
		return
	}
	fmt.Fprintf(b, "    actual: rows=%d bytes=%d attempts=%d time=%s",
		a.Rows, a.Bytes, a.Attempts, a.Duration.Round(time.Microsecond))
	if a.LocalBatches > 0 {
		// Vectorized node-local execution: how many column batches carried
		// the step's LocalRows.
		fmt.Fprintf(b, " batches=%d", a.LocalBatches)
	}
	if s.Kind == dsql.StepMove {
		fmt.Fprintf(b, " q_rows=%s q_bytes=%s",
			fmtQ(cost.QError(s.Rows, float64(a.Rows))),
			fmtQ(cost.QError(s.EstBytes(), float64(a.Bytes))))
	}
	b.WriteByte('\n')
}

// whereName renders a step's execution placement.
func whereName(k core.DistKind) string {
	switch k {
	case core.DistReplicated:
		return "replicated"
	case core.DistSingle:
		return "single-node"
	default:
		return "distributed"
	}
}

func writeSummary(b *strings.Builder, in Input, acts map[int]engine.StepMetric) {
	var bytesMoved int64
	for _, a := range in.Actuals {
		if a.IsMove {
			bytesMoved += a.Bytes
		}
	}
	b.WriteString("-- analyze summary\n")
	fmt.Fprintf(b, "elapsed=%s steps=%d/%d bytes_moved=%d retries=%d faults=%d\n",
		in.Elapsed.Round(time.Microsecond), len(in.Actuals), len(in.DSQL.Steps),
		bytesMoved, in.Retries, in.Faults)
	rows, bytes := qErrors(in, acts)
	if len(bytes) > 0 {
		rg, ru := cost.QErrorSummary(rows)
		bg, bu := cost.QErrorSummary(bytes)
		fmt.Fprintf(b, "move q-error (rows):  n=%d mean=%s max=%s%s\n", len(rows), fmtQ(rg), fmtQ(maxOf(rows)), fmtUnbounded(ru))
		fmt.Fprintf(b, "move q-error (bytes): n=%d mean=%s max=%s%s\n", len(bytes), fmtQ(bg), fmtQ(maxOf(bytes)), fmtUnbounded(bu))
	} else {
		b.WriteString("move q-error: no move steps executed\n")
	}
}

// fmtUnbounded annotates a q-error line with how many steps had an
// unbounded (one-side-zero) error; empty when none, so the common case
// keeps its historical format.
func fmtUnbounded(n int) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(" unbounded=%d", n)
}

// qErrors collects the per-move-step q-errors for rows and bytes, in
// step order.
func qErrors(in Input, acts map[int]engine.StepMetric) (rows, bytes []float64) {
	for _, s := range in.DSQL.Steps {
		if s.Kind != dsql.StepMove {
			continue
		}
		a, ok := acts[s.ID]
		if !ok {
			continue
		}
		rows = append(rows, cost.QError(s.Rows, float64(a.Rows)))
		bytes = append(bytes, cost.QError(s.EstBytes(), float64(a.Bytes)))
	}
	return rows, bytes
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// fmtQ renders a q-error compactly; unbounded errors print as "inf".
func fmtQ(q float64) string {
	if math.IsInf(q, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3g", q)
}
