package explain

import (
	"math"

	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/engine"
)

// jsonPlan is the machine-readable EXPLAIN [ANALYZE] document.
type jsonPlan struct {
	SQL               string       `json:"sql,omitempty"`
	Cost              float64      `json:"cost"`
	Groups            int          `json:"groups"`
	OptionsConsidered int          `json:"optionsConsidered"`
	OptionsRetained   int          `json:"optionsRetained"`
	MemoExhausted     bool         `json:"memoExhausted,omitempty"`
	Regime            string       `json:"regime"`
	SearchBudget      int          `json:"searchBudget,omitempty"`
	SearchSpace       int          `json:"searchSpace,omitempty"`
	Root              *jsonNode    `json:"root"`
	Steps             []jsonStep   `json:"steps"`
	Analyze           *jsonAnalyze `json:"analyze,omitempty"`
}

type jsonNode struct {
	Name     string      `json:"name"`
	Dist     string      `json:"dist"`
	Rows     float64     `json:"rows"`
	Bytes    float64     `json:"bytes"`
	DMSCost  float64     `json:"dmsCost"`
	Children []*jsonNode `json:"children,omitempty"`
}

type jsonStep struct {
	ID       int         `json:"id"`
	Kind     string      `json:"kind"`
	Move     string      `json:"move,omitempty"`
	HashCol  string      `json:"hashCol,omitempty"`
	Dest     string      `json:"dest,omitempty"`
	Where    string      `json:"where"`
	EstRows  float64     `json:"estRows"`
	EstBytes float64     `json:"estBytes"`
	EstCost  float64     `json:"estCost,omitempty"`
	SQL      string      `json:"sql"`
	Actual   *jsonActual `json:"actual,omitempty"`
}

type jsonActual struct {
	Rows       int64    `json:"rows"`
	Bytes      int64    `json:"bytes"`
	Attempts   int      `json:"attempts"`
	DurationNs int64    `json:"durationNs"`
	Batches    int64    `json:"batches,omitempty"`
	QRows      *float64 `json:"qRows,omitempty"`
	QBytes     *float64 `json:"qBytes,omitempty"`
}

type jsonAnalyze struct {
	ElapsedNs  int64    `json:"elapsedNs"`
	StepsRun   int      `json:"stepsRun"`
	StepsTotal int      `json:"stepsTotal"`
	BytesMoved int64    `json:"bytesMoved"`
	Retries    int64    `json:"retries"`
	Faults     int64    `json:"faults"`
	MoveSteps  int      `json:"moveSteps"`
	QRowsMean  *float64 `json:"qRowsMean,omitempty"`
	QRowsMax   *float64 `json:"qRowsMax,omitempty"`
	QBytesMean *float64 `json:"qBytesMean,omitempty"`
	QBytesMax  *float64 `json:"qBytesMax,omitempty"`
	// Unbounded counts of +Inf q-errors excluded from the means (one side
	// of the estimate was zero; see cost.QErrorSummary).
	QRowsUnbounded  int `json:"qRowsUnbounded,omitempty"`
	QBytesUnbounded int `json:"qBytesUnbounded,omitempty"`
}

// qPtr boxes a q-error for optional JSON emission; unbounded values have
// no JSON number, so they round to a sentinel -1 (documented: -1 = inf).
func qPtr(q float64) *float64 {
	if math.IsNaN(q) {
		return nil
	}
	if math.IsInf(q, 1) {
		q = -1
	}
	return &q
}

func buildJSON(in Input, opts Options) jsonPlan {
	doc := jsonPlan{
		SQL:               in.SQL,
		Cost:              in.Plan.TotalCost,
		Groups:            in.Plan.Groups,
		MemoExhausted:     in.Plan.MemoExhausted,
		OptionsConsidered: in.Plan.OptionsConsidered,
		OptionsRetained:   in.Plan.OptionsRetained,
		Root:              buildNode(in.Plan.Root),
		Regime:            in.Regime.Name(),
		SearchBudget:      in.Regime.Budget,
		SearchSpace:       in.Regime.SearchSpace,
	}
	acts := actualsByStep(in)
	for _, s := range in.DSQL.Steps {
		js := jsonStep{
			ID:       s.ID,
			Kind:     "return",
			Where:    whereName(s.Where),
			EstRows:  s.Rows,
			EstBytes: s.EstBytes(),
			SQL:      s.SQL,
		}
		if s.Kind == dsql.StepMove {
			js.Kind = "move"
			js.Move = s.MoveKind.String()
			js.HashCol = s.HashCol
			js.Dest = s.Dest
			js.EstCost = s.MoveCost
		}
		if opts.Analyze {
			if a, ok := acts[s.ID]; ok {
				js.Actual = buildActual(s, a)
			}
		}
		doc.Steps = append(doc.Steps, js)
	}
	if opts.Analyze {
		doc.Analyze = buildAnalyze(in, acts)
	}
	return doc
}

func buildNode(o *core.Option) *jsonNode {
	n := &jsonNode{
		Name:    nodeLabel(o),
		Dist:    o.Dist.String(),
		Rows:    o.Rows,
		Bytes:   o.Rows * o.Width,
		DMSCost: o.DMSCost,
	}
	for _, in := range o.Inputs {
		n.Children = append(n.Children, buildNode(in))
	}
	return n
}

func buildActual(s dsql.Step, a engine.StepMetric) *jsonActual {
	ja := &jsonActual{
		Rows:       a.Rows,
		Bytes:      a.Bytes,
		Attempts:   a.Attempts,
		DurationNs: int64(a.Duration),
		Batches:    a.LocalBatches,
	}
	if s.Kind == dsql.StepMove {
		ja.QRows = qPtr(cost.QError(s.Rows, float64(a.Rows)))
		ja.QBytes = qPtr(cost.QError(s.EstBytes(), float64(a.Bytes)))
	}
	return ja
}

func buildAnalyze(in Input, acts map[int]engine.StepMetric) *jsonAnalyze {
	var bytesMoved int64
	for _, a := range in.Actuals {
		if a.IsMove {
			bytesMoved += a.Bytes
		}
	}
	rows, bytes := qErrors(in, acts)
	ja := &jsonAnalyze{
		ElapsedNs:  int64(in.Elapsed),
		StepsRun:   len(in.Actuals),
		StepsTotal: len(in.DSQL.Steps),
		BytesMoved: bytesMoved,
		Retries:    in.Retries,
		Faults:     in.Faults,
		MoveSteps:  len(bytes),
	}
	if len(bytes) > 0 {
		rg, ru := cost.QErrorSummary(rows)
		bg, bu := cost.QErrorSummary(bytes)
		ja.QRowsMean = qPtr(rg)
		ja.QRowsMax = qPtr(maxOf(rows))
		ja.QBytesMean = qPtr(bg)
		ja.QBytesMax = qPtr(maxOf(bytes))
		ja.QRowsUnbounded = ru
		ja.QBytesUnbounded = bu
	}
	return ja
}
