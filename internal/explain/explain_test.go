package explain

import (
	"math"
	"strings"
	"testing"
	"time"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/engine"
)

// fakeInput builds a tiny synthetic plan: one shuffle move feeding a
// return step, enough to exercise every render path without a database.
func fakeInput() Input {
	leaf := &core.Option{
		Op:   &algebra.Get{Table: &catalog.Table{Name: "orders"}},
		Dist: core.HashOn(1), Rows: 100, Width: 8,
	}
	move := &core.Option{
		Move:   &core.MoveSpec{Kind: cost.Shuffle, Col: 2},
		Inputs: []*core.Option{leaf},
		Dist:   core.HashOn(2), Rows: 100, Width: 8, DMSCost: 800,
	}
	return Input{
		SQL:  "SELECT 1",
		Plan: &core.Plan{Root: move, TotalCost: 800, Groups: 2, OptionsConsidered: 10, OptionsRetained: 4},
		DSQL: &dsql.Plan{Steps: []dsql.Step{
			{ID: 0, Kind: dsql.StepMove, SQL: "SELECT a\nFROM t", Where: core.DistHash,
				MoveKind: cost.Shuffle, HashCol: "c2", Dest: "TEMP_ID_1",
				Rows: 100, Width: 8, MoveCost: 800},
			{ID: 1, Kind: dsql.StepReturn, SQL: "SELECT * FROM [tempdb].[TEMP_ID_1]",
				Where: core.DistSingle, Rows: 100, Width: 8},
		}},
	}
}

func TestRenderExplainText(t *testing.T) {
	out, err := Render(fakeInput(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cost=800 groups=2 options considered=10 retained=4",
		"SHUFFLE(c2)",
		"Get(orders)",
		"step 0: DMS SHUFFLE(c2) -> TEMP_ID_1  on distributed  [est_rows=100 est_bytes=800 est_cost=800]",
		"step 1: RETURN  on single-node",
		"    FROM t", // multi-line SQL stays indented
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "actual:") || strings.Contains(out, "analyze summary") {
		t.Errorf("plain EXPLAIN must not include ANALYZE sections:\n%s", out)
	}
}

func TestRenderAnalyzeText(t *testing.T) {
	in := fakeInput()
	in.Actuals = []engine.StepMetric{
		{StepID: 0, IsMove: true, Move: cost.Shuffle, Rows: 50, Bytes: 400, Attempts: 2, Duration: time.Millisecond},
		{StepID: 1, Rows: 50, Bytes: 400, Attempts: 1},
	}
	in.Retries = 1
	in.Elapsed = 5 * time.Millisecond
	out, err := Render(in, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"actual: rows=50 bytes=400 attempts=2 time=1ms q_rows=2 q_bytes=2",
		"-- analyze summary",
		"elapsed=5ms steps=2/2 bytes_moved=400 retries=1 faults=0",
		"move q-error (rows):  n=1 mean=2 max=2",
		"move q-error (bytes): n=1 mean=2 max=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestRenderAnalyzeZeroEstimateMove is the regression seed for the
// EstBytes=0 edge: a move step the optimizer predicted empty (0 rows ×
// 0 width, e.g. a detected contradiction) that nonetheless produced
// rows. Its q-errors are unbounded; they must be counted separately, not
// fold the whole summary mean to inf (or, before the one-zero guard,
// divide by zero).
func TestRenderAnalyzeZeroEstimateMove(t *testing.T) {
	in := fakeInput()
	in.DSQL.Steps = append([]dsql.Step{
		{ID: 2, Kind: dsql.StepMove, SQL: "SELECT b FROM u", Where: core.DistHash,
			MoveKind: cost.Broadcast, Dest: "TEMP_ID_2", Rows: 0, Width: 0},
	}, in.DSQL.Steps...)
	in.Actuals = []engine.StepMetric{
		{StepID: 2, IsMove: true, Move: cost.Broadcast, Rows: 7, Bytes: 56, Attempts: 1},
		{StepID: 0, IsMove: true, Move: cost.Shuffle, Rows: 50, Bytes: 400, Attempts: 1},
		{StepID: 1, Rows: 50, Bytes: 400, Attempts: 1},
	}
	out, err := Render(in, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"q_rows=inf q_bytes=inf", // the zero-estimate step itself
		// the finite step (q=2) must still dominate the mean instead of
		// the unbounded one absorbing it
		"move q-error (rows):  n=2 mean=2 max=inf unbounded=1",
		"move q-error (bytes): n=2 mean=2 max=inf unbounded=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ANALYZE missing %q:\n%s", want, out)
		}
	}

	jout, err := Render(in, Options{Analyze: true, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"qRowsMean": 2`, `"qRowsMax": -1`, `"qRowsUnbounded": 1`,
		`"qBytesMean": 2`, `"qBytesUnbounded": 1`,
	} {
		if !strings.Contains(jout, want) {
			t.Errorf("JSON ANALYZE missing %q:\n%s", want, jout)
		}
	}
}

// TestRenderAnalyzeAllUnbounded covers the other end of the edge: every
// executed move had a one-side-zero estimate, so there is no finite
// factor at all and the mean itself must render as inf, not NaN.
func TestRenderAnalyzeAllUnbounded(t *testing.T) {
	in := fakeInput()
	in.DSQL.Steps[0].Rows = 0
	in.DSQL.Steps[0].Width = 0
	in.Actuals = []engine.StepMetric{
		{StepID: 0, IsMove: true, Move: cost.Shuffle, Rows: 50, Bytes: 400, Attempts: 1},
	}
	out, err := Render(in, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"move q-error (rows):  n=1 mean=inf max=inf unbounded=1",
		"move q-error (bytes): n=1 mean=inf max=inf unbounded=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ANALYZE missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("summary must never render NaN:\n%s", out)
	}
}

func TestRenderAnalyzeIncompleteExecution(t *testing.T) {
	in := fakeInput()
	in.Actuals = nil // execution failed before any step completed
	out, err := Render(in, Options{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "actual: (step did not complete)") {
		t.Errorf("missing incomplete-step marker:\n%s", out)
	}
	if !strings.Contains(out, "steps=0/2") {
		t.Errorf("summary should count 0 executed steps:\n%s", out)
	}
	if !strings.Contains(out, "move q-error: no move steps executed") {
		t.Errorf("missing empty q-error note:\n%s", out)
	}
}

func TestRenderJSONAnalyze(t *testing.T) {
	in := fakeInput()
	in.Actuals = []engine.StepMetric{
		{StepID: 0, IsMove: true, Move: cost.Shuffle, Rows: 100, Bytes: 800, Attempts: 1},
	}
	out, err := Render(in, Options{Analyze: true, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"kind": "move"`, `"move": "SHUFFLE"`, `"estBytes": 800`,
		`"actual"`, `"qBytes": 1`, `"analyze"`, `"bytesMoved": 800`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestRenderMissingPlan(t *testing.T) {
	if _, err := Render(Input{}, Options{}); err == nil {
		t.Error("Render must reject a missing plan")
	}
}

func TestQErrorHelpers(t *testing.T) {
	if got := fmtQ(math.Inf(1)); got != "inf" {
		t.Errorf("fmtQ(+Inf) = %q", got)
	}
	if got := fmtQ(1.5); got != "1.5" {
		t.Errorf("fmtQ(1.5) = %q", got)
	}
	if m := maxOf([]float64{1, 3, 2}); m != 3 {
		t.Errorf("maxOf = %v", m)
	}
	if p := qPtr(math.NaN()); p != nil {
		t.Error("qPtr(NaN) should be nil")
	}
	if p := qPtr(math.Inf(1)); p == nil || *p != -1 {
		t.Error("qPtr(+Inf) should box the -1 sentinel")
	}
}

func TestWhereName(t *testing.T) {
	cases := map[core.DistKind]string{
		core.DistHash:       "distributed",
		core.DistReplicated: "replicated",
		core.DistSingle:     "single-node",
	}
	for k, want := range cases {
		if got := whereName(k); got != want {
			t.Errorf("whereName(%v) = %q, want %q", k, got, want)
		}
	}
}

// TestRenderRegime pins the three ways the header and the JSON document
// name the search regime.
func TestRenderRegime(t *testing.T) {
	cases := []struct {
		regime     Regime
		text, json string
	}{
		{Regime{}, "retained=4  regime=exhaustive\n", `"regime": "exhaustive"`},
		{Regime{Budget: 5000}, "retained=4  regime=exhaustive\n", `"searchBudget": 5000`},
		{Regime{Greedy: true, Budget: 5000, Bound: 10250},
			"regime=greedy (bound 10250 ≥ budget 5000, chosen before export)\n", `"regimeBound": 10250`},
		{Regime{Greedy: true, Budget: 20000, Wave: 4, Waves: 13},
			"regime=greedy (tripped at wave 4/13)\n", `"trippedWave": 4`},
	}
	for _, c := range cases {
		in := fakeInput()
		in.Regime = c.regime
		text, err := Render(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if header, _, _ := strings.Cut(text, "-- DSQL"); !strings.Contains(header, c.text) {
			t.Errorf("%+v: header misses %q:\n%s", c.regime, c.text, header)
		}
		doc, err := Render(in, Options{JSON: true})
		if err != nil {
			t.Fatal(err)
		}
		wantName := `"regime": "exhaustive"`
		if c.regime.Greedy {
			wantName = `"regime": "greedy"`
		}
		if !strings.Contains(doc, c.json) || !strings.Contains(doc, wantName) {
			t.Errorf("%+v: JSON misses %s or %s:\n%s", c.regime, c.json, wantName, doc)
		}
	}
}
