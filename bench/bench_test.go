package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"pdwqo"
	"pdwqo/internal/difftest"
	"pdwqo/internal/qgen"
	"pdwqo/internal/tpch"
)

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric tables
// in this package naming the same workloads, metrics and units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var file struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: file %q, code %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s metric %d: file %s [%s], code %s [%s]", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndMetrics)
	same("per_layer", file.PerLayer, perLayerMetrics)
}

// TestReplicaMatchesOptimize holds the traced compile pipeline to the one
// it copies: for every TPC-H query, and for a generated join that takes
// the greedy fallback, the replica's DSQL text is DB.Optimize's. -short
// leaves out the five queries that take over a second each to compile.
func TestReplicaMatchesOptimize(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.001, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		name, sql string
		db        *pdwqo.DB
		opts      pdwqo.Options
	}
	var queries []query
	for _, q := range tpch.Queries() {
		if !testing.Short() || !bigCompile[q.Name] {
			queries = append(queries, query{q.Name, q.SQL, db, pdwqo.Options{Verify: true}})
		}
	}
	gen, err := qgen.Generate(qgen.Spec{Topology: qgen.Mixed, Relations: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gdb, err := difftest.OpenQGen(gen)
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, query{gen.Name, gen.SQL, gdb, pdwqo.Options{Verify: true, SearchBudget: 1}})

	for _, q := range queries {
		want, err := q.db.Optimize(q.sql, q.opts)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		rec := newRecorder()
		got, err := replica(q.db, q.sql, q.opts, rec, 1)
		if err != nil {
			t.Fatalf("%s: replica: %v", q.name, err)
		}
		if got.String() != want.DSQL.String() {
			t.Errorf("%s: replica DSQL differs from DB.Optimize:\n%s\nwant:\n%s", q.name, got, want.DSQL)
		}
		if greedy := rec.counts["core.greedy_fallbacks"] == 1; greedy != (want.Regime == "greedy") {
			t.Errorf("%s: replica greedy=%v, DB.Optimize regime %q", q.name, greedy, want.Regime)
		}
	}
}

// TestSmoke runs every workload at its smallest: one pass over the cheap
// query subsets at sf 0.001. Every named metric must be there, finite and
// carrying its unit, no operation may fail, and the two metrics that are
// counts of the program's decisions, not times, must repeat exactly.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 42, passes: 1, sf: 0.001, small: true, outDir: t.TempDir()}
			first := smokeRun(t, cfg, endToEndMetrics)
			second := smokeRun(t, cfg, endToEndMetrics)
			for _, exact := range []string{"plan_cost_geomean", "dms_kb_per_op"} {
				if a, b := first.Metrics[exact].Value, second.Metrics[exact].Value; a != b {
					t.Errorf("%s differs between two runs of the same inputs: %v, %v", exact, a, b)
				}
			}
			cfg.trace = true
			traced := smokeRun(t, cfg, perLayerMetrics)
			if _, err := os.Stat(cfg.outDir + "/trace_" + name + ".json"); err != nil {
				t.Error(err)
			}
			if c := traced.Metrics["pdwqo.replica_coverage"].Value; c <= 0 {
				t.Errorf("pdwqo.replica_coverage = %v", c)
			}
		})
	}
}

func smokeRun(t *testing.T, cfg config, want []metricDef) *result {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(&cfg, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
	return res
}
