// Golden-file suite locking down EXPLAIN output for the full TPC-H
// corpus. The external test package may import pdwqo (which itself
// imports internal/explain) without a cycle — test-only imports are
// outside the package graph.
package explain_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdwqo"
)

var update = flag.Bool("update", false, "rewrite the golden EXPLAIN files")

// The golden corpus configuration. Changing any of these regenerates
// different plans — bump the goldens with -update in the same change.
const (
	goldenSF    = 0.01
	goldenNodes = 4
	goldenSeed  = 42
)

var goldenDB *pdwqo.DB

func TestMain(m *testing.M) {
	flag.Parse()
	var err error
	goldenDB, err = pdwqo.OpenTPCH(goldenSF, goldenNodes, goldenSeed)
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestExplainGoldens locks the EXPLAIN text of every adapted TPC-H query
// against testdata/explain/<q>.golden, and requires the serial and
// parallel enumerators to render byte-identical output (EXPLAIN shows
// search statistics, so this also certifies that OptionsConsidered /
// OptionsRetained are deterministic under concurrency).
func TestExplainGoldens(t *testing.T) {
	for _, name := range pdwqo.TPCHQueryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sql, ok := pdwqo.TPCHQuery(name)
			if !ok {
				t.Fatalf("missing TPC-H query %s", name)
			}
			serial, err := goldenDB.Optimize(sql, pdwqo.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := goldenDB.Optimize(sql, pdwqo.Options{Parallelism: goldenNodes})
			if err != nil {
				t.Fatal(err)
			}
			got, err := serial.ExplainText()
			if err != nil {
				t.Fatal(err)
			}
			gotPar, err := parallel.ExplainText()
			if err != nil {
				t.Fatal(err)
			}
			if got != gotPar {
				t.Errorf("serial and parallel EXPLAIN diverge:%s", firstDiff(got, gotPar))
			}
			compareGolden(t, filepath.Join("testdata", "explain", name+".golden"), got)
		})
	}
}

// TestExplainJSONGolden locks the machine-readable shape for one
// representative query (q05: two moves plus a return).
func TestExplainJSONGolden(t *testing.T) {
	sql, _ := pdwqo.TPCHQuery("q05")
	plan, err := goldenDB.Optimize(sql, pdwqo.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.ExplainJSON()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "explain", "q05.json.golden"), got)
}

// TestGoldenSplitAdoption asserts the partial-aggregate split is really
// visible in the locked corpus — the goldens are only worth their bytes
// if the transform they certify actually fires. q01 and q05 must carry
// the full PartialGroupBy → SHUFFLE → FinalGroupBy chain, every golden
// with a partial must also show its finalizer, and at least three
// queries across the corpus must adopt the split.
func TestGoldenSplitAdoption(t *testing.T) {
	adopted := 0
	for _, name := range pdwqo.TPCHQueryNames() {
		data, err := os.ReadFile(filepath.Join("testdata", "explain", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), "PartialGroupBy") {
			if !strings.Contains(string(data), "FinalGroupBy") {
				t.Errorf("%s: golden shows a partial aggregation without a finalizer", name)
			}
			adopted++
		}
	}
	if adopted < 3 {
		t.Errorf("only %d golden plans adopt the split, want at least 3", adopted)
	}
	for _, name := range []string{"q01", "q05"} {
		data, err := os.ReadFile(filepath.Join("testdata", "explain", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"PartialGroupBy", "SHUFFLE", "FinalGroupBy"} {
			if !strings.Contains(string(data), want) {
				t.Errorf("%s: golden misses %q in the split chain", name, want)
			}
		}
	}
}

// TestExplainAnalyzeShowsSplit executes q01 under EXPLAIN ANALYZE: the
// report must render the split pair and per-move q_bytes actuals, so the
// shrunken shuffle is observable, not just planned.
func TestExplainAnalyzeShowsSplit(t *testing.T) {
	sql, _ := pdwqo.TPCHQuery("q01")
	plan, err := goldenDB.Optimize(sql, pdwqo.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := goldenDB.ExplainAnalyze(plan, pdwqo.ExecConfig{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PartialGroupBy", "FinalGroupBy", "q_bytes="} {
		if !strings.Contains(report, want) {
			t.Errorf("EXPLAIN ANALYZE misses %q:\n%s", want, report)
		}
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with: go test ./internal/explain -run TestExplain -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("EXPLAIN output drifted from %s (re-bless with -update if intended):%s",
			path, firstDiff(string(want), got))
	}
}

// firstDiff points at the first differing line to keep failures readable.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("\n  line %d:\n    want %s\n    got  %s", i+1, al[i], bl[i])
		}
	}
	return "\n  (outputs differ in length)"
}
