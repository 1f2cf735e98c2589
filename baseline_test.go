package pdwqo_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"pdwqo"
	"pdwqo/internal/difftest"
	"pdwqo/internal/qgen"
	"pdwqo/internal/tpch"
)

var updateBaseline = flag.Bool("update", false, "rewrite testdata/serial_baseline.txt from the plans this build chooses")

// TestSerialBaselinePlans holds the "parallelize the best serial plan"
// baseline (§1.2, §3.2; ModeSerialBaseline) to a record: the SHA-256 of its
// DSQL text and its cost, bit for bit, for the 22 TPC-H queries on one
// shared 8-node appliance and the generated corpus up to 10 relations —
// with no search budget, and with a search budget of 1, which trips the
// enumeration and re-plans over the greedy join order's fixed memo. The
// full search is pinned elsewhere (EXPLAIN goldens, the difftest suites);
// this is the serial winner's only byte-for-byte record.
func TestSerialBaselinePlans(t *testing.T) {
	tpchDB, err := difftest.SharedTPCH(0.002, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	var cases []regimeCase
	for _, q := range tpch.Queries() {
		cases = append(cases, regimeCase{q.Name, q.SQL, tpchDB})
	}
	for _, spec := range qgen.SmallCorpus() {
		cases = append(cases, openSpec(t, spec))
	}
	var got strings.Builder
	for _, c := range cases {
		for _, budget := range []int{0, 1} {
			plan, err := c.db.Optimize(c.sql, pdwqo.Options{Mode: pdwqo.ModeSerialBaseline, SearchBudget: budget, Verify: true})
			if err != nil {
				t.Fatalf("%s search budget %d: %v", c.name, budget, err)
			}
			fmt.Fprintf(&got, "%s budget=%d regime=%q sha256=%x cost=%s\n", c.name, budget, plan.Regime,
				sha256.Sum256([]byte(plan.DSQL.String())), strconv.FormatFloat(plan.Cost(), 'g', -1, 64))
		}
	}
	const path = "testdata/serial_baseline.txt"
	if *updateBaseline {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d baseline lines, record has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("serial baseline plan changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
