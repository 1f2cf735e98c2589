package pdwqo

// Randomized end-to-end testing: a seeded generator (tpch.RandomQuery)
// produces valid SQL over the TPC-H schema (join chains along foreign
// keys, filters, aggregation, DISTINCT, TOP); every query is optimized,
// executed on the appliance, and compared value-for-value against the
// single-node reference executor. This is the E11 correctness contract hammered across
// a few hundred plan shapes instead of a hand-picked suite.

import (
	"math/rand"
	"testing"

	"pdwqo/internal/rowcmp"
	"pdwqo/internal/tpch"
)

func TestFuzzDistributedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz round skipped in -short mode")
	}
	db, err := OpenTPCH(0.001, 4, 1234)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(20260705))
	const trials = 250
	for i := 0; i < trials; i++ {
		sql := tpch.RandomQuery(r)
		// TOP over a non-unique order key is tie-nondeterministic (any
		// qualifying subset is a correct answer); it compares counts.
		rule := rowcmp.Serial(false).AcrossPlans(sql)
		ref, err := db.ExecuteSerial(sql)
		if err != nil {
			t.Fatalf("trial %d: serial: %v\nSQL: %s", i, err, sql)
		}
		for _, opts := range []Options{{}, {Mode: ModeSerialBaseline}} {
			dist, err := db.Execute(sql, opts)
			if err != nil {
				t.Fatalf("trial %d (mode %v): distributed: %v\nSQL: %s", i, opts.Mode, err, sql)
			}
			if err := rule.Compare(relation(rule, "dist", dist), relation(rule, "serial", ref)); err != nil {
				t.Fatalf("trial %d (mode %v): %v\nSQL: %s", i, opts.Mode, err, sql)
			}
		}
	}
}

func TestFuzzPlansAreDeterministic(t *testing.T) {
	db, err := OpenTPCH(0.001, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		sql := tpch.RandomQuery(r)
		a, err := db.Optimize(sql, Options{})
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		b, err := db.Optimize(sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ea, err := a.ExplainText()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b.ExplainText()
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("nondeterministic plan for %s:\n%s\nvs\n%s", sql, ea, eb)
		}
	}
}

// TestPanicRegressionSeeds pins concrete queries that previously crashed
// the process with kind-mismatch panics (mixed-kind CASE results reaching
// ORDER BY / MIN, NOT over a non-boolean, and an IN list whose literals
// are incomparable with the column's histogram). Each must now either
// execute or surface a clean error — never panic — on both the
// distributed and the serial reference path.
func TestPanicRegressionSeeds(t *testing.T) {
	db, err := OpenTPCH(0.001, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		sql     string
		wantErr bool
	}{
		{"order-by-mixed-case", // ORDER BY over BIGINT/VARCHAR mix panicked in the sort comparator
			`SELECT CASE WHEN c_acctbal > 0 THEN 1 ELSE 'neg' END AS k FROM customer ORDER BY k`, true},
		{"min-mixed-case", // MIN over mixed kinds panicked in the aggregate comparator
			`SELECT MIN(CASE WHEN c_acctbal > 0 THEN 1 ELSE 'neg' END) AS m FROM customer`, true},
		{"not-non-boolean", // NOT over BIGINT panicked in Bool()
			`SELECT c_custkey FROM customer WHERE NOT c_custkey`, true},
		{"in-list-incomparable", // histogram estimation panicked comparing 'x' with BIGINT bounds
			`SELECT c_custkey FROM customer WHERE c_custkey IN (1, 'x', '1996-01-01')`, false},
	}
	run := func(t *testing.T, what string, f func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s panicked: %v", what, r)
			}
		}()
		err := f()
		if c := t.Name(); err != nil {
			t.Logf("%s / %s: error (expected on mismatch cases): %v", c, what, err)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var distErr, serialErr error
			run(t, "distributed", func() error {
				_, distErr = db.Execute(c.sql, Options{})
				return distErr
			})
			run(t, "serial", func() error {
				_, serialErr = db.ExecuteSerial(c.sql)
				return serialErr
			})
			if c.wantErr && (distErr == nil || serialErr == nil) {
				t.Errorf("kind mismatch must surface as an error: dist=%v serial=%v", distErr, serialErr)
			}
			if !c.wantErr && (distErr != nil || serialErr != nil) {
				t.Errorf("query must execute cleanly: dist=%v serial=%v", distErr, serialErr)
			}
		})
	}
}
