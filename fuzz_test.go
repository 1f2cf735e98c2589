package pdwqo

// Randomized end-to-end testing: a seeded generator produces valid SQL
// over the TPC-H schema (join chains along foreign keys, filters,
// aggregation, DISTINCT, TOP); every query is optimized, executed on the
// appliance, and compared value-for-value against the single-node
// reference executor. This is the E11 correctness contract hammered across
// a few hundred plan shapes instead of a hand-picked suite.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fkEdge is a joinable pair in the TPC-H schema.
type fkEdge struct {
	from, fromCol string
	to, toCol     string
}

var fkEdges = []fkEdge{
	{"orders", "o_custkey", "customer", "c_custkey"},
	{"lineitem", "l_orderkey", "orders", "o_orderkey"},
	{"lineitem", "l_partkey", "part", "p_partkey"},
	{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	{"partsupp", "ps_partkey", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
	{"customer", "c_nationkey", "nation", "n_nationkey"},
	{"supplier", "s_nationkey", "nation", "n_nationkey"},
	{"nation", "n_regionkey", "region", "r_regionkey"},
}

// numeric/date/string columns usable in filters and aggregates.
var (
	numericCols = map[string][]string{
		"customer": {"c_acctbal"},
		"orders":   {"o_totalprice"},
		"lineitem": {"l_quantity", "l_extendedprice", "l_discount"},
		"part":     {"p_size", "p_retailprice"},
		"partsupp": {"ps_availqty", "ps_supplycost"},
		"supplier": {"s_acctbal"},
	}
	dateCols = map[string][]string{
		"orders":   {"o_orderdate"},
		"lineitem": {"l_shipdate", "l_commitdate"},
	}
	stringCols = map[string][]string{
		"customer": {"c_mktsegment"},
		"orders":   {"o_orderpriority", "o_orderstatus"},
		"lineitem": {"l_shipmode", "l_returnflag"},
		"part":     {"p_name", "p_container"},
		"nation":   {"n_name"},
		"region":   {"r_name"},
	}
	stringVals = map[string][]string{
		"c_mktsegment":    {"BUILDING", "MACHINERY", "AUTOMOBILE"},
		"o_orderpriority": {"1-URGENT", "5-LOW"},
		"o_orderstatus":   {"O", "F"},
		"l_shipmode":      {"AIR", "SHIP", "TRUCK"},
		"l_returnflag":    {"R", "N"},
		"p_name":          {"forest", "green", "almond"},
		"p_container":     {"SM CASE", "LG BOX"},
		"n_name":          {"CANADA", "FRANCE", "CHINA"},
		"r_name":          {"ASIA", "EUROPE"},
	}
	keyCols = map[string]string{
		"customer": "c_custkey", "orders": "o_orderkey", "lineitem": "l_orderkey",
		"part": "p_partkey", "partsupp": "ps_partkey", "supplier": "s_suppkey",
		"nation": "n_nationkey", "region": "r_regionkey",
	}
)

// randomQuery builds one SQL statement.
func randomQuery(r *rand.Rand) string {
	// Pick a connected set of tables by walking FK edges.
	tables := map[string]bool{}
	start := []string{"lineitem", "orders", "customer", "partsupp"}[r.Intn(4)]
	tables[start] = true
	var joins []fkEdge
	for i := 0; i < r.Intn(3); i++ {
		var candidates []fkEdge
		for _, e := range fkEdges {
			if tables[e.from] != tables[e.to] {
				candidates = append(candidates, e)
			}
		}
		if len(candidates) == 0 {
			break
		}
		e := candidates[r.Intn(len(candidates))]
		tables[e.from] = true
		tables[e.to] = true
		joins = append(joins, e)
	}

	var names []string
	for t := range tables {
		names = append(names, t)
	}
	// Deterministic order for reproducible SQL.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}

	var where []string
	for _, e := range joins {
		where = append(where, fmt.Sprintf("%s = %s", e.fromCol, e.toCol))
	}
	// Random filters.
	for _, t := range names {
		if cols := numericCols[t]; len(cols) > 0 && r.Intn(2) == 0 {
			c := cols[r.Intn(len(cols))]
			op := []string{">", "<", ">=", "<="}[r.Intn(4)]
			where = append(where, fmt.Sprintf("%s %s %d", c, op, r.Intn(5000)))
		}
		if cols := dateCols[t]; len(cols) > 0 && r.Intn(3) == 0 {
			c := cols[r.Intn(len(cols))]
			year := 1993 + r.Intn(4)
			where = append(where, fmt.Sprintf("%s >= '%d-01-01'", c, year))
		}
		if cols := stringCols[t]; len(cols) > 0 && r.Intn(3) == 0 {
			c := cols[r.Intn(len(cols))]
			vals := stringVals[c]
			v := vals[r.Intn(len(vals))]
			if c == "p_name" {
				where = append(where, fmt.Sprintf("%s LIKE '%s%%'", c, v))
			} else if r.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("%s = '%s'", c, v))
			} else {
				where = append(where, fmt.Sprintf("%s IN ('%s', '%s')", c, vals[0], vals[len(vals)-1]))
			}
		}
	}

	// Select shape: plain projection, DISTINCT keys, or aggregation.
	shape := r.Intn(3)
	var sel, tail string
	switch shape {
	case 0:
		var items []string
		for _, t := range names {
			items = append(items, keyCols[t])
		}
		if cols := numericCols[names[0]]; len(cols) > 0 {
			items = append(items, cols[0])
		}
		sel = strings.Join(items, ", ")
		if r.Intn(3) == 0 {
			tail = fmt.Sprintf(" ORDER BY %s", keyCols[names[0]])
			sel = fmt.Sprintf("TOP %d ", 1+r.Intn(50)) + sel
		}
	case 1:
		sel = "DISTINCT " + keyCols[names[r.Intn(len(names))]]
	default:
		groupTable := names[r.Intn(len(names))]
		key := keyCols[groupTable]
		aggTable := names[r.Intn(len(names))]
		aggCol := keyCols[aggTable]
		if cols := numericCols[aggTable]; len(cols) > 0 {
			aggCol = cols[r.Intn(len(cols))]
		}
		aggs := []string{
			fmt.Sprintf("COUNT(*) AS cnt"),
			fmt.Sprintf("SUM(%s) AS s", aggCol),
			fmt.Sprintf("MIN(%s) AS mn", aggCol),
		}
		sel = key + ", " + strings.Join(aggs[:1+r.Intn(3)], ", ")
		tail = " GROUP BY " + key
		if r.Intn(3) == 0 {
			tail += " HAVING COUNT(*) > 1"
		}
	}

	sql := "SELECT " + sel + " FROM " + strings.Join(names, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql + tail
}

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
		sql := randomQuery(r)
		for _, opts := range []Options{{}, {Mode: ModeSerialBaseline}} {
			dist, err := db.Execute(sql, opts)
			if err != nil {
				t.Fatalf("trial %d (mode %v): distributed: %v\nSQL: %s", i, opts.Mode, err, sql)
			}
			ref, err := db.ExecuteSerial(sql)
			if err != nil {
				t.Fatalf("trial %d: serial: %v\nSQL: %s", i, err, sql)
			}
			// TOP over a non-unique order key is tie-nondeterministic
			// (any qualifying subset is a correct answer); compare counts.
			if strings.Contains(sql, "TOP ") {
				if len(dist.Rows) != len(ref.Rows) {
					t.Fatalf("trial %d: TOP count mismatch %d vs %d\nSQL: %s",
						i, len(dist.Rows), len(ref.Rows), sql)
				}
				continue
			}
			dc, rc := canon(dist, false), canon(ref, false)
			if len(dc) != len(rc) {
				t.Fatalf("trial %d (mode %v): row count %d vs %d\nSQL: %s",
					i, opts.Mode, len(dc), len(rc), sql)
			}
			for j := range dc {
				if !rowsEquivalent(dc[j], rc[j]) {
					t.Fatalf("trial %d (mode %v): row %d differs\ndist:   %s\nserial: %s\nSQL: %s",
						i, opts.Mode, j, dc[j], rc[j], sql)
				}
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
		sql := randomQuery(r)
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
