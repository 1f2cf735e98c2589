// Package difftest is the differential harness certifying that the
// parallel enumeration and execution paths are observationally identical
// to the serial references: for every query in the corpus the cheapest
// plan cost, the generated DSQL step sequence, and the executed result
// relation must match byte-for-byte between Parallelism=1 and any higher
// setting. The corpus is the full adapted TPC-H suite plus a seeded
// stream of random schema-valid queries (join chains along foreign keys,
// filters, DISTINCT, aggregation).
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pdwqo"
)

// Case is one corpus entry.
type Case struct {
	Name string
	SQL  string
}

// TPCHCases returns the full adapted TPC-H suite in name order.
func TPCHCases() []Case {
	var out []Case
	for _, name := range pdwqo.TPCHQueryNames() {
		sql, _ := pdwqo.TPCHQuery(name)
		out = append(out, Case{Name: name, SQL: sql})
	}
	return out
}

// FuzzCases generates n random schema-valid queries, deterministic under
// seed. The shapes mirror the package-level fuzz tests: a connected table
// set walked along TPC-H foreign keys, random numeric/date/string
// filters, and a projection, DISTINCT, or GROUP BY head.
func FuzzCases(n int, seed int64) []Case {
	r := rand.New(rand.NewSource(seed))
	out := make([]Case, n)
	for i := range out {
		out[i] = Case{Name: fmt.Sprintf("fuzz-%03d", i), SQL: randomSQL(r)}
	}
	return out
}

// Diff optimizes and executes one case through the serial path
// (Parallelism=1) and the parallel path (Parallelism=par) and returns a
// descriptive error on the first divergence. Equality is exact — same
// cost bits, same DSQL text, same rows in the same order — because both
// paths are required to be fully deterministic.
func Diff(db *pdwqo.DB, c Case, par int) error {
	serial, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("%s: serial optimize: %w", c.Name, err)
	}
	parallel, err := db.Optimize(c.SQL, pdwqo.Options{Parallelism: par})
	if err != nil {
		return fmt.Errorf("%s: parallel optimize: %w", c.Name, err)
	}
	if s, p := serial.Cost(), parallel.Cost(); s != p {
		return fmt.Errorf("%s: plan cost diverged: serial %v, parallel(%d) %v", c.Name, s, par, p)
	}
	sdsql, pdsql := serial.DSQL.String(), parallel.DSQL.String()
	if sdsql != pdsql {
		return fmt.Errorf("%s: DSQL steps diverged:\n--- serial ---\n%s--- parallel(%d) ---\n%s%s",
			c.Name, sdsql, par, pdsql, firstDiffLine(sdsql, pdsql))
	}

	sres, err := runAt(db, serial, 1)
	if err != nil {
		return fmt.Errorf("%s: serial execute: %w", c.Name, err)
	}
	pres, err := runAt(db, parallel, par)
	if err != nil {
		return fmt.Errorf("%s: parallel execute: %w", c.Name, err)
	}
	return diffResults(c.Name, par, sres, pres)
}

// runAt executes plan with the step fan-out bounded to par workers and
// every other execution knob at its default.
func runAt(db *pdwqo.DB, plan *pdwqo.QueryPlan, par int) (*pdwqo.Result, error) {
	return db.Run(context.Background(), plan, pdwqo.ExecConfig{Parallelism: par})
}

// Verify compiles one case with the static plan verifier enabled under
// each option variant and returns the first verification failure. The
// verifier cross-checks the optimized tree, the DSQL step sequence and
// the serialized memo without executing, so a failure here is a planner
// soundness bug, not a data bug.
func Verify(db *pdwqo.DB, c Case, variants ...pdwqo.Options) error {
	for _, opts := range variants {
		opts.Verify = true
		if _, err := db.Optimize(c.SQL, opts); err != nil {
			return fmt.Errorf("%s (mode=%v budget=%d seeded=%v): %w",
				c.Name, opts.Mode, opts.Budget, opts.SeedCollocated, err)
		}
	}
	return nil
}

// diffResults asserts exact row-for-row equality. The engine's merges are
// node- and source-ordered under any worker schedule, so even the float
// low bits must agree; comparing sorted canonical rows as a fallback
// would mask an ordering regression.
func diffResults(name string, par int, s, p *pdwqo.Result) error {
	if sc, pc := strings.Join(s.Columns, "|"), strings.Join(p.Columns, "|"); sc != pc {
		return fmt.Errorf("%s: result columns diverged: serial %q, parallel(%d) %q", name, sc, par, pc)
	}
	if len(s.Rows) != len(p.Rows) {
		return fmt.Errorf("%s: row count diverged: serial %d, parallel(%d) %d", name, len(s.Rows), par, len(p.Rows))
	}
	for i := range s.Rows {
		a, b := canonRow(s.Rows[i]), canonRow(p.Rows[i])
		if a != b {
			return fmt.Errorf("%s: row %d diverged:\n  serial:      %s\n  parallel(%d): %s", name, i, a, par, b)
		}
	}
	return nil
}

func canonRow(row pdwqo.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// firstDiffLine points at the first differing DSQL line, to keep large
// plan dumps readable.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at line %d:\n  serial:   %s\n  parallel: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("plans diverge in length: %d vs %d lines", len(al), len(bl))
}

// --- seeded query generator over the TPC-H schema ---

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
		"nation":   {"n_name"},
		"region":   {"r_name"},
	}
	stringVals = map[string][]string{
		"c_mktsegment":    {"BUILDING", "MACHINERY", "AUTOMOBILE"},
		"o_orderpriority": {"1-URGENT", "5-LOW"},
		"o_orderstatus":   {"O", "F"},
		"l_shipmode":      {"AIR", "SHIP", "TRUCK"},
		"l_returnflag":    {"R", "N"},
		"n_name":          {"CANADA", "FRANCE", "CHINA"},
		"r_name":          {"ASIA", "EUROPE"},
	}
	keyCols = map[string]string{
		"customer": "c_custkey", "orders": "o_orderkey", "lineitem": "l_orderkey",
		"part": "p_partkey", "partsupp": "ps_partkey", "supplier": "s_suppkey",
		"nation": "n_nationkey", "region": "r_regionkey",
	}
)

func randomSQL(r *rand.Rand) string {
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
		tables[e.from], tables[e.to] = true, true
		joins = append(joins, e)
	}

	var names []string
	for t := range tables {
		names = append(names, t)
	}
	sort.Strings(names)

	var where []string
	for _, e := range joins {
		where = append(where, fmt.Sprintf("%s = %s", e.fromCol, e.toCol))
	}
	for _, t := range names {
		if cols := numericCols[t]; len(cols) > 0 && r.Intn(2) == 0 {
			c := cols[r.Intn(len(cols))]
			op := []string{">", "<", ">=", "<="}[r.Intn(4)]
			where = append(where, fmt.Sprintf("%s %s %d", c, op, r.Intn(5000)))
		}
		if cols := dateCols[t]; len(cols) > 0 && r.Intn(3) == 0 {
			c := cols[r.Intn(len(cols))]
			where = append(where, fmt.Sprintf("%s >= '%d-01-01'", c, 1993+r.Intn(4)))
		}
		if cols := stringCols[t]; len(cols) > 0 && r.Intn(3) == 0 {
			c := cols[r.Intn(len(cols))]
			vals := stringVals[c]
			if r.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("%s = '%s'", c, vals[r.Intn(len(vals))]))
			} else {
				where = append(where, fmt.Sprintf("%s IN ('%s', '%s')", c, vals[0], vals[len(vals)-1]))
			}
		}
	}

	var sel, tail string
	switch r.Intn(3) {
	case 0:
		var items []string
		for _, t := range names {
			items = append(items, keyCols[t])
		}
		if cols := numericCols[names[0]]; len(cols) > 0 {
			items = append(items, cols[0])
		}
		sel = strings.Join(items, ", ")
	case 1:
		sel = "DISTINCT " + keyCols[names[r.Intn(len(names))]]
	default:
		key := keyCols[names[r.Intn(len(names))]]
		aggTable := names[r.Intn(len(names))]
		aggCol := keyCols[aggTable]
		if cols := numericCols[aggTable]; len(cols) > 0 {
			aggCol = cols[r.Intn(len(cols))]
		}
		aggs := []string{
			"COUNT(*) AS cnt",
			fmt.Sprintf("SUM(%s) AS s", aggCol),
			fmt.Sprintf("MIN(%s) AS mn", aggCol),
		}
		sel = key + ", " + strings.Join(aggs[:1+r.Intn(3)], ", ")
		tail = " GROUP BY " + key
	}

	sql := "SELECT " + sel + " FROM " + strings.Join(names, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql + tail
}
