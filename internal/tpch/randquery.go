package tpch

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// The random query generator of the differential suites: valid SQL over
// this schema, deterministic under the caller's *rand.Rand. Each query
// joins a connected table set walked along foreign keys, filters it on
// numeric, date and string columns (p_name by LIKE prefix), and heads it
// with a projection (a third of them TOP … ORDER BY), a DISTINCT key, or
// a GROUP BY with one to three aggregates (a third of them with HAVING).

// fkEdge is a joinable pair in the schema.
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

// The columns usable in filters and aggregates, and the string values
// the filters draw from.
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

// RandomQuery builds one SQL statement from r.
func RandomQuery(r *rand.Rand) string {
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
		if r.Intn(3) == 0 {
			tail = fmt.Sprintf(" ORDER BY %s", keyCols[names[0]])
			sel = fmt.Sprintf("TOP %d ", 1+r.Intn(50)) + sel
		}
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
