package memoxml

import (
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/stats"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

func testShell(t *testing.T) *catalog.Shell {
	t.Helper()
	s := catalog.NewShell(4)
	mkVals := func(n int, mod int64) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			v := int64(i)
			if mod > 0 {
				v %= mod
			}
			out[i] = types.NewInt(v)
		}
		return out
	}
	cst, err := stats.BuildTable(map[string][]types.Value{
		"c_custkey": mkVals(100, 0), "c_nationkey": mkVals(100, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	ost, err := stats.BuildTable(map[string][]types.Value{
		"o_orderkey": mkVals(1000, 0), "o_custkey": mkVals(1000, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(&catalog.Table{
		Name: "customer",
		Columns: []catalog.Column{
			{Name: "c_custkey", Type: types.KindInt},
			{Name: "c_nationkey", Type: types.KindInt},
		},
		PrimaryKey: []string{"c_custkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "c_custkey"},
		Stats:      cst,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(&catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: types.KindInt},
			{Name: "o_custkey", Type: types.KindInt},
		},
		PrimaryKey: []string{"o_orderkey"},
		Dist:       catalog.Distribution{Kind: catalog.DistHash, Column: "o_orderkey"},
		Stats:      ost,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func buildMemo(t *testing.T, shell *catalog.Shell, sql string) *memo.Memo {
	t.Helper()
	return buildMemoBudget(t, shell, sql, 0)
}

func buildMemoBudget(t *testing.T, shell *catalog.Shell, sql string, budget int) *memo.Memo {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(shell)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Optimize(shell, norm, budget)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const roundTripSQL = `SELECT c_nationkey, COUNT(*) AS cnt
	FROM customer c, orders o
	WHERE c.c_custkey = o.o_custkey AND o.o_orderkey > 10
	GROUP BY c_nationkey
	HAVING COUNT(*) > 1
	ORDER BY cnt DESC`

func TestEncodeDecodeRoundTrip(t *testing.T) {
	shell := testShell(t)
	m := buildMemo(t, shell, roundTripSQL)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), xmlHeaderPrefix) {
		t.Error("missing XML header")
	}
	d, err := Decode(data, shell)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != int(m.Root) {
		t.Errorf("root: %d vs %d", d.Root, m.Root)
	}
	if len(d.Groups) != m.NumGroups() {
		t.Errorf("groups: %d vs %d", len(d.Groups), m.NumGroups())
	}
	// What is exported must round-trip with identical fingerprints: every
	// logical expression, in order, and the group's winner.
	for _, g := range m.Groups[1:] {
		dg, ok := d.Groups[int(g.ID)]
		if !ok {
			t.Fatalf("group %d missing after decode", g.ID)
		}
		want := exported(g)
		if len(dg.Exprs) != len(want) {
			t.Fatalf("group %d: %d exprs vs %d exported", g.ID, len(dg.Exprs), len(want))
		}
		for i, e := range want {
			if dg.Exprs[i].Op.Fingerprint() != e.Op.Fingerprint() {
				t.Errorf("group %d expr %d: %s vs %s", g.ID, i, dg.Exprs[i].Op.Fingerprint(), e.Op.Fingerprint())
			}
			if len(dg.Exprs[i].Children) != len(e.Children) {
				t.Errorf("group %d expr %d children mismatch", g.ID, i)
			}
			if dg.Exprs[i].Physical != e.Physical {
				t.Errorf("group %d expr %d physical flag", g.ID, i)
			}
			if dg.Exprs[i].Winner != (e == g.Winner()) {
				t.Errorf("group %d expr %d winner flag", g.ID, i)
			}
		}
		// Properties round-trip.
		if g.Props != nil {
			if dg.Rows != g.Props.Rows {
				t.Errorf("group %d rows: %v vs %v", g.ID, dg.Rows, g.Props.Rows)
			}
			if len(dg.OutCols) != len(g.Props.OutCols) {
				t.Errorf("group %d outcols", g.ID)
			}
			for id, cs := range g.Props.Cols {
				got, ok := dg.ColStats[id]
				if !ok || got.NDV != cs.NDV {
					t.Errorf("group %d colstat c%d: %+v vs %+v", g.ID, id, got, cs)
				}
			}
		}
	}
}

const xmlHeaderPrefix = "<?xml"

// exported lists what Encode writes of a group: its logical expressions
// and its winner, in memo order.
func exported(g *memo.Group) []*memo.GroupExpr {
	var out []*memo.GroupExpr
	for _, e := range g.Exprs {
		if !e.Physical || e == g.Winner() {
			out = append(out, e)
		}
	}
	return out
}

// TestExportHoldsLogicalExprsAndOneWinner pins the export contract on the
// 22 TPC-H memos: a decoded group holds every logical expression of the
// memo's group, the winner as its only physical expression, and nothing
// else — which keeps six-relation q05 (6.3 MB when every physical
// alternative of 1,461 groups was shipped) under 400 KB.
func TestExportHoldsLogicalExprsAndOneWinner(t *testing.T) {
	shell, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.Queries() {
		m := buildMemoBudget(t, shell, q.SQL, memo.DefaultBudget)
		data, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if q.Name == "q05" && len(data) > 400<<10 {
			t.Errorf("q05 document is %d KB, want ≤ 400", len(data)>>10)
		}
		d, err := Decode(data, shell)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, g := range m.Groups[1:] {
			logical, physical, winners := 0, 0, 0
			for _, e := range d.Groups[int(g.ID)].Exprs {
				switch {
				case !e.Physical:
					logical++
				case e.Winner:
					winners++
				default:
					physical++
				}
			}
			wantWinners := 0
			if g.Winner() != nil {
				wantWinners = 1
			}
			if logical != len(g.LogicalExprs()) || winners != wantWinners || physical != 0 {
				t.Errorf("%s group %d: %d logical, %d winners, %d other physical; want %d, %d, 0",
					q.Name, g.ID, logical, winners, physical, len(g.LogicalExprs()), wantWinners)
			}
		}
	}
}

func TestWinnerSurvivesRoundTrip(t *testing.T) {
	shell := testShell(t)
	m := buildMemo(t, shell, roundTripSQL)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(data, shell)
	if err != nil {
		t.Fatal(err)
	}
	root := d.Groups[d.Root]
	winners := 0
	for _, e := range root.Exprs {
		if e.Winner {
			winners++
			if !e.Physical {
				t.Error("winner must be physical")
			}
		}
	}
	if winners != 1 {
		t.Errorf("root group winners = %d, want 1", winners)
	}
}

func TestScalarKindsRoundTrip(t *testing.T) {
	shell := testShell(t)
	// Exercise every scalar kind through a single filter.
	m := buildMemo(t, shell, `SELECT c_custkey FROM customer
		WHERE (c_custkey > 1 AND c_custkey + 2 * 3 < 100)
		   OR c_nationkey IN (1, 2)
		   OR c_custkey IS NULL
		   OR -c_custkey = 5`)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data, shell); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	shell := testShell(t)
	if _, err := Decode([]byte("not xml at all <"), shell); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := Decode([]byte(`<Memo root="9" maxCol="1"></Memo>`), shell); err == nil {
		t.Error("missing root group must fail")
	}
	bad := `<Memo root="1" maxCol="1"><Group id="1"><Expr op="Get" table="nope"></Expr></Group></Memo>`
	if _, err := Decode([]byte(bad), shell); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestValuesRoundTrip(t *testing.T) {
	shell := testShell(t)
	m := buildMemo(t, shell, "SELECT c_custkey FROM customer WHERE c_custkey > 5 AND c_custkey < 2")
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(data, shell)
	if err != nil {
		t.Fatal(err)
	}
	foundValues := false
	for _, g := range d.Groups {
		for _, e := range g.Exprs {
			if _, ok := e.Op.(*algebra.Values); ok {
				foundValues = true
			}
		}
	}
	if !foundValues {
		t.Error("Values operator must round-trip")
	}
}
