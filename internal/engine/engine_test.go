package engine

import (
	"context"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

func buildAppliance(t testing.TB, nodes int) (*Appliance, tpch.Data) {
	t.Helper()
	return buildApplianceSF(t, 0.001, nodes)
}

func buildApplianceSF(t testing.TB, sf float64, nodes int) (*Appliance, tpch.Data) {
	t.Helper()
	shell, data, err := tpch.BuildShell(sf, nodes, 42)
	if err != nil {
		t.Fatal(err)
	}
	a := New(shell)
	for _, tbl := range tpch.Tables() {
		if err := a.LoadTable(tbl.Name, data[tbl.Name]); err != nil {
			t.Fatal(err)
		}
	}
	return a, data
}

func planFor(t testing.TB, a *Appliance, sql string) *dsql.Plan {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(a.Shell)
	tree, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(tree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memo.Optimize(a.Shell, norm, memo.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	xmlData, err := memoxml.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := memoxml.Decode(xmlData, a.Shell)
	if err != nil {
		t.Fatal(err)
	}
	model := cost.NewModel(a.Shell.Topology.ComputeNodes, cost.DefaultLambda())
	p, err := core.New(dec, a.Shell, model, core.Config{}).Optimize()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := dsql.Generate(p, norm.OutputCols())
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func TestLoadTablePlacement(t *testing.T) {
	a, data := buildAppliance(t, 4)
	// Hash table: rows partition exactly.
	total := 0
	for _, n := range a.Compute {
		cols, err := n.DB.ScanColumns("orders")
		if err != nil {
			t.Fatal(err)
		}
		total += cols.N
	}
	if total != len(data["orders"]) {
		t.Errorf("orders partitioned: %d of %d", total, len(data["orders"]))
	}
	// Replicated table: full copy everywhere.
	for _, n := range a.Compute {
		cols, err := n.DB.ScanColumns("nation")
		if err != nil {
			t.Fatal(err)
		}
		if cols.N != len(data["nation"]) {
			t.Errorf("nation replica on node %d: %d rows", n.ID, cols.N)
		}
	}
	if err := a.LoadTable("bogus", nil); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestExecuteShuffleJoin(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT * FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`)
	res, err := a.Execute(context.Background(), p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected rows")
	}
	// Metrics: one move step recorded.
	found := false
	for _, s := range a.Metrics.Snapshot() {
		if s.IsMove && s.Bytes > 0 {
			found = true
		}
	}
	if !found {
		t.Error("move metrics missing")
	}
}

func TestTempTablesCleanedUp(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT * FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000`)
	if _, err := a.Execute(context.Background(), p, ExecConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range append(a.Compute, a.Control) {
		for _, name := range n.DB.Names() {
			if len(name) > 4 && name[:4] == "TEMP" {
				t.Errorf("temp table %q survived on node %d", name, n.ID)
			}
		}
	}
	// Re-running the same plan works (no name collisions).
	if _, err := a.Execute(context.Background(), p, ExecConfig{}); err != nil {
		t.Fatalf("re-execute: %v", err)
	}
}

func TestExecuteOrderedTop(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT TOP 5 c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC`)
	res, err := a.Execute(context.Background(), p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("top 5: %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if types.Compare(res.Rows[i-1][1], res.Rows[i][1]) < 0 {
			t.Error("descending order violated")
		}
	}
}

func TestShuffleRedistribution(t *testing.T) {
	// After a shuffle on o_custkey, all rows for a given customer must be
	// on the node owning that hash — verified indirectly by a grouped
	// count matching a direct computation.
	a, data := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT o_custkey, COUNT(*) AS cnt, SUM(o_totalprice) AS s,
		MIN(o_orderdate) AS d FROM orders GROUP BY o_custkey`)
	res, err := a.Execute(context.Background(), p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	for _, r := range data["orders"] {
		want[r[1].Int()]++
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("groups: %d vs %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		if r[1].Int() != want[r[0].Int()] {
			t.Fatalf("count for custkey %d: %d vs %d", r[0].Int(), r[1].Int(), want[r[0].Int()])
		}
	}
}

func TestBroadcastExecution(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT l_quantity FROM part, lineitem
		WHERE p_partkey = l_partkey AND p_name LIKE 'forest%'`)
	hasBroadcast := false
	for _, s := range p.Steps {
		if s.Kind == dsql.StepMove && s.MoveKind == cost.Broadcast {
			hasBroadcast = true
		}
	}
	if !hasBroadcast {
		t.Skip("plan did not broadcast; nothing to exercise")
	}
	if _, err := a.Execute(context.Background(), p, ExecConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestScalarAggregateOnControl(t *testing.T) {
	a, data := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT SUM(l_quantity) AS s, COUNT(*) AS c FROM lineitem`)
	res, err := a.Execute(context.Background(), p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("scalar agg: %d rows", len(res.Rows))
	}
	if res.Rows[0][1].Int() != int64(len(data["lineitem"])) {
		t.Errorf("count: %v vs %d", res.Rows[0][1], len(data["lineitem"]))
	}
}

func TestExecuteBadPlan(t *testing.T) {
	a, _ := buildAppliance(t, 2)
	bad := &dsql.Plan{Steps: []dsql.Step{{
		ID: 0, Kind: dsql.StepReturn, SQL: "SELECT nope FROM nothing", Where: core.DistHash,
	}}}
	if _, err := a.Execute(context.Background(), bad, ExecConfig{}); err == nil {
		t.Error("bad SQL must error")
	}
	empty := &dsql.Plan{}
	if _, err := a.Execute(context.Background(), empty, ExecConfig{}); err == nil {
		t.Error("plan without return step must error")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, _ := buildAppliance(t, 4)
	p := planFor(t, a, `SELECT o_custkey, COUNT(*) AS c FROM orders GROUP BY o_custkey`)
	r1, err := a.Execute(context.Background(), p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Execute(context.Background(), p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Error("row counts differ across runs")
	}
}

// handStep builds a move step for direct engine testing. Move steps are
// idempotent, matching what dsql.Generate emits.
func handStep(id int, kind cost.MoveKind, where core.DistKind, sql, dest, hashCol string, cols []catalog.Column) dsql.Step {
	return dsql.Step{
		ID: id, Kind: dsql.StepMove, MoveKind: kind, Where: where, Idempotent: true,
		SQL: sql, Dest: dest, HashCol: hashCol, DestCols: cols,
	}
}

// TestAllSevenMoveKinds drives each §3.3.2 DMS operation through the
// engine with hand-built DSQL plans and checks placement semantics.
func TestAllSevenMoveKinds(t *testing.T) {
	a, data := buildAppliance(t, 4)
	nNation := len(data["nation"])
	nOrders := len(data["orders"])
	keyCols := []catalog.Column{{Name: "c1", Type: types.KindInt}}

	countOn := func(nodes []*Node, table string) (total int, per []int) {
		for _, n := range nodes {
			cols, err := n.DB.ScanColumns(table)
			if err != nil {
				t.Fatalf("scan %s on node %d: %v", table, n.ID, err)
			}
			per = append(per, cols.N)
			total += cols.N
		}
		return total, per
	}
	returnStep := func(id int, from string) dsql.Step {
		return dsql.Step{
			ID: id, Kind: dsql.StepReturn, Where: core.DistSingle,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[" + from + "]) AS T",
		}
	}
	_ = returnStep

	// 1. Shuffle: orders spread by o_custkey; every row lands exactly once.
	plan := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.Shuffle, core.DistHash,
			"SELECT T1.[o_custkey] AS c1 FROM [dbo].[orders] AS T1", "T_SH", "c1", keyCols),
		{ID: 1, Kind: dsql.StepReturn, Where: core.DistHash,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_SH]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	res, err := a.Execute(context.Background(), plan, ExecConfig{})
	if err != nil {
		t.Fatalf("shuffle: %v", err)
	}
	if len(res.Rows) != nOrders {
		t.Errorf("shuffle lost rows: %d vs %d", len(res.Rows), nOrders)
	}

	// 2. Broadcast: every node receives the full nation key set.
	planB := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.Broadcast, core.DistReplicated,
			"SELECT T1.[n_nationkey] AS c1 FROM [dbo].[nation] AS T1", "T_BC", "", keyCols),
		{ID: 1, Kind: dsql.StepReturn, Where: core.DistReplicated,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_BC]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	if _, err := a.Execute(context.Background(), planB, ExecConfig{}); err != nil {
		t.Fatalf("broadcast: %v", err)
	}

	// 3. Trim: the replicated nation table redistributes in place; the
	// copies across nodes must partition exactly (each row kept once).
	planT := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.Trim, core.DistReplicated,
			"SELECT T1.[n_nationkey] AS c1 FROM [dbo].[nation] AS T1", "T_TR", "c1", keyCols),
		{ID: 1, Kind: dsql.StepReturn, Where: core.DistHash,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_TR]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	resT, err := a.Execute(context.Background(), planT, ExecConfig{})
	if err != nil {
		t.Fatalf("trim: %v", err)
	}
	if len(resT.Rows) != nNation {
		t.Errorf("trim must keep each row exactly once: %d vs %d", len(resT.Rows), nNation)
	}
	// Every replica hashes every row, though each keeps only its share.
	if got, want := resT.Steps[0].HashedRow, int64(len(a.Compute)*nNation); got != want {
		t.Errorf("trim hashed %d rows, want %d", got, want)
	}

	// 4/5. PartitionMove then ControlNodeMove: gather nation keys onto the
	// control node, then replicate them back out to every compute node.
	planPC := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.PartitionMove, core.DistReplicated,
			"SELECT T1.[n_nationkey] AS c1 FROM [dbo].[nation] AS T1", "T_PM", "", keyCols),
		handStep(1, cost.ControlNodeMove, core.DistSingle,
			"SELECT T1.c1 AS c1 FROM [tempdb].[T_PM] AS T1", "T_CN", "", keyCols),
		{ID: 2, Kind: dsql.StepReturn, Where: core.DistReplicated,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_CN]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	resPC, err := a.Execute(context.Background(), planPC, ExecConfig{})
	if err != nil {
		t.Fatalf("partition+controlmove: %v", err)
	}
	if len(resPC.Rows) != nNation {
		t.Errorf("control-node round trip: %d vs %d", len(resPC.Rows), nNation)
	}

	// 6. ReplicatedBroadcast: read one replica, replicate to all nodes.
	planRB := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.ReplicatedBroadcast, core.DistReplicated,
			"SELECT T1.[n_nationkey] AS c1 FROM [dbo].[nation] AS T1", "T_RB", "", keyCols),
		{ID: 1, Kind: dsql.StepReturn, Where: core.DistReplicated,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_RB]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	resRB, err := a.Execute(context.Background(), planRB, ExecConfig{})
	if err != nil {
		t.Fatalf("replicated broadcast: %v", err)
	}
	if len(resRB.Rows) != nNation {
		t.Errorf("replicated broadcast: %d vs %d", len(resRB.Rows), nNation)
	}

	// 7. RemoteCopySingle: one replica copied to the control node.
	planRC := &dsql.Plan{Steps: []dsql.Step{
		handStep(0, cost.RemoteCopySingle, core.DistReplicated,
			"SELECT T1.[n_nationkey] AS c1 FROM [dbo].[nation] AS T1", "T_RC", "", keyCols),
		{ID: 1, Kind: dsql.StepReturn, Where: core.DistSingle,
			SQL: "SELECT T.c1 AS [c1] FROM (SELECT c1 FROM [tempdb].[T_RC]) AS T"},
	}, OutCols: []algebra.ColumnMeta{{ID: 1, Name: "c1", Type: types.KindInt}}}
	resRC, err := a.Execute(context.Background(), planRC, ExecConfig{})
	if err != nil {
		t.Fatalf("remote copy: %v", err)
	}
	if len(resRC.Rows) != nNation {
		t.Errorf("remote copy: %d vs %d", len(resRC.Rows), nNation)
	}
	_ = countOn
}
