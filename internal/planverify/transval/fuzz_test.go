package transval

import (
	"sync"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
	"pdwqo/internal/types"
)

var (
	fuzzShellOnce sync.Once
	fuzzShellVal  *catalog.Shell
)

func fuzzShell() *catalog.Shell {
	fuzzShellOnce.Do(func() {
		s := catalog.NewShell(4)
		for _, tb := range tpch.Tables() {
			if err := s.AddTable(tb); err != nil {
				panic(err)
			}
		}
		fuzzShellVal = s
	})
	return fuzzShellVal
}

// fuzzTemp is a plausible temp-table boundary for steps that read
// [tempdb].[TEMP_ID_1]: a dozen hash-placed integer columns.
func fuzzTemp() *absRel {
	r := &absRel{dist: core.Distribution{Kind: core.DistHash, Cols: algebra.NewColSet(1)}}
	for id := 1; id <= 12; id++ {
		r.cols = append(r.cols, absCol{
			ID:      algebra.ColumnID(id),
			Type:    types.KindInt,
			Origins: map[string]struct{}{"lineitem.l_orderkey": {}},
		})
	}
	return r
}

// FuzzDSQLReparse throws arbitrary SQL at the re-parse and abstract
// re-interpretation pipeline: whatever the input, binding must either
// succeed or fail with an error — never panic, never loop. Seeds are the
// real generator shapes (moves, temp reads, joins, aggregation, TOP,
// parameter markers, the dual-row WHERE 1 = 0 idiom).
func FuzzDSQLReparse(f *testing.F) {
	f.Add("SELECT T2.c1 AS c1, T2.c5 AS c5 FROM (SELECT T1.[c_custkey] AS c1, T1.[c_mktsegment] AS c5 FROM [dbo].[customer] AS T1) AS T2 WHERE (T2.c5 = 'BUILDING')")
	f.Add("SELECT c1, c5 FROM [tempdb].[TEMP_ID_1]")
	f.Add("SELECT T4.c1 AS c1, SUM(T4.c2) AS c9, COUNT(*) AS c10 FROM (SELECT c1, c2 FROM [tempdb].[TEMP_ID_1]) AS T4 GROUP BY T4.c1")
	f.Add("SELECT T9.c5 AS [name] FROM (SELECT TOP 10 T5.c1 AS c5 FROM (SELECT c1 FROM [tempdb].[TEMP_ID_1]) AS T5 ORDER BY T5.c1 DESC) AS T9")
	f.Add("SELECT T5.c1 AS c1, T6.c2 AS c2 FROM (SELECT c1 FROM [tempdb].[TEMP_ID_1]) AS T5 INNER JOIN (SELECT c2 FROM [tempdb].[TEMP_ID_1]) AS T6 ON (T5.c1 = T6.c2)")
	f.Add("SELECT T2.c1 AS c1 FROM (SELECT T1.[o_orderkey] AS c1 FROM [dbo].[orders] AS T1) AS T2 WHERE (T2.c1 = \x00?0\x00)")
	f.Add("SELECT CAST(NULL AS BIGINT) AS c3 WHERE 1 = 0")
	f.Add("SELECT 1 AS dummy")
	f.Add("SELECT T2.c1 AS c1 FROM (SELECT T1.[c_custkey] AS c1 FROM [dbo].[customer] AS T1) AS T2 WHERE EXISTS (SELECT T3.[o_custkey] AS c6 FROM [dbo].[orders] AS T3 WHERE (T3.[o_custkey] = T2.c1))")
	f.Add("SELECT DATEADD(mm, 3, T2.c10) AS c11, YEAR(T2.c10) AS c12, SUBSTRING(T2.c5, 1, 2) AS c13 FROM (SELECT T1.[o_orderdate] AS c10, T1.[o_orderpriority] AS c5 FROM [dbo].[orders] AS T1) AS T2")
	shell := fuzzShell()
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		sel, ok := stmt.(*sqlparser.SelectStmt)
		if !ok {
			return
		}
		si := &sqlInterp{
			shell:     shell,
			temps:     map[string]*absRel{"TEMP_ID_1": fuzzTemp()},
			slotKinds: map[int]types.Kind{0: types.KindInt, 1: types.KindDate},
			acc:       newFragAcc(),
		}
		si.selectRel(sel, nil, false, false)
		si.acc = newFragAcc()
		si.returnRel(sel)
	})
}
