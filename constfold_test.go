package pdwqo

// Constant folding is evaluation: a closed scalar is folded by running it
// through the node executor's own evaluator, or not folded at all. So a
// computation over literals and the same computation over a column must
// give the same answer — the same value or the same typed cast error —
// and the distributed path must agree with the serial reference, which
// folds the same way.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pdwqo/internal/exec"
)

// outcome runs sql serially or distributed (with the verifiers on) and
// renders what came back: every row's values with their kinds, rows
// sorted, or the typed cast error. Any other error renders as its
// message, which differs between the two paths, so it never compares
// equal by accident.
func outcome(db *DB, sql string, distributed bool) string {
	var res *Result
	var err error
	if distributed {
		res, err = db.Execute(sql, Options{Verify: true})
	} else {
		res, err = db.ExecuteSerial(sql)
	}
	if err != nil {
		var ce *exec.CastError
		if errors.As(err, &ce) {
			return fmt.Sprintf("cast error %s→%s: %s", ce.From, ce.To, ce.Reason)
		}
		return "error: " + err.Error()
	}
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for _, v := range row {
			fmt.Fprintf(&b, "%s:%s ", v.Kind(), v)
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func TestConstantFoldingIsEvaluation(t *testing.T) {
	db := openTest(t)
	probes := []struct {
		name           string
		konst, overCol string // the same value, from literals and from a column
	}{
		{"FLOAT to BIGINT overflow", "CAST(1.0e300 AS BIGINT)", "CAST(r_regionkey * 0 + 1.0e300 AS BIGINT)"},
		{"BIGINT to FLOAT precision loss", "CAST(9007199254740993 AS FLOAT)", "CAST(r_regionkey * 0 + 9007199254740993 AS FLOAT)"},
		{"BIGINT to BIT", "CAST(1 AS BIT)", "CAST(r_regionkey * 0 + 1 AS BIT)"},
		{"FLOAT overflow to +Inf", "1.0e308 * 10.0", "(r_regionkey * 0 + 1.0e308) * 10.0"},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			want := ""
			for _, expr := range []string{p.konst, p.overCol} {
				sql := "SELECT " + expr + " AS x FROM region"
				for _, distributed := range []bool{false, true} {
					got := outcome(db, sql, distributed)
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Errorf("%s (distributed=%t):\n%s\nwant (constant form, serial):\n%s", sql, distributed, got, want)
					}
				}
			}
		})
	}
}

// TestDSQLLiteralsReadBack runs constants whose DSQL spelling once read
// back as a different value or kind on the nodes: int64's minimum (which
// the lexer cannot read as one number), a whole FLOAT (read back as
// BIGINT) and negative zero (read back as integer zero).
func TestDSQLLiteralsReadBack(t *testing.T) {
	db := openTest(t)
	for _, sql := range []string{
		"SELECT -9223372036854775807 - 1 AS x FROM region",
		"SELECT r_regionkey, 3.0 AS x FROM region",
		"SELECT 0.0 * -1.0 AS x FROM region",
	} {
		serial, distributed := outcome(db, sql, false), outcome(db, sql, true)
		if serial != distributed {
			t.Errorf("%s:\ndistributed:\n%s\nserial:\n%s", sql, distributed, serial)
		}
	}
}
