package rowcmp

import (
	"strings"
	"testing"

	"pdwqo/internal/types"
)

func f(x float64) types.Value { return types.NewFloat(x) }
func i(x int64) types.Value   { return types.NewInt(x) }
func s(x string) types.Value  { return types.NewString(x) }

// sum is 0.1 + 0.2 added at run time (a constant expression is exact):
// 0.30000000000000004, one unit in the last place above 0.3.
var tenth, fifth = 0.1, 0.2
var sum = tenth + fifth

// TestRules is each rule's table of cases. The rejects are what shows no
// rule got looser: a reordering under Exact, a float's last bit under
// Exact, 2e-6 under Serial, the 12th significant digit under Split.
func TestRules(t *testing.T) {
	cols := []string{"k", "v"}
	base := []types.Row{{i(1), f(100)}, {i(2), f(0.3)}}
	cases := []struct {
		name  string
		rule  Rule
		a, b  []types.Row
		bCols []string
		ok    bool
	}{
		{"exact/identical", Exact, base, base, nil, true},
		{"exact/swapped rows", Exact, base, []types.Row{base[1], base[0]}, nil, false},
		{"exact/last float bit", Exact, base, []types.Row{base[0], {i(2), f(sum)}}, nil, false},
		{"exact/column name", Exact, base, base, []string{"k", "w"}, false},
		{"exact/row count", Exact, base, base[:1], nil, false},
		{"exact/int vs float text", Exact, []types.Row{{i(3), f(1)}}, []types.Row{{i(3), f(1.0000001)}}, nil, false},

		{"serial/reordered", Serial(false), base, []types.Row{base[1], base[0]}, nil, true},
		{"serial/ordered rejects reordering", Serial(true), base, []types.Row{base[1], base[0]}, nil, false},
		{"serial/5e-7 relative", Serial(false), base, []types.Row{{i(1), f(100 * (1 + 5e-7))}, base[1]}, nil, true},
		{"serial/2e-6 relative", Serial(false), base, []types.Row{{i(1), f(100 * (1 + 2e-6))}, base[1]}, nil, false},
		{"serial/absolute floor near zero", Serial(false), []types.Row{{f(0)}}, []types.Row{{f(5e-10)}}, nil, true},
		{"serial/strings exact", Serial(false), []types.Row{{s("ASIA")}}, []types.Row{{s("asia")}}, nil, false},
		{"serial/ints read as numbers", Serial(false), []types.Row{{i(1000000)}}, []types.Row{{i(1000001)}}, nil, true},
		{"serial/row count", Serial(false), base, base[:1], nil, false},

		{"split/reassociated sum", Split(false), []types.Row{{f(sum)}}, []types.Row{{f(0.3)}}, nil, true},
		{"split/12th significant digit", Split(false), []types.Row{{f(1.23456789012)}}, []types.Row{{f(1.23456789013)}}, nil, false},
		{"split/reordered", Split(false), base, []types.Row{base[1], base[0]}, nil, true},
		{"split/ordered rejects reordering", Split(true), base, []types.Row{base[1], base[0]}, nil, false},
		{"split/ints exact past 12 digits", Split(false), []types.Row{{i(1234567890123)}}, []types.Row{{i(1234567890124)}}, nil, false},
		{"split/column name", Split(false), base, base, []string{"k", "w"}, false},

		{"top/different rows, same count", Top, base, []types.Row{{i(7), f(1)}, {i(8), f(2)}}, nil, true},
		{"top/row count", Top, base, base[:1], nil, false},
		{"top/column name", Top, base, base, []string{"k", "w"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bCols := cols
			if c.bCols != nil {
				bCols = c.bCols
			}
			err := c.rule.Compare(c.rule.Render("a", cols, c.a), c.rule.Render("b", bCols, c.b))
			if (err == nil) != c.ok {
				t.Errorf("Compare = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// TestSerialToleranceOnText: the serial rule reads texts, so the wire's
// rendering compares as the library's does, and a non-number never
// passes for a number.
func TestSerialToleranceOnText(t *testing.T) {
	a := Relation{Name: "wire", Columns: []string{"x", "y"}, Rows: [][]string{{"1.0000001", "NaN"}}}
	b := Relation{Name: "library", Columns: []string{"x", "y"}, Rows: [][]string{{"1", "5"}}}
	if err := Serial(true).Compare(a, b); err == nil {
		t.Error("NaN agreed with 5")
	}
	b.Rows[0][1] = "NaN"
	if err := Serial(true).Compare(a, b); err != nil {
		t.Error(err)
	}
	if err := Exact.Compare(a, b); err == nil {
		t.Error("Exact accepted 1.0000001 for 1")
	}
}

func TestDivergenceNamesBothSides(t *testing.T) {
	a := Relation{Name: "serial", Columns: []string{"k"}, Rows: [][]string{{"1"}}}
	b := Relation{Name: "parallel(8)", Columns: []string{"k"}, Rows: [][]string{{"2"}}}
	err := Exact.Compare(a, b)
	if err == nil {
		t.Fatal("1 and 2 agreed")
	}
	for _, want := range []string{"row 0 diverged", "serial:      1", "parallel(8): 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%q lacks %q", err, want)
		}
	}
}

func TestAcrossPlans(t *testing.T) {
	if r := Exact.AcrossPlans("SELECT TOP 5 k FROM t ORDER BY k"); r != Top {
		t.Errorf("a TOP query across plans compares under %+v, want Top", r)
	}
	if r := Split(true).AcrossPlans("SELECT k FROM t ORDER BY k"); r != Split(true) {
		t.Errorf("a query without TOP changed rule: %+v", r)
	}
	if !HasOrderBy("select k from t order by k") || HasOrderBy("SELECT k FROM t") {
		t.Error("HasOrderBy")
	}
}
