// Package rowcmp states, once, the rules by which the differential suites
// compare two results of one query. A result is compared as a Relation:
// its column names and each row's fields as text, which is the form the
// wire protocol already carries. Render produces it from typed rows.
//
// There are three rules and one relaxation of them:
//
//   - Exact: row i renders the same on both sides, in order. Two runs of
//     one plan, or of plans required to be identical, must agree exactly.
//   - Serial: the rule against the single-instance reference. Rows compare
//     as sorted multisets unless the result is ordered, and two fields
//     agree when their texts are equal or both are floats within a
//     relative 1e-6 (a distributed plan sums in another order).
//   - Split: the metamorphic rule between a plan with the partial
//     aggregate split and one without. Floats render at 12 significant
//     digits, every other kind exactly, and rows compare as sorted
//     multisets unless the query has ORDER BY.
//   - Top: columns and row counts only. Two arms that run different plans
//     may keep different rows tied at a TOP's cut.
//
// Every rule also requires the same column names and the same row count.
// The package imports only internal/types, so the root package's own
// tests can call it.
package rowcmp

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pdwqo/internal/types"
)

// Relation is one side of a comparison.
type Relation struct {
	Name    string // the side's label in a divergence report
	Columns []string
	Rows    [][]string
}

// Rule is one comparison rule; the zero Rule is Exact.
type Rule struct {
	unordered bool // compare rows as sorted multisets
	tolerant  bool // float fields agree to a relative 1e-6
	digits    int  // Render writes floats at this many significant digits; 0 is exact
	countOnly bool // compare columns and row counts only
}

var (
	// Exact requires row i to render the same on both sides.
	Exact = Rule{}
	// Top compares columns and row counts only.
	Top = Rule{countOnly: true}
)

// Serial is the rule against the serial reference: rows sorted unless
// ordered, floats within 1e-6·max(|x|,|y|) + 1e-9.
func Serial(ordered bool) Rule { return Rule{unordered: !ordered, tolerant: true} }

// Split is the split-vs-unsplit rule: floats at 12 significant digits,
// rows sorted unless ordered.
func Split(ordered bool) Rule { return Rule{unordered: !ordered, digits: 12} }

// AcrossPlans returns r, or Top when sql has TOP: the rule for two arms
// that may legitimately run different plans of sql.
func (r Rule) AcrossPlans(sql string) Rule {
	if hasTop(sql) {
		return Top
	}
	return r
}

// hasTop reports whether sql cuts its result with TOP. The probe is a
// substring test; the corpora spell TOP nowhere else.
func hasTop(sql string) bool { return strings.Contains(strings.ToUpper(sql), "TOP ") }

// HasOrderBy reports whether sql imposes a result order. The corpora never
// nest ORDER BY in a subquery, so the substring probe is exact there.
func HasOrderBy(sql string) bool { return strings.Contains(strings.ToUpper(sql), "ORDER BY") }

// Render renders typed rows as rule r reads them: every value by its
// String form, except that Split writes floats at 12 significant digits.
func (r Rule) Render(name string, cols []string, rows []types.Row) Relation {
	out := make([][]string, len(rows))
	for i, row := range rows {
		fields := make([]string, len(row))
		for j, v := range row {
			if r.digits > 0 && v.Kind() == types.KindFloat {
				fields[j] = strconv.FormatFloat(v.Float(), 'g', r.digits, 64)
			} else {
				fields[j] = v.String()
			}
		}
		out[i] = fields
	}
	return Relation{Name: name, Columns: cols, Rows: out}
}

// Compare applies rule r to two relations and describes the first
// divergence, naming each side.
func (r Rule) Compare(a, b Relation) error {
	if !slices.Equal(a.Columns, b.Columns) {
		return fmt.Errorf("result columns diverged: %s %q, %s %q",
			a.Name, strings.Join(a.Columns, "|"), b.Name, strings.Join(b.Columns, "|"))
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row count diverged: %s %d, %s %d", a.Name, len(a.Rows), b.Name, len(b.Rows))
	}
	if r.countOnly {
		return nil
	}
	ar, br := a.Rows, b.Rows
	if r.unordered {
		ar, br = sorted(ar), sorted(br)
	}
	for i := range ar {
		if !r.rowsAgree(ar[i], br[i]) {
			w := max(len(a.Name), len(b.Name)) + 1
			return fmt.Errorf("row %d diverged:\n  %-*s %s\n  %-*s %s", i,
				w, a.Name+":", strings.Join(ar[i], "|"), w, b.Name+":", strings.Join(br[i], "|"))
		}
	}
	return nil
}

func (r Rule) rowsAgree(x, y []string) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] && !(r.tolerant && floatsAgree(x[i], y[i])) {
			return false
		}
	}
	return true
}

// floatsAgree reports whether two field texts are floats within the
// serial rule's relative tolerance.
func floatsAgree(a, b string) bool {
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	if errX != nil || errY != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-6*math.Max(math.Abs(x), math.Abs(y))+1e-9
}

// sorted orders rows by their "|"-joined text.
func sorted(rows [][]string) [][]string {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, row := range rows {
		keys[i], idx[i] = strings.Join(row, "|"), i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	out := make([][]string, len(rows))
	for i, k := range idx {
		out[i] = rows[k]
	}
	return out
}
