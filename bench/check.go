package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"pdwqo"
	"pdwqo/internal/types"
)

// agreesWithSerial compares a distributed result with the serial
// reference the way the repository's differential suites do: rows sorted
// into canonical order, floats equal to a relative 1e-6 (a distributed
// plan sums in another order), and for TOP queries the row count only,
// because ties at the cut are broken differently by the two engines.
func agreesWithSerial(sql string, dist, serial *pdwqo.Result) error {
	if d, s := strings.Join(dist.Columns, "|"), strings.Join(serial.Columns, "|"); d != s {
		return fmt.Errorf("columns differ: distributed %q, serial %q", d, s)
	}
	if len(dist.Rows) != len(serial.Rows) {
		return fmt.Errorf("row count differs: distributed %d, serial %d", len(dist.Rows), len(serial.Rows))
	}
	if strings.Contains(strings.ToUpper(sql), "TOP ") {
		return nil
	}
	d, s := sortedRows(dist.Rows), sortedRows(serial.Rows)
	for i := range d {
		for j := range d[i] {
			if !valuesAgree(d[i][j], s[i][j]) {
				return fmt.Errorf("row %d differs:\n  distributed: %s\n  serial:      %s", i, d[i], s[i])
			}
		}
	}
	return nil
}

func sortedRows(rows []pdwqo.Row) []pdwqo.Row {
	out := append([]pdwqo.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return rowKey(out[i]) < rowKey(out[j]) })
	return out
}

// rowKey orders rows by their non-float fields first, so two rows that
// differ only in the low bits of a float sum sort to the same position.
func rowKey(r pdwqo.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.Kind() != types.KindFloat {
			b.WriteString(v.String())
		}
		b.WriteByte('|')
	}
	for _, v := range r {
		if v.Kind() == types.KindFloat {
			fmt.Fprintf(&b, "%.6g|", v.Float())
		}
	}
	return b.String()
}

func valuesAgree(a, b pdwqo.Value) bool {
	if a.Kind() == types.KindFloat && b.Kind() == types.KindFloat {
		x, y := a.Float(), b.Float()
		return math.Abs(x-y) <= 1e-6*math.Max(math.Abs(x), math.Abs(y))+1e-9
	}
	return identical(a, b)
}

// identical reports whether two values have the same kind and payload.
func identical(a, b pdwqo.Value) bool {
	return a.Kind() == b.Kind() && types.Equal(a, b)
}

// sameRows is the per-operation check: distributed execution is
// deterministic, so every run of a plan must return exactly the rows the
// set-up run returned (and that set-up run agreed with the serial
// reference).
func sameRows(got, want []pdwqo.Row) bool {
	return slices.EqualFunc(got, want, func(a, b pdwqo.Row) bool { return slices.EqualFunc(a, b, identical) })
}

// wireRows renders a library result as the canonical strings the wire
// protocol carries.
func wireRows(rows []pdwqo.Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.String()
		}
	}
	return out
}

func sameWireRows(got, want [][]string) bool {
	return slices.EqualFunc(got, want, slices.Equal[[]string])
}
