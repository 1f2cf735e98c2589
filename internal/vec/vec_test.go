package vec

import (
	"reflect"
	"testing"

	"pdwqo/internal/types"
)

// oneOfEach is a non-NULL value of every kind a stored column can hold.
var oneOfEach = []types.Value{
	types.NewInt(-7),
	types.NewFloat(2.5),
	types.NewString("s"),
	types.NewBool(true),
	types.NewDate(9000),
}

func boxed(v *Vec) []types.Value {
	out := make([]types.Value, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// TestTableRoundTrip: FromRows then Rows is the identity, for every kind
// with a NULL before, between and after the values, for an all-NULL
// column, and for the empty table.
func TestTableRoundTrip(t *testing.T) {
	names := []string{"i", "f", "s", "b", "d", "nulls"}
	var rows []types.Row
	rows = append(rows, make(types.Row, len(names))) // leading all-NULL row
	for rep := 0; rep < 70; rep++ {                  // past one 64-bit bitmap word
		r := append(types.Row{}, oneOfEach...)
		r = append(r, types.Null)
		if rep%3 == 1 {
			r[rep%len(oneOfEach)] = types.Null
		}
		rows = append(rows, r)
	}
	rows = append(rows, make(types.Row, len(names))) // trailing all-NULL row
	tbl := FromRows(names, rows)
	if tbl.N != len(rows) || !reflect.DeepEqual(tbl.Names, names) {
		t.Fatalf("table shape: N=%d names=%v", tbl.N, tbl.Names)
	}
	for c, v := range tbl.Cols[:len(oneOfEach)] {
		if v.Mixed || v.Kind != oneOfEach[c].Kind() {
			t.Errorf("column %s: kind %v mixed=%v, want typed %v", names[c], v.Kind, v.Mixed, oneOfEach[c].Kind())
		}
	}
	if v := tbl.Cols[len(oneOfEach)]; v.Kind != types.KindNull || v.Len() != len(rows) {
		t.Errorf("all-NULL column: kind %v len %d", v.Kind, v.Len())
	}
	if got := tbl.Rows(); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip changed the rows:\n got %v\nwant %v", got, rows)
	}
	if empty := FromRows(names, nil); empty.N != 0 || len(empty.Cols) != len(names) || len(empty.Rows()) != 0 {
		t.Errorf("empty table: N=%d cols=%d", empty.N, len(empty.Cols))
	}
}

// TestMixedKindDemotion: a second kind arriving in a typed column demotes
// it to the boxed payload without losing the values or NULLs before it.
func TestMixedKindDemotion(t *testing.T) {
	vals := []types.Value{types.Null, types.NewInt(1), types.Null, types.NewFloat(2.5), types.NewString("x"), types.Null}
	v := FromValues(vals)
	if !v.Mixed || v.I64 != nil {
		t.Fatalf("mixed=%v I64=%v after a kind mix", v.Mixed, v.I64)
	}
	if got := boxed(v); !reflect.DeepEqual(got, vals) {
		t.Fatalf("demotion changed values: %v, want %v", got, vals)
	}
}

// TestExtendAcrossKinds: Extend equals appending the boxed values one by
// one, for every pairing of {empty, all-NULL, typed, other-typed, mixed}.
func TestExtendAcrossKinds(t *testing.T) {
	shapes := map[string][]types.Value{
		"empty":    nil,
		"all-null": {types.Null, types.Null},
		"int":      {types.NewInt(1), types.Null, types.NewInt(3)},
		"string":   {types.NewString("a"), types.NewString("b")},
		"mixed":    {types.NewInt(1), types.NewString("b"), types.Null},
	}
	for ln, left := range shapes {
		for rn, right := range shapes {
			v := FromValues(left)
			o := FromValues(right)
			v.Extend(o)
			want := append(append([]types.Value{}, left...), right...)
			if got := boxed(v); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s.Extend(%s) = %v, want %v", ln, rn, got, want)
			}
			if got := boxed(o); len(right) > 0 && !reflect.DeepEqual(got, right) {
				t.Errorf("%s.Extend(%s) changed its argument: %v", ln, rn, got)
			}
		}
	}
}

// TestWindowAlignment: a 64-aligned window shares storage, reads the same
// values and NULLs as the rows it covers, and an unaligned start panics
// rather than mis-slicing the bitmap.
func TestWindowAlignment(t *testing.T) {
	v := &Vec{}
	for i := 0; i < 200; i++ {
		if i%7 == 0 {
			v.AppendNull()
		} else {
			v.Append(types.NewInt(int64(i)))
		}
	}
	all := boxed(v)
	for _, w := range [][2]int{{0, 64}, {64, 128}, {128, 200}, {0, 200}, {192, 200}} {
		win := v.Window(w[0], w[1])
		if got := boxed(win); !reflect.DeepEqual(got, all[w[0]:w[1]]) {
			t.Errorf("Window(%d,%d) = %v, want %v", w[0], w[1], got, all[w[0]:w[1]])
		}
		if &win.I64[0] != &v.I64[w[0]] {
			t.Errorf("Window(%d,%d) copied the payload", w[0], w[1])
		}
	}
	dense := FromValues([]types.Value{types.NewInt(1), types.NewInt(2)})
	if win := dense.Window(0, 2); win.Nulls != nil {
		t.Error("a window over a NULL-free vector must carry no bitmap")
	}
	defer func() {
		if recover() == nil {
			t.Error("an unaligned window start must panic")
		}
	}()
	v.Window(3, 70)
}

// TestGather: selection order, repeats and NULLs carry through for typed
// and mixed payloads.
func TestGather(t *testing.T) {
	for name, vals := range map[string][]types.Value{
		"typed": {types.NewFloat(0.5), types.Null, types.NewFloat(2.5), types.NewFloat(3.5)},
		"mixed": {types.NewInt(0), types.Null, types.NewString("two"), types.NewFloat(3.5)},
	} {
		sel := []int32{3, 1, 1, 0}
		got := boxed(FromValues(vals).Gather(sel))
		want := []types.Value{vals[3], vals[1], vals[1], vals[0]}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Gather(%v) = %v, want %v", name, sel, got, want)
		}
	}
}
