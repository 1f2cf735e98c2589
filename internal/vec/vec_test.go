package vec

import (
	"fmt"
	"math"
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

// TestConcatAcrossKinds: Concat equals appending the boxed values one by
// one, for every pairing of {empty, all-NULL, typed, other-typed, mixed},
// taken whole and through a selection; a column stays typed exactly when
// the parts agree on a kind, and the parts are left as they were.
func TestConcatAcrossKinds(t *testing.T) {
	shapes := map[string][]types.Value{
		"empty":    nil,
		"all-null": {types.Null, types.Null},
		"int":      {types.NewInt(1), types.Null, types.NewInt(3)},
		"int2":     {types.NewInt(4)},
		"string":   {types.NewString("a"), types.NewString("b")},
		"mixed":    {types.NewInt(1), types.NewString("b"), types.Null},
	}
	part := func(vals []types.Value) *Batch {
		return &Batch{N: len(vals), Cols: []*Vec{FromValues(vals)}}
	}
	reverse := func(n int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(n - 1 - i)
		}
		return s
	}
	for ln, left := range shapes {
		for rn, right := range shapes {
			l, r := part(left), part(right)
			whole := Concat(1, []*Batch{l, r}, nil)
			want := append(append([]types.Value{}, left...), right...)
			if got := boxed(whole.Cols[0]); whole.N != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("Concat(%s, %s) = %v, want %v", ln, rn, got, want)
			}
			mixed := ln == "mixed" || rn == "mixed" || (len(left) > 0 && len(right) > 0 &&
				ln != "all-null" && rn != "all-null" && left[0].Kind() != right[0].Kind())
			if whole.Cols[0].Mixed != mixed {
				t.Errorf("Concat(%s, %s): mixed=%v, want %v", ln, rn, whole.Cols[0].Mixed, mixed)
			}
			sel := Concat(1, []*Batch{l, r}, [][]int32{reverse(len(left)), reverse(len(right))})
			want = want[:0]
			for i := len(left) - 1; i >= 0; i-- {
				want = append(want, left[i])
			}
			for i := len(right) - 1; i >= 0; i-- {
				want = append(want, right[i])
			}
			if got := boxed(sel.Cols[0]); sel.N != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("Concat(%s, %s) through reversing selections = %v, want %v", ln, rn, got, want)
			}
			if got := boxed(l.Cols[0]); len(left) > 0 && !reflect.DeepEqual(got, left) {
				t.Errorf("Concat(%s, %s) changed its argument: %v", ln, rn, got)
			}
		}
	}
	one := part(shapes["int"])
	if Concat(1, []*Batch{one}, nil) != one {
		t.Error("a lone part taken whole must be returned as it is")
	}
	if empty := Concat(2, nil, nil); empty.N != 0 || len(empty.Cols) != 2 || empty.Cols[1].Len() != 0 {
		t.Errorf("Concat of no parts: %+v", empty)
	}
}

// kindColumns is one column per representation a vector can take, with
// NULLs in the typed ones: every kind, all-NULL, and mixed.
func kindColumns() map[string][]types.Value {
	cols := map[string][]types.Value{
		"all-null": {types.Null, types.Null, types.Null},
		"mixed": {types.NewInt(1), types.NewString("1"), types.Null, types.NewFloat(1),
			types.NewDate(1), types.NewBool(true), types.NewFloat(math.Copysign(0, -1))},
	}
	for _, v := range oneOfEach {
		cols[v.Kind().String()] = []types.Value{v, types.Null, v}
	}
	cols["FLOAT-edges"] = []types.Value{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()), types.NewFloat(math.Float64frombits(0xFFF8000000000000)), types.Null}
	cols["VARCHAR-wide"] = []types.Value{types.NewString(""), types.NewString("héllo\x00"), types.Null}
	return cols
}

// TestFoldHashIsTypesHash: folding one column into hashes seeded with
// types.HashSeed gives types.Hash of every row, for every representation;
// two folded columns give the per-row fold of both values in order.
func TestFoldHashIsTypesHash(t *testing.T) {
	for name, vals := range kindColumns() {
		v := FromValues(vals)
		hs := make([]uint64, len(vals))
		for i := range hs {
			hs[i] = types.HashSeed
		}
		v.FoldHash(hs, nil)
		for i, x := range vals {
			if hs[i] != types.Hash(x) {
				t.Errorf("%s row %d (%v): column fold %#x, types.Hash %#x", name, i, x, hs[i], types.Hash(x))
			}
		}
		v.FoldHash(hs, nil)
		for i, x := range vals {
			if want := types.FoldValue(types.Hash(x), x); hs[i] != want {
				t.Errorf("%s row %d: second fold %#x, want %#x", name, i, hs[i], want)
			}
		}
	}
}

// TestBytesIsRowWidth: a vector's and a batch's metered bytes are Σ
// Value.Width over the rows, for every representation, also past one
// bitmap word and through a window whose bitmap word runs past its end.
func TestBytesIsRowWidth(t *testing.T) {
	var rows []types.Row
	var names []string
	for name := range kindColumns() {
		names = append(names, name)
	}
	for i := 0; i < 70; i++ {
		r := make(types.Row, len(names))
		for c, name := range names {
			vals := kindColumns()[name]
			r[c] = vals[i%len(vals)]
		}
		rows = append(rows, r)
	}
	var want int64
	for _, r := range rows {
		want += int64(r.Width())
	}
	tbl := FromRows(names, rows)
	if got := (&Batch{N: tbl.N, Cols: tbl.Cols}).Bytes(); got != want {
		t.Errorf("batch bytes %d, Σ Row.Width %d", got, want)
	}
	v := FromValues([]types.Value{types.NewInt(1), types.NewInt(2), types.Null})
	for i := 0; i < 64; i++ {
		v.AppendNull()
	}
	if got := v.Window(0, 2).Bytes(); got != 16 {
		t.Errorf("window over two non-NULL rows: %d bytes, want 16", got)
	}
}

// TestBatchFromRowsMatchesAppend: the sized-once columnarizer builds what
// appending the values one by one builds, typed or mixed alike.
func TestBatchFromRowsMatchesAppend(t *testing.T) {
	for name, vals := range kindColumns() {
		rows := make([]types.Row, len(vals))
		want := &Vec{}
		for i, x := range vals {
			rows[i] = types.Row{x}
			want.Append(x)
		}
		got := BatchFromRows(1, rows).Cols[0]
		// Rendered, not DeepEqual: NaN is never DeepEqual to itself.
		if fmt.Sprint(boxed(got)) != fmt.Sprint(boxed(want)) || got.Mixed != want.Mixed || (!got.Mixed && got.Kind != want.Kind) {
			t.Errorf("%s: BatchFromRows %v (kind %v mixed %v), Append %v (kind %v mixed %v)",
				name, boxed(got), got.Kind, got.Mixed, boxed(want), want.Kind, want.Mixed)
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

// TestGather: selection order, repeats and NULLs carry through for typed,
// mixed and all-NULL payloads.
func TestGather(t *testing.T) {
	for name, vals := range map[string][]types.Value{
		"typed":    {types.NewFloat(0.5), types.Null, types.NewFloat(2.5), types.NewFloat(3.5)},
		"mixed":    {types.NewInt(0), types.Null, types.NewString("two"), types.NewFloat(3.5)},
		"all-null": {types.Null, types.Null, types.Null, types.Null},
	} {
		sel := []int32{3, 1, 1, 0}
		got := boxed(FromValues(vals).Gather(sel))
		want := []types.Value{vals[3], vals[1], vals[1], vals[0]}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Gather(%v) = %v, want %v", name, sel, got, want)
		}
	}
}
