package stats

import (
	"math"
	"math/rand"
	"testing"

	"pdwqo/internal/types"
)

func intCol(vals ...int64) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		out[i] = types.NewInt(v)
	}
	return out
}

func seqCol(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.NewInt(int64(i))
	}
	return out
}

func TestBuildColumnBasics(t *testing.T) {
	c := BuildColumn(intCol(5, 1, 3, 3, 2, 4))
	if c.RowCount != 6 || c.NullCount != 0 {
		t.Fatalf("counts: %+v", c)
	}
	if c.NDV != 5 {
		t.Errorf("NDV = %v, want 5", c.NDV)
	}
	if c.Min.Int() != 1 || c.Max.Int() != 5 {
		t.Errorf("min/max = %v/%v", c.Min, c.Max)
	}
	total := 0.0
	for _, b := range c.Buckets {
		total += b.RowCount
	}
	if total != 6 {
		t.Errorf("bucket rows sum to %v", total)
	}
}

func TestBuildColumnNulls(t *testing.T) {
	c := BuildColumn([]types.Value{types.Null, types.NewInt(1), types.Null})
	if c.NullCount != 2 || c.NDV != 1 {
		t.Errorf("null handling: %+v", c)
	}
	empty := BuildColumn(nil)
	if empty.RowCount != 0 || len(empty.Buckets) != 0 {
		t.Errorf("empty column: %+v", empty)
	}
}

func TestBuildColumnBucketInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals := make([]types.Value, 10000)
	for i := range vals {
		vals[i] = types.NewInt(r.Int63n(500))
	}
	c := BuildColumn(vals)
	if len(c.Buckets) > DefaultBuckets {
		t.Fatalf("too many buckets: %d", len(c.Buckets))
	}
	rows, ndv := 0.0, 0.0
	var prev types.Value = types.Null
	for _, b := range c.Buckets {
		if !prev.IsNull() && types.Compare(b.UpperBound, prev) <= 0 {
			t.Fatal("bucket bounds not strictly increasing")
		}
		prev = b.UpperBound
		rows += b.RowCount
		ndv += b.NDV
	}
	if rows != 10000 {
		t.Errorf("rows sum = %v", rows)
	}
	if math.Abs(ndv-c.NDV) > 1e-6 {
		t.Errorf("bucket NDVs sum to %v, column NDV %v", ndv, c.NDV)
	}
	if types.Compare(c.Buckets[len(c.Buckets)-1].UpperBound, c.Max) != 0 {
		t.Error("last bound must equal max")
	}
}

func TestBuildTable(t *testing.T) {
	tbl, err := BuildTable(map[string][]types.Value{
		"a": seqCol(100),
		"b": intCol(append(make([]int64, 99), 1)...),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount != 100 {
		t.Errorf("rowcount = %v", tbl.RowCount)
	}
	if tbl.AvgRowWidth != 16 {
		t.Errorf("avg row width = %v, want 16", tbl.AvgRowWidth)
	}
	if tbl.Column("A") == nil {
		t.Error("column lookup must be case-insensitive")
	}
	if _, err := BuildTable(map[string][]types.Value{"a": seqCol(2), "b": seqCol(3)}); err == nil {
		t.Error("mismatched lengths must error")
	}
}

func TestSelectivityEq(t *testing.T) {
	// 1000 rows, values 0..99 uniform → eq selectivity ≈ 1%.
	vals := make([]types.Value, 1000)
	for i := range vals {
		vals[i] = types.NewInt(int64(i % 100))
	}
	c := BuildColumn(vals)
	got := c.SelectivityEq(types.NewInt(50))
	if got < 0.005 || got > 0.02 {
		t.Errorf("eq selectivity = %v, want ≈0.01", got)
	}
	if c.SelectivityEq(types.NewInt(1000)) != 0 {
		t.Error("out-of-range must be 0")
	}
	if c.SelectivityEq(types.Null) != 0 {
		t.Error("= NULL must be 0")
	}
	var nilCol *Column
	if nilCol.SelectivityEq(types.NewInt(1)) != DefaultEqSel {
		t.Error("nil column default")
	}
}

func TestSelectivityRange(t *testing.T) {
	c := BuildColumn(seqCol(1000))
	cases := []struct {
		lo, hi   types.Value
		want     float64
		tolerant float64
	}{
		{types.NewInt(0), types.NewInt(499), 0.5, 0.05},
		{types.NewInt(900), types.Null, 0.1, 0.05},
		{types.Null, types.NewInt(99), 0.1, 0.05},
		{types.NewInt(250), types.NewInt(749), 0.5, 0.05},
		{types.Null, types.Null, 1.0, 0.01},
	}
	for _, cse := range cases {
		got := c.SelectivityRange(cse.lo, cse.hi, true, true)
		if math.Abs(got-cse.want) > cse.tolerant {
			t.Errorf("range [%v,%v] = %v, want ≈%v", cse.lo, cse.hi, got, cse.want)
		}
	}
}

func TestSelectivityRangeDates(t *testing.T) {
	// Dates spanning 1992..1998; one-year slice ≈ 1/7.
	vals := make([]types.Value, 0, 7*365)
	base := types.MustParseDate("1992-01-01").DateDays()
	for d := int64(0); d < 7*365; d++ {
		vals = append(vals, types.NewDate(base+d))
	}
	c := BuildColumn(vals)
	lo := types.MustParseDate("1994-01-01")
	hi := types.MustParseDate("1995-01-01")
	got := c.SelectivityRange(lo, hi, true, false)
	if math.Abs(got-1.0/7) > 0.03 {
		t.Errorf("one-year slice = %v, want ≈%v", got, 1.0/7)
	}
}

func TestSelectivityLikePrefix(t *testing.T) {
	words := []string{"almond", "antique", "forest", "frosted", "green", "lace", "metallic"}
	vals := make([]types.Value, 0, 7000)
	for i := 0; i < 1000; i++ {
		for _, w := range words {
			vals = append(vals, types.NewString(w))
		}
	}
	c := BuildColumn(vals)
	got := c.SelectivityLikePrefix("forest")
	if got <= 0 || got > 0.35 {
		t.Errorf("LIKE 'forest%%' = %v, want small fraction", got)
	}
	if c.SelectivityLikePrefix("") != 1 {
		t.Error("empty prefix matches everything")
	}
	if c.SelectivityLikePrefix("zzz") > 0.01 {
		t.Error("absent prefix should be ≈0")
	}
}

func TestPrefixUpperBound(t *testing.T) {
	if prefixUpperBound("abc") != "abd" {
		t.Errorf("got %q", prefixUpperBound("abc"))
	}
	if prefixUpperBound("ab\xff") != "ac" {
		t.Errorf("got %q", prefixUpperBound("ab\xff"))
	}
}

func TestMergeTablesHashColumn(t *testing.T) {
	// 4 nodes, hash column: disjoint key ranges, NDV must add exactly.
	locals := make([]*Table, 4)
	for n := 0; n < 4; n++ {
		vals := make([]types.Value, 250)
		for i := range vals {
			vals[i] = types.NewInt(int64(n*250 + i))
		}
		tbl, err := BuildTable(map[string][]types.Value{"k": vals})
		if err != nil {
			t.Fatal(err)
		}
		locals[n] = tbl
	}
	g := MergeTables(locals, "k")
	if g.RowCount != 1000 {
		t.Errorf("rowcount = %v", g.RowCount)
	}
	k := g.Column("k")
	if k.NDV != 1000 {
		t.Errorf("hash-column NDV = %v, want exact 1000", k.NDV)
	}
	if k.Min.Int() != 0 || k.Max.Int() != 999 {
		t.Errorf("min/max = %v/%v", k.Min, k.Max)
	}
	rows := 0.0
	for _, b := range k.Buckets {
		rows += b.RowCount
	}
	if math.Abs(rows-1000) > 1e-6 {
		t.Errorf("merged bucket rows = %v", rows)
	}
}

func TestMergeTablesNonHashColumn(t *testing.T) {
	// Non-hash columns spread quasi-randomly across nodes (the table is
	// hashed on another column). Each node sees 400 rows drawn from a
	// domain of 200 values; the Cardenas inversion must recover ≈200, far
	// below the naive sum of local NDVs (≈790).
	r := rand.New(rand.NewSource(5))
	locals := make([]*Table, 4)
	for n := range locals {
		vals := make([]types.Value, 400)
		for i := range vals {
			vals[i] = types.NewInt(r.Int63n(200))
		}
		tbl, err := BuildTable(map[string][]types.Value{"c": vals})
		if err != nil {
			t.Fatal(err)
		}
		locals[n] = tbl
	}
	g := MergeTables(locals, "k")
	c := g.Column("c")
	if c.NDV < 150 || c.NDV > 280 {
		t.Errorf("non-hash NDV = %v, want ≈200", c.NDV)
	}
}

func TestMergeSaturatedLocalsAssumeDisjoint(t *testing.T) {
	// When every local value is distinct, overlap is unobservable; the
	// merge assumes disjoint locals (the maximum-likelihood answer under
	// the uniformity assumption).
	locals := make([]*Table, 4)
	for n := range locals {
		tbl, err := BuildTable(map[string][]types.Value{"c": seqCol(100)})
		if err != nil {
			t.Fatal(err)
		}
		locals[n] = tbl
	}
	g := MergeTables(locals, "k")
	if got := g.Column("c").NDV; got != 400 {
		t.Errorf("saturated merge NDV = %v, want 400", got)
	}
}

func TestExpectedDistinctInversion(t *testing.T) {
	for _, d := range []float64{50, 300, 5000} {
		for _, n := range []float64{100, 1000} {
			obs := ExpectedDistinct(d, n)
			if obs >= n*0.999 {
				continue // saturated; inversion not identifiable
			}
			got := invertExpectedDistinct(obs, n, obs, d*10)
			if math.Abs(got-d)/d > 0.05 {
				t.Errorf("invert(E[distinct(%v,%v)]) = %v", d, n, got)
			}
		}
	}
}

func TestMergePreservesEstimates(t *testing.T) {
	// Merged global histogram should estimate ranges about as well as a
	// directly-built global histogram (E12's correctness core).
	r := rand.New(rand.NewSource(42))
	all := make([]types.Value, 0, 8000)
	locals := make([]*Table, 8)
	for n := range locals {
		vals := make([]types.Value, 1000)
		for i := range vals {
			vals[i] = types.NewInt(r.Int63n(10000))
		}
		all = append(all, vals...)
		tbl, err := BuildTable(map[string][]types.Value{"v": vals})
		if err != nil {
			t.Fatal(err)
		}
		locals[n] = tbl
	}
	direct, err := BuildTable(map[string][]types.Value{"v": all})
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeTables(locals, "")
	for _, q := range []struct{ lo, hi int64 }{{0, 999}, {2500, 7499}, {9000, 9999}} {
		d := direct.Column("v").SelectivityRange(types.NewInt(q.lo), types.NewInt(q.hi), true, true)
		m := merged.Column("v").SelectivityRange(types.NewInt(q.lo), types.NewInt(q.hi), true, true)
		if math.Abs(d-m) > 0.05 {
			t.Errorf("range [%d,%d]: direct %v vs merged %v", q.lo, q.hi, d, m)
		}
	}
}

func TestDistinctAfterFilter(t *testing.T) {
	if got := DistinctAfterFilter(100, 1000, 1000); got != 100 {
		t.Errorf("no filter: %v", got)
	}
	got := DistinctAfterFilter(100, 1000, 10)
	if got <= 0 || got > 10.5 {
		t.Errorf("heavy filter: %v", got)
	}
	if DistinctAfterFilter(0, 0, 5) != 5 {
		t.Error("degenerate fallback")
	}
}

func TestGroupCardinality(t *testing.T) {
	if GroupCardinality(1000, 1000, nil) != 1 {
		t.Error("scalar aggregate has one group")
	}
	got := GroupCardinality(1000, 1000, []float64{50})
	if math.Abs(got-50) > 1 {
		t.Errorf("single key: %v", got)
	}
	got = GroupCardinality(100, 1000, []float64{1000, 1000})
	if got != 100 {
		t.Errorf("capped by rows: %v", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	g := MergeTables(nil, "")
	if g.RowCount != 0 {
		t.Error("empty merge")
	}
}
