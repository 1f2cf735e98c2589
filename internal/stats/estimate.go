package stats

import (
	"math"

	"pdwqo/internal/types"
)

// Estimation primitives consumed by the serial optimizer to annotate MEMO
// groups with cardinalities (paper §2.5, component 2c). All selectivities
// are clamped to [0, 1]; defaults follow the classic System R constants
// when statistics are missing.

// Default selectivities for predicates with no usable statistics.
const (
	DefaultEqSel    = 0.01
	DefaultRangeSel = 1.0 / 3.0
	DefaultLikeSel  = 0.05
)

// Clamp bounds s into [lo, hi].
func Clamp(s, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, s)) }

// SelectivityEq estimates the fraction of rows where col = v.
func (c *Column) SelectivityEq(v types.Value) float64 {
	if c == nil || c.RowCount == 0 {
		return DefaultEqSel
	}
	if v.IsNull() {
		return 0 // col = NULL never qualifies
	}
	nonNull := c.RowCount - c.NullCount
	if nonNull <= 0 {
		return 0
	}
	// A literal of a kind incomparable with the column (reachable from
	// user-supplied IN lists like `intcol IN ('x')`) gets the default
	// selectivity — the histogram below assumes comparable bounds.
	if !c.Min.IsNull() && !types.Comparable(v.Kind(), c.Min.Kind()) {
		return DefaultEqSel
	}
	if !c.Min.IsNull() {
		if types.Compare(v, c.Min) < 0 || types.Compare(v, c.Max) > 0 {
			return 0
		}
	}
	// Locate the bucket holding v; assume uniformity within the bucket.
	prev := c.Min
	for _, b := range c.Buckets {
		if types.Compare(v, b.UpperBound) <= 0 {
			if b.NDV <= 0 {
				break
			}
			_ = prev
			return Clamp(b.RowCount/b.NDV/c.RowCount, 0, 1)
		}
		prev = b.UpperBound
	}
	if c.NDV > 0 {
		return Clamp(nonNull/c.NDV/c.RowCount, 0, 1)
	}
	return DefaultEqSel
}

// SelectivityRange estimates the fraction of rows in the (possibly
// half-open) interval. Nil bounds mean unbounded; incl* control closedness.
func (c *Column) SelectivityRange(lo, hi types.Value, incLo, incHi bool) float64 {
	if c == nil || c.RowCount == 0 || len(c.Buckets) == 0 {
		return DefaultRangeSel
	}
	if !lo.IsNull() && !types.Comparable(lo.Kind(), c.Min.Kind()) ||
		!hi.IsNull() && !types.Comparable(hi.Kind(), c.Min.Kind()) {
		return DefaultRangeSel
	}
	rows := 0.0
	prev := c.Min
	for i, b := range c.Buckets {
		bLo, bHi := prev, b.UpperBound
		if i == 0 {
			// First bucket includes its lower bound (the column min).
			rows += overlapRows(b, bLo, bHi, lo, hi, incLo, incHi, true)
		} else {
			rows += overlapRows(b, bLo, bHi, lo, hi, incLo, incHi, false)
		}
		prev = b.UpperBound
	}
	return Clamp(rows/c.RowCount, 0, 1)
}

// overlapRows estimates how many rows of bucket b (spanning (bLo, bHi], or
// [bLo, bHi] when closedLo) fall inside the query interval, interpolating
// linearly for numeric/date bounds. SelectivityRange already rejected
// kind-incomparable bounds, so raw ordering is well-defined here.
//
//pdwlint:allow comparechecked
func overlapRows(b Bucket, bLo, bHi, lo, hi types.Value, incLo, incHi, closedLo bool) float64 {
	_ = closedLo
	// Fully below or above the interval?
	if !lo.IsNull() {
		cmp := types.Compare(bHi, lo)
		if cmp < 0 || (cmp == 0 && !incLo) {
			return 0
		}
	}
	if !hi.IsNull() {
		cmp := types.Compare(bLo, hi)
		if cmp > 0 || (cmp == 0 && !incHi && b.NDV <= 1) {
			return 0
		}
	}
	fracLo, fracHi := 0.0, 1.0
	if !lo.IsNull() && types.Compare(lo, bLo) > 0 {
		fracLo = positionIn(bLo, bHi, lo)
	}
	if !hi.IsNull() && types.Compare(hi, bHi) < 0 {
		fracHi = positionIn(bLo, bHi, hi)
	}
	if fracHi < fracLo {
		return 0
	}
	return b.RowCount * (fracHi - fracLo)
}

// positionIn returns where v sits inside (lo, hi] as a fraction, using
// numeric interpolation where possible and 0.5 otherwise.
func positionIn(lo, hi, v types.Value) float64 {
	f := func(x types.Value) (float64, bool) {
		switch x.Kind() {
		case types.KindInt, types.KindFloat:
			return x.Float(), true
		case types.KindDate:
			return float64(x.DateDays()), true
		}
		return 0, false
	}
	a, ok1 := f(lo)
	b, ok2 := f(hi)
	x, ok3 := f(v)
	if !ok1 || !ok2 || !ok3 || b <= a {
		return 0.5
	}
	return Clamp((x-a)/(b-a), 0, 1)
}

// SelectivityLikePrefix estimates LIKE 'prefix%' as a range scan over the
// string domain (the paper's Q20 walk-through depends on the p_name LIKE
// 'forest%' predicate being recognized as highly selective).
func (c *Column) SelectivityLikePrefix(prefix string) float64 {
	if prefix == "" {
		return 1
	}
	if c == nil || c.RowCount == 0 || len(c.Buckets) == 0 {
		return DefaultLikeSel
	}
	hi := prefixUpperBound(prefix)
	return c.SelectivityRange(types.NewString(prefix), types.NewString(hi), true, false)
}

// prefixUpperBound returns the smallest string greater than every string
// with the given prefix.
func prefixUpperBound(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return prefix + "\xff"
}

// DistinctAfterFilter scales a column NDV when its table has been filtered
// to `rows` of `total` rows, using the standard Yao/Cardenas approximation.
func DistinctAfterFilter(ndv, total, rows float64) float64 {
	if total <= 0 || ndv <= 0 {
		return math.Max(rows, 1)
	}
	if rows >= total {
		return ndv
	}
	// Expected distinct values in a sample of `rows` from `total` rows with
	// `ndv` distinct values.
	return ndv * (1 - math.Pow(1-rows/total, total/ndv))
}

// GroupCardinality estimates the number of groups when grouping `rows` rows
// (from a base of `total`) by columns with the given NDVs: product of NDVs
// capped by the row count.
func GroupCardinality(rows, total float64, ndvs []float64) float64 {
	if len(ndvs) == 0 {
		return 1
	}
	prod := 1.0
	for _, d := range ndvs {
		prod *= math.Max(DistinctAfterFilter(d, total, rows), 1)
		if prod > rows {
			return math.Max(rows, 1)
		}
	}
	return math.Max(math.Min(prod, rows), 1)
}
