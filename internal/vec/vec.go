// Package vec implements the typed columnar batch format of the
// node-local vectorized executor: column vectors carrying int64 /
// float64 / string / bool payloads with null bitmaps, grouped into
// fixed-capacity batches. A vector is typed when every non-NULL value in
// it shares one kind — the overwhelmingly common case for stored tables
// — and falls back to a boxed values payload when an expression (e.g. a
// CASE whose branches disagree) mixes kinds in one column. It is also the
// one form tables are stored in (internal/storage) and the currency of
// data movement: an executor's result is one batch, DMS routes it by
// hashing the key column and gathers each destination's rows, and storage
// inserts the columns. Rows are boxed only for a client result.
package vec

import (
	"math/bits"
	"slices"

	"pdwqo/internal/types"
)

// BatchSize is the row capacity of one execution batch. It is a
// multiple of 64 so batch-aligned windows of a table's null bitmaps can
// be word-sliced without copying.
const BatchSize = 1024

// Vec is one column vector. Payload storage depends on Kind:
//
//	KindInt, KindDate, KindBool → I64 (bool as 0/1, date as epoch days)
//	KindFloat                   → F64
//	KindString                  → Str
//	mixed kinds                 → Vals (boxed fallback)
//
// NULL rows have a set bit in Nulls; their payload slot means nothing
// (kernels compute through it, outer-join padding copies a live row's),
// so readers consult the bitmap first. A vector whose rows are all NULL
// has Kind KindNull and no payload.
type Vec struct {
	Kind  types.Kind
	Mixed bool
	Nulls []uint64 // bit i set = row i is NULL; nil = no NULLs
	I64   []int64
	F64   []float64
	Str   []string
	Vals  []types.Value
	n     int
}

func (v *Vec) grow(kind types.Kind, n int) {
	switch kind {
	case types.KindInt, types.KindDate, types.KindBool:
		v.I64 = make([]int64, 0, n)
	case types.KindFloat:
		v.F64 = make([]float64, 0, n)
	case types.KindString:
		v.Str = make([]string, 0, n)
	}
}

// Len returns the number of rows.
func (v *Vec) Len() int { return v.n }

// IsNull reports whether row i is NULL. The bitmap is grown lazily only
// as far as the highest NULL row, so rows past its end are non-NULL.
func (v *Vec) IsNull(i int) bool {
	w := i >> 6
	return w < len(v.Nulls) && v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// SetNull marks row i NULL, growing the bitmap as needed. The payload
// slot keeps whatever value it holds; readers consult the bitmap first.
func (v *Vec) SetNull(i int) {
	w := i>>6 + 1
	for len(v.Nulls) < w {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[i>>6] |= 1 << (uint(i) & 63)
}

func (v *Vec) setNull(i int) { v.SetNull(i) }

// NewDense returns a typed vector of n rows with the payload allocated
// at full length for direct indexed writes — the kernel output shape.
// All rows start non-NULL and zero.
func NewDense(kind types.Kind, n int) *Vec {
	v := &Vec{Kind: kind, n: n}
	switch kind {
	case types.KindInt, types.KindDate, types.KindBool:
		v.I64 = make([]int64, n)
	case types.KindFloat:
		v.F64 = make([]float64, n)
	case types.KindString:
		v.Str = make([]string, n)
	}
	return v
}

// OrNulls unions the null bitmaps of a and b (either may be nil-bitmap)
// into v, which must have at least as many rows. Kernels use this to
// propagate NULL-in → NULL-out without per-row branches.
func (v *Vec) OrNulls(a, b *Vec) {
	la, lb := len(a.Nulls), len(b.Nulls)
	w := la
	if lb > w {
		w = lb
	}
	if w == 0 {
		return
	}
	v.Nulls = make([]uint64, w)
	copy(v.Nulls, a.Nulls)
	for i := 0; i < lb; i++ {
		v.Nulls[i] |= b.Nulls[i]
	}
}

// CopyNulls shares a's null bitmap with v. Kernel outputs are read-only
// after construction, so aliasing the words is safe and copy-free.
func (v *Vec) CopyNulls(a *Vec) { v.Nulls = a.Nulls }

// At returns row i as a boxed value. The Value is a small struct, so
// this is a stack construction, not a heap allocation.
func (v *Vec) At(i int) types.Value {
	if v.IsNull(i) {
		return types.Null
	}
	if v.Mixed {
		return v.Vals[i]
	}
	switch v.Kind {
	case types.KindInt:
		return types.NewInt(v.I64[i])
	case types.KindDate:
		return types.NewDate(v.I64[i])
	case types.KindBool:
		return types.NewBool(v.I64[i] != 0)
	case types.KindFloat:
		return types.NewFloat(v.F64[i])
	case types.KindString:
		return types.NewString(v.Str[i])
	}
	return types.Null
}

// AppendNull appends a NULL row.
func (v *Vec) AppendNull() {
	v.setNull(v.n)
	v.appendZero()
	v.n++
}

func (v *Vec) appendZero() {
	if v.Mixed {
		v.Vals = append(v.Vals, types.Null)
		return
	}
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		v.I64 = append(v.I64, 0)
	case types.KindFloat:
		v.F64 = append(v.F64, 0)
	case types.KindString:
		v.Str = append(v.Str, "")
	}
}

// Append appends one value, adopting its kind if the vector is still
// all-NULL and demoting the vector to the boxed payload on a kind mix.
func (v *Vec) Append(val types.Value) {
	if val.IsNull() {
		v.AppendNull()
		return
	}
	if !v.Mixed && v.Kind == types.KindNull {
		// First non-NULL value fixes the payload kind; re-type the
		// zero-filled prefix appended for earlier NULL rows.
		v.Kind = val.Kind()
		v.grow(v.Kind, v.n+1)
		for i := 0; i < v.n; i++ {
			v.appendZero()
		}
	}
	if !v.Mixed && val.Kind() != v.Kind {
		v.demote()
	}
	if v.Mixed {
		v.Vals = append(v.Vals, val)
		v.n++
		return
	}
	switch v.Kind {
	case types.KindInt:
		v.I64 = append(v.I64, val.Int())
	case types.KindDate:
		v.I64 = append(v.I64, val.DateDays())
	case types.KindBool:
		if val.Bool() {
			v.I64 = append(v.I64, 1)
		} else {
			v.I64 = append(v.I64, 0)
		}
	case types.KindFloat:
		v.F64 = append(v.F64, val.Float())
	case types.KindString:
		v.Str = append(v.Str, val.Str())
	}
	v.n++
}

// demote reboxes a typed payload into Vals, preserving row count.
func (v *Vec) demote() {
	vals := make([]types.Value, v.n, v.n+1)
	for i := 0; i < v.n; i++ {
		vals[i] = v.At(i)
	}
	v.Mixed = true
	v.Vals = vals
	v.I64, v.F64, v.Str = nil, nil, nil
}

// Window returns rows [lo, hi) sharing payload storage with v. lo must
// be a multiple of 64 (batch-aligned scans guarantee this) so the null
// bitmap can be word-sliced.
func (v *Vec) Window(lo, hi int) *Vec {
	if lo&63 != 0 {
		panic("vec: Window start must be 64-aligned")
	}
	out := &Vec{Kind: v.Kind, Mixed: v.Mixed, n: hi - lo}
	if v.Nulls != nil {
		w0, w1 := lo>>6, (hi+63)>>6
		if w0 < len(v.Nulls) {
			if w1 > len(v.Nulls) {
				w1 = len(v.Nulls)
			}
			out.Nulls = v.Nulls[w0:w1]
			all0 := true
			for _, w := range out.Nulls {
				if w != 0 {
					all0 = false
					break
				}
			}
			if all0 {
				out.Nulls = nil
			}
		}
	}
	if v.Mixed {
		out.Vals = v.Vals[lo:hi]
		return out
	}
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		out.I64 = v.I64[lo:hi]
	case types.KindFloat:
		out.F64 = v.F64[lo:hi]
	case types.KindString:
		out.Str = v.Str[lo:hi]
	}
	return out
}

// Gather returns a new vector holding v's rows at the selected
// positions, in selection order.
func (v *Vec) Gather(sel []int32) *Vec {
	out := &Vec{Kind: v.Kind, Mixed: v.Mixed, n: len(sel)}
	if v.Nulls != nil {
		for oi, i := range sel {
			if v.IsNull(int(i)) {
				out.setNull(oi)
			}
		}
	}
	if v.Mixed {
		out.Vals = gather(v.Vals, sel)
		return out
	}
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		out.I64 = gather(v.I64, sel)
	case types.KindFloat:
		out.F64 = gather(v.F64, sel)
	case types.KindString:
		out.Str = gather(v.Str, sel)
	}
	return out
}

// gather copies the selected payload slots.
func gather[T any](src []T, sel []int32) []T {
	out := make([]T, len(sel))
	for oi, i := range sel {
		out[oi] = src[i]
	}
	return out
}

// NullVec returns an n-row all-NULL vector.
func NullVec(n int) *Vec {
	v := &Vec{n: n}
	if n > 0 {
		v.Nulls = make([]uint64, (n+63)>>6)
		for i := range v.Nulls {
			v.Nulls[i] = ^uint64(0)
		}
	}
	return v
}

// FoldHash folds the vector's first len(hs) rows into running row hashes
// with types.Hash's encoding, so folding one column into hashes seeded with
// types.HashSeed yields types.Hash of each row. Typed payloads are read
// directly; only a mixed vector boxes.
func (v *Vec) FoldHash(hs []uint64) {
	if v.Mixed || v.Kind == types.KindNull {
		for i := range hs {
			hs[i] = types.FoldValue(hs[i], v.At(i))
		}
		return
	}
	nulls := v.Nulls != nil
	switch v.Kind {
	case types.KindInt:
		for i := range hs {
			if nulls && v.IsNull(i) {
				hs[i] = types.FoldNull(hs[i])
			} else {
				hs[i] = types.FoldInt(hs[i], v.I64[i])
			}
		}
	case types.KindFloat:
		for i := range hs {
			if nulls && v.IsNull(i) {
				hs[i] = types.FoldNull(hs[i])
			} else {
				hs[i] = types.FoldFloat(hs[i], v.F64[i])
			}
		}
	case types.KindDate:
		for i := range hs {
			if nulls && v.IsNull(i) {
				hs[i] = types.FoldNull(hs[i])
			} else {
				hs[i] = types.FoldDate(hs[i], v.I64[i])
			}
		}
	case types.KindBool:
		for i := range hs {
			if nulls && v.IsNull(i) {
				hs[i] = types.FoldNull(hs[i])
			} else {
				hs[i] = types.FoldBool(hs[i], v.I64[i] != 0)
			}
		}
	case types.KindString:
		for i := range hs {
			if nulls && v.IsNull(i) {
				hs[i] = types.FoldNull(hs[i])
			} else {
				hs[i] = types.FoldString(hs[i], v.Str[i])
			}
		}
	}
}

// Bytes is the vector's row-accounting width: Σ types.Value.Width over its
// rows, what types.Row.Width sums per column.
func (v *Vec) Bytes() int64 {
	if v.Mixed {
		var w int64
		for _, x := range v.Vals[:v.n] {
			w += int64(x.Width())
		}
		return w
	}
	nulls := v.nullCount()
	nullW := int64(nulls) * int64(types.KindNull.Width())
	if v.Kind != types.KindString {
		return nullW + int64(v.n-nulls)*int64(v.Kind.Width())
	}
	w := nullW
	for i, s := range v.Str[:v.n] {
		if nulls == 0 || !v.IsNull(i) {
			w += int64(len(s) + 2)
		}
	}
	return w
}

// nullCount counts the NULL rows among the first Len().
func (v *Vec) nullCount() int {
	c := 0
	for w, word := range v.Nulls {
		if lo := w << 6; lo+64 > v.n {
			if lo >= v.n {
				break
			}
			word &= 1<<uint(v.n-lo) - 1
		}
		c += bits.OnesCount64(word)
	}
	return c
}

// FromValues builds a vector from boxed values (Column over the slice).
func FromValues(vals []types.Value) *Vec {
	return Column(len(vals), func(i int) types.Value { return vals[i] })
}

// Batch is a set of equal-length column vectors.
type Batch struct {
	N    int
	Cols []*Vec
}

// AppendRows appends the rows of equally wide batches, boxed, onto dst.
// One backing array serves every row and values fill column-major, so
// boxing costs one allocation per call rather than one per row.
func AppendRows(dst []types.Row, bs ...*Batch) []types.Row {
	n, w := 0, 0
	for _, b := range bs {
		n, w = n+b.N, len(b.Cols)
	}
	if n == 0 {
		return dst
	}
	backing := make([]types.Value, n*w)
	dst = slices.Grow(dst, n)
	off := 0
	for _, b := range bs {
		for c, v := range b.Cols {
			for i := 0; i < b.N; i++ {
				backing[(off+i)*w+c] = v.At(i)
			}
		}
		for i := off; i < off+b.N; i++ {
			dst = append(dst, types.Row(backing[i*w:(i+1)*w:(i+1)*w]))
		}
		off += b.N
	}
	return dst
}

// Bytes is the batch's row-accounting width, Σ types.Row.Width over its
// rows: what DMS and storage meter.
func (b *Batch) Bytes() int64 {
	var w int64
	for _, v := range b.Cols {
		w += v.Bytes()
	}
	return w
}

// Concat materializes the selected rows of each part, part after part, as
// one batch of width columns, each column allocated once at its exact
// size. sels[i] lists the rows of parts[i] to take, in order, and a nil
// sels[i] (or a nil sels) takes all of them. A lone part taken whole is
// returned as it is: batches are immutable once built, so sharing one is
// safe. A column is typed when every part's column has one kind (all-NULL
// parts fit any) and boxed otherwise.
//
// The hash-join build side, an executor's result, a DMS destination's
// rows and a storage append are all this one call.
func Concat(width int, parts []*Batch, sels [][]int32) *Batch {
	selOf := func(i int) []int32 {
		if sels == nil {
			return nil
		}
		return sels[i]
	}
	if len(parts) == 1 && selOf(0) == nil {
		return parts[0]
	}
	n := 0
	for i, p := range parts {
		if s := selOf(i); s != nil {
			n += len(s)
		} else {
			n += p.N
		}
	}
	out := &Batch{N: n, Cols: make([]*Vec, width)}
	srcs := make([]*Vec, len(parts))
	for c := range out.Cols {
		for i, p := range parts {
			srcs[i] = p.Cols[c]
		}
		out.Cols[c] = concatVec(srcs, selOf, n)
	}
	return out
}

// concatVec is Concat for one column.
func concatVec(srcs []*Vec, selOf func(int) []int32, n int) *Vec {
	out := &Vec{n: n}
	for _, v := range srcs {
		switch {
		case v.Mixed:
			out.Mixed = true
		case v.Kind == types.KindNull:
		case out.Kind == types.KindNull:
			out.Kind = v.Kind
		case out.Kind != v.Kind:
			out.Mixed = true
		}
	}
	switch {
	case out.Mixed:
		out.Kind = types.KindNull
		out.Vals = make([]types.Value, n)
	case out.Kind == types.KindInt || out.Kind == types.KindDate || out.Kind == types.KindBool:
		out.I64 = make([]int64, n)
	case out.Kind == types.KindFloat:
		out.F64 = make([]float64, n)
	case out.Kind == types.KindString:
		out.Str = make([]string, n)
	}
	o := 0
	for i, v := range srcs {
		sel := selOf(i)
		m := v.n
		if sel != nil {
			m = len(sel)
		}
		row := func(k int) int {
			if sel == nil {
				return k
			}
			return int(sel[k])
		}
		if v.Nulls != nil {
			for k := 0; k < m; k++ {
				if v.IsNull(row(k)) {
					if out.Nulls == nil {
						out.Nulls = make([]uint64, (n+63)>>6)
					}
					out.Nulls[(o+k)>>6] |= 1 << (uint(o+k) & 63)
				}
			}
		}
		switch {
		case out.Mixed:
			for k := 0; k < m; k++ {
				out.Vals[o+k] = v.At(row(k))
			}
		case v.Kind == types.KindNull:
			// NULL rows keep the zero payload.
		case out.I64 != nil:
			place(out.I64[o:o+m], v.I64, sel)
		case out.F64 != nil:
			place(out.F64[o:o+m], v.F64, sel)
		case out.Str != nil:
			place(out.Str[o:o+m], v.Str, sel)
		}
		o += m
	}
	return out
}

// place copies src's selected slots (all of them when sel is nil) into dst.
func place[T int64 | float64 | string](dst, src []T, sel []int32) {
	if sel == nil {
		copy(dst, src)
		return
	}
	for k, r := range sel {
		dst[k] = src[r]
	}
}

// Table is a stored table: the zero-copy source the vectorized scan
// windows batches out of. A Table handed out by storage is immutable.
type Table struct {
	Names []string
	N     int
	Cols  []*Vec
}

// FromRows columnarizes a row relation under the given column names.
func FromRows(names []string, rows []types.Row) *Table {
	b := BatchFromRows(len(names), rows)
	return &Table{Names: names, N: b.N, Cols: b.Cols}
}

// BatchFromRows columnarizes rows of the given width, each column built
// by Column.
func BatchFromRows(width int, rows []types.Row) *Batch {
	b := &Batch{N: len(rows), Cols: make([]*Vec, width)}
	for c := range b.Cols {
		b.Cols[c] = Column(len(rows), func(i int) types.Value { return rows[i][c] })
	}
	return b
}

// Column builds an n-row vector from boxed values, allocated once at its
// exact size: typed when every non-NULL value shares one kind (all-NULL
// when none does), boxed otherwise — the representation appending the
// values one by one would reach.
func Column(n int, at func(i int) types.Value) *Vec {
	kind, mixed := types.KindNull, false
	for i := 0; i < n && !mixed; i++ {
		if k := at(i).Kind(); k != types.KindNull && k != kind {
			mixed = kind != types.KindNull
			kind = k
		}
	}
	v := NewDense(kind, n)
	if mixed {
		v = &Vec{Kind: types.KindNull, Mixed: true, n: n, Vals: make([]types.Value, n)}
	}
	for i := 0; i < n; i++ {
		x := at(i)
		switch {
		case x.IsNull():
			if v.Nulls == nil {
				v.Nulls = make([]uint64, (n+63)>>6)
			}
			v.Nulls[i>>6] |= 1 << (uint(i) & 63)
			if mixed {
				v.Vals[i] = x
			}
		case mixed:
			v.Vals[i] = x
		case kind == types.KindInt:
			v.I64[i] = x.Int()
		case kind == types.KindDate:
			v.I64[i] = x.DateDays()
		case kind == types.KindBool:
			v.I64[i] = b2i(x.Bool())
		case kind == types.KindFloat:
			v.F64[i] = x.Float()
		default: // KindString
			v.Str[i] = x.Str()
		}
	}
	return v
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Rows boxes the table back into rows, the inverse of FromRows.
func (t *Table) Rows() []types.Row {
	return AppendRows(make([]types.Row, 0, t.N), &Batch{N: t.N, Cols: t.Cols})
}
