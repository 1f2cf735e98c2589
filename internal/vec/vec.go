// Package vec implements the typed columnar batch format of the
// node-local vectorized executor: column vectors carrying int64 /
// float64 / string / bool payloads with null bitmaps, grouped into
// fixed-capacity batches. A vector is typed when every non-NULL value in
// it shares one kind — the overwhelmingly common case for stored tables
// — and falls back to a boxed values payload when an expression (e.g. a
// CASE whose branches disagree) mixes kinds in one column. It is also the
// one form tables are stored in (internal/storage); rows remain the
// currency of data movement, converted at delivery and materialization.
package vec

import "pdwqo/internal/types"

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
// NULL rows have a set bit in Nulls and a zero payload slot. A vector
// whose rows are all NULL has Kind KindNull and no payload.
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

// NewVec returns an empty vector with capacity for n rows of the kind.
func NewVec(kind types.Kind, n int) *Vec {
	v := &Vec{Kind: kind}
	v.grow(kind, n)
	return v
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

// Extend appends every row of o onto v. Same-kind typed payloads are
// bulk-copied; kind mixes fall back to boxed appends (demoting v).
func (v *Vec) Extend(o *Vec) {
	on := o.Len()
	if on == 0 {
		return
	}
	typedSame := !v.Mixed && !o.Mixed &&
		(v.Kind == o.Kind || (v.n == 0 && v.Kind == types.KindNull) || o.Kind == types.KindNull)
	if !typedSame {
		for i := 0; i < on; i++ {
			v.Append(o.At(i))
		}
		return
	}
	base := v.n
	if o.Kind != types.KindNull && v.Kind == types.KindNull {
		v.Kind = o.Kind
		v.grow(v.Kind, on)
	}
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		v.I64 = append(v.I64, o.I64...)
	case types.KindFloat:
		v.F64 = append(v.F64, o.F64...)
	case types.KindString:
		v.Str = append(v.Str, o.Str...)
	case types.KindNull:
		// Both sides all-NULL: no payload to copy.
	}
	v.n += on
	if o.Kind == types.KindNull && v.Kind != types.KindNull {
		// An all-NULL extension onto a typed vector: pad the payload.
		for i := 0; i < on; i++ {
			v.appendZero()
		}
	}
	if o.Nulls != nil || o.Kind == types.KindNull {
		for i := 0; i < on; i++ {
			if o.IsNull(i) {
				v.SetNull(base + i)
			}
		}
	}
}

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

// AppendInt appends a typed BIGINT row without boxing. The vector must
// already be typed KindInt (or empty).
func (v *Vec) AppendInt(x int64) {
	if v.Kind == types.KindNull && !v.Mixed && v.n == 0 {
		v.Kind = types.KindInt
	}
	v.I64 = append(v.I64, x)
	v.n++
}

// AppendFloat appends a typed FLOAT row without boxing.
func (v *Vec) AppendFloat(x float64) {
	if v.Kind == types.KindNull && !v.Mixed && v.n == 0 {
		v.Kind = types.KindFloat
	}
	v.F64 = append(v.F64, x)
	v.n++
}

// AppendBool appends a typed BIT row without boxing.
func (v *Vec) AppendBool(b bool) {
	if v.Kind == types.KindNull && !v.Mixed && v.n == 0 {
		v.Kind = types.KindBool
	}
	if b {
		v.I64 = append(v.I64, 1)
	} else {
		v.I64 = append(v.I64, 0)
	}
	v.n++
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
		out.Vals = make([]types.Value, len(sel))
		for oi, i := range sel {
			out.Vals[oi] = v.Vals[i]
		}
		return out
	}
	switch v.Kind {
	case types.KindInt, types.KindDate, types.KindBool:
		out.I64 = make([]int64, len(sel))
		for oi, i := range sel {
			out.I64[oi] = v.I64[i]
		}
	case types.KindFloat:
		out.F64 = make([]float64, len(sel))
		for oi, i := range sel {
			out.F64[oi] = v.F64[i]
		}
	case types.KindString:
		out.Str = make([]string, len(sel))
		for oi, i := range sel {
			out.Str[oi] = v.Str[i]
		}
	}
	return out
}

// FromValues builds a vector from boxed values.
func FromValues(vals []types.Value) *Vec {
	v := &Vec{}
	for _, x := range vals {
		v.Append(x)
	}
	return v
}

// Batch is a set of equal-length column vectors.
type Batch struct {
	N    int
	Cols []*Vec
}

// AppendRows appends the batch's rows, boxed, onto dst. One backing array
// serves the whole batch and values fill column-major, so boxing costs
// one allocation per batch rather than one per row.
func (b *Batch) AppendRows(dst []types.Row) []types.Row {
	w := len(b.Cols)
	backing := make([]types.Value, b.N*w)
	for c, v := range b.Cols {
		for i := 0; i < b.N; i++ {
			backing[i*w+c] = v.At(i)
		}
	}
	for i := 0; i < b.N; i++ {
		dst = append(dst, types.Row(backing[i*w:(i+1)*w:(i+1)*w]))
	}
	return dst
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
	t := &Table{Names: names, N: len(rows)}
	t.Cols = make([]*Vec, len(names))
	for c := range t.Cols {
		v := &Vec{}
		for _, r := range rows {
			v.Append(r[c])
		}
		t.Cols[c] = v
	}
	return t
}

// Rows boxes the table back into rows, the inverse of FromRows.
func (t *Table) Rows() []types.Row {
	return (&Batch{N: t.N, Cols: t.Cols}).AppendRows(make([]types.Row, 0, t.N))
}
