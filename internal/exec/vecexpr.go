package exec

// Vectorized expression evaluation: scalars are computed a batch at a
// time over typed column vectors, under a selection vector naming the
// batch positions still alive. Kernels cover the hot shapes (column
// references, constants, comparisons, arithmetic, three-valued AND/OR,
// NOT/NEG/IS NULL, numeric casts, IN over constants, LIKE); everything
// else routes through the row engine's Eval one selected row at a time,
// boxing only the columns the expression reads, so the two engines cannot
// drift on the long tail of expression semantics.
//
// Kernel outputs are read-only after construction: typed fast paths
// write payloads positionally into dense vectors and may alias an
// operand's null bitmap, so callers must never mutate a vector evalVec
// returned.
//
// Error fidelity: every error the row engine raises is raised here with
// the same text, because kernels either call the same types helpers or
// construct the same typed errors. The one documented divergence is
// error *choice* when two different rows of one batch would each raise a
// different error: the row engine reports the error of the earliest row,
// while a kernel evaluating operand-by-operand may report the error of
// an earlier operand on a later row first. The corpus suites pin the
// shared behaviour; DESIGN.md records the corner.

import (
	"fmt"
	"slices"
	"sort"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// vecEnv resolves column IDs against one operator's input schema and
// lazily carries the row-fallback environment.
type vecEnv struct {
	cols  []algebra.ColumnMeta
	idx   map[algebra.ColumnID]int
	env   *Env                     // built on first fallback
	row   types.Row                // reusable fallback row buffer
	reads map[algebra.Scalar][]int // per expression, the positions it reads
}

func newVecEnv(cols []algebra.ColumnMeta) *vecEnv {
	idx := make(map[algebra.ColumnID]int, len(cols))
	for i, c := range cols {
		idx[c.ID] = i
	}
	return &vecEnv{cols: cols, idx: idx}
}

// readsOf returns the schema positions of the columns e references
// (algebra.ScalarCols), in ascending order, computed once per expression.
// A referenced column outside the schema is left out; evaluating it
// reports the missing column.
func (ve *vecEnv) readsOf(e algebra.Scalar) []int {
	if p, ok := ve.reads[e]; ok {
		return p
	}
	var p []int
	algebra.ScalarCols(e).ForEach(func(id algebra.ColumnID) {
		if i, ok := ve.idx[id]; ok {
			p = append(p, i)
		}
	})
	sort.Ints(p)
	if ve.reads == nil {
		ve.reads = map[algebra.Scalar][]int{}
	}
	ve.reads[e] = p
	return p
}

// selLen returns the number of positions evalVec computes: the selection
// length, or the whole batch when sel is nil.
func selLen(sel []int32, b *vec.Batch) int {
	if sel == nil {
		return b.N
	}
	return len(sel)
}

// pos maps a dense result index back to its batch position.
func pos(sel []int32, i int) int {
	if sel == nil {
		return i
	}
	return int(sel[i])
}

// evalVec evaluates a bound scalar over the selected batch positions,
// returning a dense vector of selLen(sel, b) results in selection order.
func evalVec(e algebra.Scalar, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		i, ok := ve.idx[x.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column c%d not in row", x.ID)
		}
		if sel == nil {
			return b.Cols[i], nil
		}
		return b.Cols[i].Gather(sel), nil

	case *algebra.Const:
		return constVec(x.Val, selLen(sel, b)), nil

	case *algebra.Binary:
		return evalVecBinary(x, ve, b, sel)

	case *algebra.Not:
		v, err := evalVec(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		n := selLen(sel, b)
		out := vec.NewDense(types.KindBool, n)
		if !v.Mixed && v.Kind == types.KindBool {
			out.CopyNulls(v)
			for i := 0; i < n; i++ {
				out.I64[i] = 1 - (v.I64[i] & 1)
			}
			return out, nil
		}
		for i := 0; i < n; i++ {
			ev := v.At(i)
			if ev.IsNull() {
				out.SetNull(i)
				continue
			}
			bv, err := ev.AsBool()
			if err != nil {
				return nil, fmt.Errorf("exec: NOT operand: %w", err)
			}
			out.I64[i] = b2i(!bv)
		}
		return out, nil

	case *algebra.Neg:
		v, err := evalVec(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		n := selLen(sel, b)
		out := &vec.Vec{}
		for i := 0; i < n; i++ {
			nv, err := types.Neg(v.At(i))
			if err != nil {
				return nil, err
			}
			out.Append(nv)
		}
		return out, nil

	case *algebra.IsNull:
		v, err := evalVec(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		n := selLen(sel, b)
		out := vec.NewDense(types.KindBool, n)
		for i := 0; i < n; i++ {
			out.I64[i] = b2i(v.IsNull(i) != x.Negated)
		}
		return out, nil

	case *algebra.Cast:
		v, err := evalVec(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		n := selLen(sel, b)
		out := &vec.Vec{}
		for i := 0; i < n; i++ {
			cv, err := CastValue(v.At(i), x.To)
			if err != nil {
				return nil, err
			}
			out.Append(cv)
		}
		return out, nil

	case *algebra.InList:
		if consts, ok := constList(x.List); ok {
			return evalVecInList(x, consts, ve, b, sel)
		}
		return evalVecFallback(e, ve, b, sel)

	case *algebra.Like:
		return evalVecLike(x, ve, b, sel)

	default:
		// Func, Case, IN over non-constant lists and anything new: the
		// row engine IS the semantics, one selected row at a time.
		return evalVecFallback(e, ve, b, sel)
	}
}

// evalVecFallback materializes each selected row into a reusable buffer
// and delegates to the row engine's Eval. Only the columns the expression
// reads are boxed into the buffer.
func evalVecFallback(e algebra.Scalar, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	if ve.env == nil {
		ve.env = NewEnv(ve.cols)
		ve.row = make(types.Row, len(ve.cols))
	}
	reads := ve.readsOf(e)
	n := selLen(sel, b)
	out := &vec.Vec{}
	for i := 0; i < n; i++ {
		p := pos(sel, i)
		for _, c := range reads {
			ve.row[c] = b.Cols[c].At(p)
		}
		ve.env.Row = ve.row
		v, err := Eval(e, ve.env)
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// constList returns an IN list's values when every element is a constant.
func constList(list []algebra.Scalar) ([]types.Value, bool) {
	vals := make([]types.Value, len(list))
	for i, el := range list {
		c, ok := el.(*algebra.Const)
		if !ok {
			return nil, false
		}
		vals[i] = c.Val
	}
	return vals, true
}

// evalVecInList evaluates `e [NOT] IN (const, …)` as Eval does: NULL when
// e is NULL; otherwise a match among the comparable non-NULL constants
// decides, and without one a NULL constant makes the answer NULL. Constant
// elements raise no errors, so element order cannot matter. Typed operands
// compare on their payloads; a mixed operand boxes.
func evalVecInList(x *algebra.InList, consts []types.Value, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	v, err := evalVec(x.E, ve, b, sel)
	if err != nil {
		return nil, err
	}
	n := selLen(sel, b)
	if !v.Mixed && v.Kind == types.KindNull {
		return vec.NullVec(n), nil
	}
	sawNull := false
	var ints []int64
	var flts []float64
	var strs []string
	for _, c := range consts {
		switch {
		case c.IsNull():
			sawNull = true
		case v.Mixed:
		case !types.Comparable(v.Kind, c.Kind()):
		case c.Kind() == types.KindString:
			strs = append(strs, c.Str())
		case c.Kind() == types.KindFloat || v.Kind == types.KindFloat:
			flts = append(flts, c.Float())
		case c.Kind() == types.KindInt:
			ints = append(ints, c.Int())
		case c.Kind() == types.KindDate:
			ints = append(ints, c.DateDays())
		default: // KindBool
			ints = append(ints, b2i(c.Bool()))
		}
	}
	out := vec.NewDense(types.KindBool, n)
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			out.SetNull(i)
			continue
		}
		var hit bool
		switch {
		case v.Mixed:
			hit = inConsts(v.At(i), consts)
		case v.Kind == types.KindString:
			hit = slices.Contains(strs, v.Str[i])
		case v.Kind == types.KindFloat:
			hit = inFloats(v.F64[i], flts)
		default:
			hit = slices.Contains(ints, v.I64[i]) ||
				(v.Kind == types.KindInt && inFloats(float64(v.I64[i]), flts))
		}
		switch {
		case hit:
			out.I64[i] = b2i(!x.Negated)
		case sawNull:
			out.SetNull(i)
		default:
			out.I64[i] = b2i(x.Negated)
		}
	}
	return out, nil
}

// inFloats reports a float-coerced match, NaN-tolerant as types.Compare is.
func inFloats(x float64, flts []float64) bool {
	for _, f := range flts {
		if !(x < f || x > f) {
			return true
		}
	}
	return false
}

// inConsts is the boxed form of one IN probe.
func inConsts(v types.Value, consts []types.Value) bool {
	for _, c := range consts {
		if !c.IsNull() && types.Comparable(v.Kind(), c.Kind()) && types.Compare(v, c) == 0 {
			return true
		}
	}
	return false
}

// evalVecLike evaluates `e [NOT] LIKE pattern` as Eval does: NULL stays
// NULL, a non-VARCHAR operand is the LIKE operand error at its first row.
func evalVecLike(x *algebra.Like, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	v, err := evalVec(x.E, ve, b, sel)
	if err != nil {
		return nil, err
	}
	n := selLen(sel, b)
	out := vec.NewDense(types.KindBool, n)
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			out.SetNull(i)
			continue
		}
		var s string
		if !v.Mixed && v.Kind == types.KindString {
			s = v.Str[i]
		} else if s, err = v.At(i).AsStr(); err != nil {
			return nil, fmt.Errorf("exec: LIKE operand: %w", err)
		}
		out.I64[i] = b2i(MatchLike(s, x.Pattern) != x.Negated)
	}
	return out, nil
}

// b2i is the branch-free bool→BIT payload conversion.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// constVec broadcasts one value across n rows.
func constVec(v types.Value, n int) *vec.Vec {
	if v.IsNull() {
		return vec.NullVec(n)
	}
	out := vec.NewDense(v.Kind(), n)
	switch v.Kind() {
	case types.KindInt, types.KindDate, types.KindBool:
		var x int64
		switch v.Kind() {
		case types.KindInt:
			x = v.Int()
		case types.KindDate:
			x = v.DateDays()
		default:
			x = b2i(v.Bool())
		}
		for i := range out.I64 {
			out.I64[i] = x
		}
	case types.KindFloat:
		x := v.Float()
		for i := range out.F64 {
			out.F64[i] = x
		}
	case types.KindString:
		x := v.Str()
		for i := range out.Str {
			out.Str[i] = x
		}
	}
	return out
}

// asBits returns a logical operand as a typed BIT vector (or an all-NULL
// one), mirroring evalBool: the common typed cases are returned as they
// are; anything else is decoded row by row, and a non-BIT value is the
// same *types.KindError AsBool reports, raised at the first offending row.
func asBits(v *vec.Vec, n int) (*vec.Vec, error) {
	if !v.Mixed && (v.Kind == types.KindBool || v.Kind == types.KindNull) {
		return v, nil
	}
	out := vec.NewDense(types.KindBool, n)
	for i := 0; i < n; i++ {
		ev := v.At(i)
		if ev.IsNull() {
			out.SetNull(i)
			continue
		}
		b, err := ev.AsBool()
		if err != nil {
			return nil, err
		}
		out.I64[i] = b2i(b)
	}
	return out, nil
}

// bitAt reads a BIT operand's row as (value, isNull).
func bitAt(v *vec.Vec, i int) (b, null bool) {
	if v.IsNull(i) {
		return false, true
	}
	return v.I64[i] != 0, false
}

// evalVecBinary dispatches AND/OR to the short-circuit kernel,
// comparisons and arithmetic to elementwise kernels. A constant operand
// skips broadcasting: the kernel folds the scalar directly.
func evalVecBinary(x *algebra.Binary, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	switch x.Op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		return evalVecAndOr(x, ve, b, sel)
	}
	n := selLen(sel, b)
	if c, ok := x.R.(*algebra.Const); ok {
		l, err := evalVec(x.L, ve, b, sel)
		if err != nil {
			return nil, err
		}
		if x.Op.IsComparison() {
			return compareScalar(x.Op, l, c.Val, n, false)
		}
		return arithScalar(x.Op, l, c.Val, n, false)
	}
	if c, ok := x.L.(*algebra.Const); ok {
		r, err := evalVec(x.R, ve, b, sel)
		if err != nil {
			return nil, err
		}
		if x.Op.IsComparison() {
			return compareScalar(x.Op, r, c.Val, n, true)
		}
		return arithScalar(x.Op, r, c.Val, n, true)
	}

	l, err := evalVec(x.L, ve, b, sel)
	if err != nil {
		return nil, err
	}
	r, err := evalVec(x.R, ve, b, sel)
	if err != nil {
		return nil, err
	}
	if x.Op.IsComparison() {
		return compareKernel(x.Op, l, r, n)
	}
	return arithKernel(x.Op, l, r, n)
}

// evalVecAndOr reproduces the row engine's three-valued short circuit on
// batches: the left operand is evaluated over every selected row; the
// right operand only over the sub-selection the left side did not
// already decide (not-false for AND, not-true for OR) — so a row whose
// right side would error is error-free exactly when the row engine
// short-circuits past it.
func evalVecAndOr(x *algebra.Binary, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	and := x.Op == sqlparser.OpAnd
	n := selLen(sel, b)
	lv, err := evalVec(x.L, ve, b, sel)
	if err != nil {
		return nil, err
	}
	if lv, err = asBits(lv, n); err != nil {
		return nil, err
	}
	// The batch positions the left side leaves undecided (NULL, or TRUE
	// for AND / FALSE for OR); when that is every row, the right side runs
	// under the caller's selection as it stands.
	sub := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if l, null := bitAt(lv, i); null || l == and {
			sub = append(sub, int32(pos(sel, i)))
		}
	}
	var rv *vec.Vec
	if len(sub) > 0 {
		if len(sub) == n {
			sub = sel
		}
		if rv, err = evalVec(x.R, ve, b, sub); err != nil {
			return nil, err
		}
		if rv, err = asBits(rv, selLen(sub, b)); err != nil {
			return nil, err
		}
	}
	// Combine, walking the undecided rows' right results in order. Decided
	// rows are FALSE for AND and TRUE for OR; an undecided row is the right
	// side's verdict when that decides, NULL when either side is NULL, and
	// otherwise the left side's own value.
	out := vec.NewDense(types.KindBool, n)
	k := 0
	for i := 0; i < n; i++ {
		l, lnull := bitAt(lv, i)
		if !lnull && l != and {
			out.I64[i] = b2i(l)
			continue
		}
		r, rnull := bitAt(rv, k)
		k++
		switch {
		case !rnull && r != and:
			out.I64[i] = b2i(r)
		case lnull || rnull:
			out.SetNull(i)
		default:
			out.I64[i] = b2i(and)
		}
	}
	return out, nil
}

// cmpLoop writes one comparison over two equal-length payload slices
// into a BIT payload, with the operator switch hoisted out of the loop.
func cmpLoop[T int64 | float64 | string](op sqlparser.BinOp, a, b []T, out []int64) {
	switch op {
	case sqlparser.OpEq:
		for i := range out {
			out[i] = b2i(a[i] == b[i])
		}
	case sqlparser.OpNe:
		for i := range out {
			out[i] = b2i(a[i] != b[i])
		}
	case sqlparser.OpLt:
		for i := range out {
			out[i] = b2i(a[i] < b[i])
		}
	case sqlparser.OpLe:
		for i := range out {
			out[i] = b2i(a[i] <= b[i])
		}
	case sqlparser.OpGt:
		for i := range out {
			out[i] = b2i(a[i] > b[i])
		}
	default: // OpGe
		for i := range out {
			out[i] = b2i(a[i] >= b[i])
		}
	}
}

// cmpLoopScalar is cmpLoop against one fixed right operand.
func cmpLoopScalar[T int64 | float64 | string](op sqlparser.BinOp, a []T, b T, out []int64) {
	switch op {
	case sqlparser.OpEq:
		for i := range out {
			out[i] = b2i(a[i] == b)
		}
	case sqlparser.OpNe:
		for i := range out {
			out[i] = b2i(a[i] != b)
		}
	case sqlparser.OpLt:
		for i := range out {
			out[i] = b2i(a[i] < b)
		}
	case sqlparser.OpLe:
		for i := range out {
			out[i] = b2i(a[i] <= b)
		}
	case sqlparser.OpGt:
		for i := range out {
			out[i] = b2i(a[i] > b)
		}
	default: // OpGe
		for i := range out {
			out[i] = b2i(a[i] >= b)
		}
	}
}

// flipCmp mirrors a comparison so `const op col` can run as `col op' const`.
func flipCmp(op sqlparser.BinOp) sqlparser.BinOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op // Eq, Ne are symmetric
}

// floatCol coerces a numeric vector's payload to a dense float64 slice
// (NULL lanes hold garbage the bitmap masks).
func floatCol(v *vec.Vec, n int) []float64 {
	if v.Kind == types.KindFloat {
		return v.F64
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(v.I64[i])
	}
	return out
}

// i64Typed reports whether a vector's payload is int64-backed and
// comparable within its own kind (INT, DATE, BIT).
func i64Typed(v *vec.Vec) bool {
	return v.Kind == types.KindInt || v.Kind == types.KindDate || v.Kind == types.KindBool
}

// compareKernel evaluates one comparison over two dense operand vectors,
// with typed fast paths and a boxed general path sharing the row
// engine's semantics (NULL in → NULL out, incomparable kinds error).
func compareKernel(op sqlparser.BinOp, l, r *vec.Vec, n int) (*vec.Vec, error) {
	if !l.Mixed && !r.Mixed {
		if l.Kind == types.KindNull || r.Kind == types.KindNull {
			return vec.NullVec(n), nil
		}
		out := vec.NewDense(types.KindBool, n)
		out.OrNulls(l, r)
		switch {
		case l.Kind == r.Kind && i64Typed(l):
			cmpLoop(op, l.I64, r.I64, out.I64)
			return out, nil
		case l.Kind.Numeric() && r.Kind.Numeric():
			// Mixed INT/FLOAT compares after float coercion, exactly as
			// types.CompareChecked does.
			cmpLoop(op, floatCol(l, n), floatCol(r, n), out.I64)
			return out, nil
		case l.Kind == types.KindString && r.Kind == types.KindString:
			cmpLoop(op, l.Str, r.Str, out.I64)
			return out, nil
		}
	}
	// General path: boxed elementwise, same checks as evalBinary.
	out := vec.NewDense(types.KindBool, n)
	for i := 0; i < n; i++ {
		a, b := l.At(i), r.At(i)
		if a.IsNull() || b.IsNull() {
			out.SetNull(i)
			continue
		}
		c, err := types.CompareChecked(a, b)
		if err != nil {
			return nil, fmt.Errorf("exec: comparing %s with %s", a.Kind(), b.Kind())
		}
		out.I64[i] = b2i(cmpHolds(op, c))
	}
	return out, nil
}

// cmpHolds applies a comparison operator to a three-way compare result.
func cmpHolds(op sqlparser.BinOp, c int) bool {
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// compareScalar evaluates column-vs-constant comparisons without
// broadcasting the constant. constLeft records that the constant was the
// left operand (loops run the mirrored operator; the general path keeps
// operand order so error text matches the row engine).
func compareScalar(op sqlparser.BinOp, v *vec.Vec, cv types.Value, n int, constLeft bool) (*vec.Vec, error) {
	if cv.IsNull() || (!v.Mixed && v.Kind == types.KindNull) {
		return vec.NullVec(n), nil
	}
	eff := op
	if constLeft {
		eff = flipCmp(op)
	}
	if !v.Mixed {
		switch {
		case v.Kind == cv.Kind() && i64Typed(v):
			out := vec.NewDense(types.KindBool, n)
			out.CopyNulls(v)
			var x int64
			switch v.Kind {
			case types.KindInt:
				x = cv.Int()
			case types.KindDate:
				x = cv.DateDays()
			default:
				x = b2i(cv.Bool())
			}
			cmpLoopScalar(eff, v.I64, x, out.I64)
			return out, nil
		case v.Kind.Numeric() && cv.Kind().Numeric():
			out := vec.NewDense(types.KindBool, n)
			out.CopyNulls(v)
			var x float64
			if cv.Kind() == types.KindInt {
				x = float64(cv.Int())
			} else {
				x = cv.Float()
			}
			cmpLoopScalar(eff, floatCol(v, n), x, out.I64)
			return out, nil
		case v.Kind == types.KindString && cv.Kind() == types.KindString:
			out := vec.NewDense(types.KindBool, n)
			out.CopyNulls(v)
			cmpLoopScalar(eff, v.Str, cv.Str(), out.I64)
			return out, nil
		}
	}
	// General path: boxed elementwise in original operand order.
	out := vec.NewDense(types.KindBool, n)
	for i := 0; i < n; i++ {
		ev := v.At(i)
		if ev.IsNull() {
			out.SetNull(i)
			continue
		}
		a, b := ev, cv
		if constLeft {
			a, b = cv, ev
		}
		c, err := types.CompareChecked(a, b)
		if err != nil {
			return nil, fmt.Errorf("exec: comparing %s with %s", a.Kind(), b.Kind())
		}
		out.I64[i] = b2i(cmpHolds(op, c))
	}
	return out, nil
}

// arithLoop writes one arithmetic operator over two payload slices with
// the switch hoisted; Div is excluded (zero checks need the bitmap).
func arithLoop[T int64 | float64](op sqlparser.BinOp, a, b []T, out []T) {
	switch op {
	case sqlparser.OpAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case sqlparser.OpSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	default: // OpMul
		for i := range out {
			out[i] = a[i] * b[i]
		}
	}
}

// arithLoopScalar is arithLoop against one fixed operand; constLeft
// selects const-op-col evaluation order (matters for Sub).
func arithLoopScalar[T int64 | float64](op sqlparser.BinOp, a []T, b T, out []T, constLeft bool) {
	switch {
	case op == sqlparser.OpAdd:
		for i := range out {
			out[i] = a[i] + b
		}
	case op == sqlparser.OpSub && !constLeft:
		for i := range out {
			out[i] = a[i] - b
		}
	case op == sqlparser.OpSub:
		for i := range out {
			out[i] = b - a[i]
		}
	default: // OpMul
		for i := range out {
			out[i] = a[i] * b
		}
	}
}

// arithKernel evaluates +,-,*,/ over two dense operand vectors. INT+INT
// wraps on int64 exactly like types.Add; any FLOAT operand promotes;
// division always yields FLOAT and fails on zero (NULL rows never
// divide, so a NULL lane's zero divisor raises nothing).
func arithKernel(op sqlparser.BinOp, l, r *vec.Vec, n int) (*vec.Vec, error) {
	if !l.Mixed && !r.Mixed {
		if l.Kind == types.KindNull || r.Kind == types.KindNull {
			return vec.NullVec(n), nil
		}
		switch {
		case l.Kind == types.KindInt && r.Kind == types.KindInt && op != sqlparser.OpDiv:
			out := vec.NewDense(types.KindInt, n)
			out.OrNulls(l, r)
			arithLoop(op, l.I64, r.I64, out.I64)
			return out, nil
		case l.Kind.Numeric() && r.Kind.Numeric() && op != sqlparser.OpDiv:
			out := vec.NewDense(types.KindFloat, n)
			out.OrNulls(l, r)
			arithLoop(op, floatCol(l, n), floatCol(r, n), out.F64)
			return out, nil
		case l.Kind.Numeric() && r.Kind.Numeric():
			out := vec.NewDense(types.KindFloat, n)
			out.OrNulls(l, r)
			lf, rf := floatCol(l, n), floatCol(r, n)
			for i := 0; i < n; i++ {
				if out.IsNull(i) {
					continue
				}
				if rf[i] == 0 {
					return nil, fmt.Errorf("types: division by zero")
				}
				out.F64[i] = lf[i] / rf[i]
			}
			return out, nil
		}
	}
	// General path: the shared types helpers, elementwise.
	out := &vec.Vec{}
	for i := 0; i < n; i++ {
		v, err := arithBoxed(op, l.At(i), r.At(i))
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// arithScalar evaluates column-op-constant arithmetic without
// broadcasting the constant.
func arithScalar(op sqlparser.BinOp, v *vec.Vec, cv types.Value, n int, constLeft bool) (*vec.Vec, error) {
	if cv.IsNull() || (!v.Mixed && v.Kind == types.KindNull) {
		return vec.NullVec(n), nil
	}
	if !v.Mixed {
		switch {
		case v.Kind == types.KindInt && cv.Kind() == types.KindInt && op != sqlparser.OpDiv:
			out := vec.NewDense(types.KindInt, n)
			out.CopyNulls(v)
			arithLoopScalar(op, v.I64, cv.Int(), out.I64, constLeft)
			return out, nil
		case v.Kind.Numeric() && cv.Kind().Numeric() && op != sqlparser.OpDiv:
			out := vec.NewDense(types.KindFloat, n)
			out.CopyNulls(v)
			var x float64
			if cv.Kind() == types.KindInt {
				x = float64(cv.Int())
			} else {
				x = cv.Float()
			}
			arithLoopScalar(op, floatCol(v, n), x, out.F64, constLeft)
			return out, nil
		}
	}
	// Division and the general path: boxed elementwise in operand order.
	out := &vec.Vec{}
	for i := 0; i < n; i++ {
		ev := v.At(i)
		a, b := ev, cv
		if constLeft {
			a, b = cv, ev
		}
		res, err := arithBoxed(op, a, b)
		if err != nil {
			return nil, err
		}
		out.Append(res)
	}
	return out, nil
}

// arithBoxed applies one arithmetic operator via the shared types
// helpers — the single source of row-engine arithmetic semantics.
func arithBoxed(op sqlparser.BinOp, a, b types.Value) (types.Value, error) {
	switch op {
	case sqlparser.OpAdd:
		return types.Add(a, b)
	case sqlparser.OpSub:
		return types.Sub(a, b)
	case sqlparser.OpMul:
		return types.Mul(a, b)
	case sqlparser.OpDiv:
		return types.Div(a, b)
	}
	return types.Null, fmt.Errorf("exec: unknown operator %s", op)
}

// trueRows returns, in order, the positions of b where the predicate is
// TRUE. A conjunction is evaluated conjunct by conjunct, each over only
// the rows no earlier conjunct made FALSE — exactly the rows the row
// engine's AND short circuit evaluates it on, so errors arise on the same
// rows — and a row is kept when no conjunct was FALSE or NULL; a non-BIT
// conjunct is AND's operand error. A lone predicate's non-BIT value is
// the TruthyChecked error, wrapped with the site.
func trueRows(pred algebra.Scalar, ve *vecEnv, b *vec.Batch, site string) ([]int32, error) {
	conj := algebra.Conjuncts(pred)
	if len(conj) == 1 {
		v, err := evalVec(pred, ve, b, nil)
		if err != nil {
			return nil, err
		}
		sel, err := truthySel(v, b.N)
		if err != nil {
			return nil, fmt.Errorf("exec: %s: %w", site, err)
		}
		return sel, nil
	}
	var sel []int32  // nil = every row
	var nulls []bool // by batch position: some conjunct was NULL
	for _, c := range conj {
		n := selLen(sel, b)
		v, err := evalVec(c, ve, b, sel)
		if err != nil {
			return nil, err
		}
		if v, err = asBits(v, n); err != nil {
			return nil, err
		}
		kept := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			x, null := bitAt(v, i)
			if !x && !null {
				continue
			}
			p := pos(sel, i)
			if null {
				if nulls == nil {
					nulls = make([]bool, b.N)
				}
				nulls[p] = true
			}
			kept = append(kept, int32(p))
		}
		if sel = kept; len(sel) == 0 {
			return nil, nil
		}
	}
	if nulls != nil {
		sel = slices.DeleteFunc(sel, func(p int32) bool { return nulls[p] })
	}
	return sel, nil
}

// truthySel applies SQL predicate semantics to a predicate result
// vector, returning the batch positions where it is TRUE (NULL counts as
// false; a non-BIT value is the TruthyChecked error, unwrapped — callers
// add their site-specific wrap).
func truthySel(v *vec.Vec, n int) ([]int32, error) {
	sel := make([]int32, 0, n)
	// Typed fast path: a BIT vector selects directly off the payload.
	if !v.Mixed && v.Kind == types.KindBool {
		if v.Nulls == nil {
			for i := 0; i < n; i++ {
				if v.I64[i] != 0 {
					sel = append(sel, int32(i))
				}
			}
			return sel, nil
		}
		for i := 0; i < n; i++ {
			if v.I64[i] != 0 && !v.IsNull(i) {
				sel = append(sel, int32(i))
			}
		}
		return sel, nil
	}
	if !v.Mixed && v.Kind == types.KindNull {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		ev := v.At(i)
		keep, err := TruthyChecked(ev)
		if err != nil {
			return nil, err
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	return sel, nil
}
