package exec

// Vectorized expression evaluation: scalars are computed a batch at a
// time over typed column vectors, under a selection vector naming the
// batch positions still alive. Kernels cover the hot shapes (column
// references, constants, comparisons, arithmetic, three-valued AND/OR,
// NOT/NEG/IS NULL, numeric casts, IN over constants, LIKE); CASE and IN
// over other lists run each branch or element over the rows that reach
// it, and the rest applies the value functions both engines share row by
// row (rowWise). The row engine's Eval is never called here: it is the
// reference, and the differential tests make any drift from it show.
//
// Kernel outputs are read-only after construction: typed fast paths
// write payloads positionally into dense vectors and may alias an
// operand's null bitmap, so callers must never mutate a vector evalVec
// returned. Temporaries are the operator's scratch: operand gathers,
// inner kernel outputs, INT operands coerced to FLOAT and every result
// evalTemp returns (aggregate arguments, predicate values) are vectors of
// the operator's vecEnv, refilled in place batch after batch once the
// operator calls reset. Only evalVec's own result, a projection's output,
// is fresh, since a consumer may keep it; a scratch vector starts each
// reuse without a null bitmap, so one such an output shares stays intact.
//
// Predicates do not build BIT vectors where they can help it: trueRows
// narrows a selection (ascending batch positions) conjunct by conjunct,
// and narrow runs comparisons, IN over constants and LIKE on columns and
// constants, and AND/OR trees of those, as loops over the selection that
// read payloads in place and append survivors to selection buffers. Those
// buffers belong to the operator's vecEnv: take lends one, give returns
// it, and they are reused batch after batch until the operator is
// dropped. trueRows' result is one of them, valid until trueRows next runs
// on the same vecEnv. Every comparison, BIT kernel and narrowing loop
// alike, goes through holds.
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

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// vecEnv resolves column IDs against one operator's input schema and
// holds the operator's evaluation scratch.
type vecEnv struct {
	idx    map[algebra.ColumnID]int
	conj   map[algebra.Scalar][]algebra.Scalar // per predicate, its conjuncts
	consts map[*algebra.Const]*vec.Vec         // per constant, a one-row vector
	free   [][]int32                           // selection buffers give returned
	iota   []int32                             // 0, 1, 2, …: a whole batch
	out    []int32                             // trueRows' last result
	tmp    []*vec.Vec                          // scratch vectors, handed out in order
	ntmp   int                                 // how many of tmp are in use
}

func newVecEnv(cols []algebra.ColumnMeta) *vecEnv {
	idx := make(map[algebra.ColumnID]int, len(cols))
	for i, c := range cols {
		idx[c.ID] = i
	}
	return &vecEnv{idx: idx}
}

// take lends an empty selection buffer with room for n positions; give
// returns buffers, grown or not, for later takes. A buffer given back must
// not be read again.
func (ve *vecEnv) take(n int) []int32 {
	var s []int32
	if k := len(ve.free); k > 0 {
		s = ve.free[k-1]
		ve.free = ve.free[:k-1]
	}
	return reuse(s, n)
}

// reuse empties a scratch buffer, replacing it when it cannot hold n.
func reuse(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, 0, n)
	}
	return s[:0]
}

func (ve *vecEnv) give(bufs ...[]int32) {
	for _, s := range bufs {
		if cap(s) > 0 {
			ve.free = append(ve.free, s)
		}
	}
}

// reset reclaims every scratch vector: the operator calls it once per
// batch, before it evaluates anything, when nothing evaluated for the
// previous batch is read any more.
func (ve *vecEnv) reset() { ve.ntmp = 0 }

// dense returns the vector vec.NewDense(kind, n) returns when fresh is
// set, or else the next of ve's scratch vectors in that shape, valid
// until the next reset.
func (ve *vecEnv) dense(kind types.Kind, n int, fresh bool) *vec.Vec {
	if fresh {
		return vec.NewDense(kind, n)
	}
	v := ve.next()
	v.Reuse(kind, n)
	return v
}

// next hands out the next scratch vector as it was last left.
func (ve *vecEnv) next() *vec.Vec {
	if ve.ntmp == len(ve.tmp) {
		ve.tmp = append(ve.tmp, &vec.Vec{})
	}
	ve.ntmp++
	return ve.tmp[ve.ntmp-1]
}

// gather is v.Gather(sel), into a scratch vector unless fresh is set.
func (ve *vecEnv) gather(v *vec.Vec, sel []int32, fresh bool) *vec.Vec {
	if fresh {
		return v.Gather(sel)
	}
	out := ve.next()
	v.GatherTo(out, sel)
	return out
}

// all returns the selection of every row of an n-row batch.
func (ve *vecEnv) all(n int) []int32 {
	if len(ve.iota) < n {
		ve.iota = make([]int32, n)
		for i := range ve.iota {
			ve.iota[i] = int32(i)
		}
	}
	return ve.iota[:n]
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
// The result is the caller's to keep; the temporaries behind it (operand
// gathers, inner kernel outputs) are ve's scratch.
func evalVec(e algebra.Scalar, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	return ve.eval(e, b, sel, true)
}

// EvalClosed evaluates a closed scalar, one that reads no column, over a
// one-row batch without columns: the evaluator of constant folding.
func EvalClosed(e algebra.Scalar) (types.Value, error) {
	v, err := evalVec(e, newVecEnv(nil), &vec.Batch{N: 1}, nil)
	if err != nil {
		return types.Null, err
	}
	return v.At(0), nil
}

// evalTemp is evalVec whose result is ve's scratch as well: it is read
// before the operator's next reset and never kept.
func evalTemp(e algebra.Scalar, ve *vecEnv, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	return ve.eval(e, b, sel, false)
}

// eval is evalVec when fresh is set and evalTemp otherwise. Operands are
// always evaluated as scratch: no kernel output shares an operand's
// payload, and a bitmap one shares (CopyNulls) is never rewritten, since
// a reused scratch vector starts without one.
func (ve *vecEnv) eval(e algebra.Scalar, b *vec.Batch, sel []int32, fresh bool) (*vec.Vec, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		i, ok := ve.idx[x.ID]
		if !ok {
			return nil, fmt.Errorf("exec: column c%d not in row", x.ID)
		}
		if sel == nil {
			return b.Cols[i], nil
		}
		return ve.gather(b.Cols[i], sel, fresh), nil

	case *algebra.Const:
		return constVec(x.Val, selLen(sel, b)), nil

	case *algebra.Binary:
		return evalVecBinary(x, ve, b, sel, fresh)

	case *algebra.Not:
		v, err := evalTemp(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		n := selLen(sel, b)
		if v, err = asBits(v, n); err != nil {
			return nil, fmt.Errorf("exec: NOT operand: %w", err)
		}
		if v.Kind == types.KindNull {
			return vec.NullVec(n), nil
		}
		out := ve.dense(types.KindBool, n, fresh)
		out.CopyNulls(v)
		for i := 0; i < n; i++ {
			out.I64[i] = 1 - (v.I64[i] & 1)
		}
		return out, nil

	case *algebra.Neg:
		v, err := evalTemp(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		return rowWise(selLen(sel, b), func(i int) (types.Value, error) { return types.Neg(v.At(i)) })

	case *algebra.IsNull:
		v, err := evalTemp(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		n := selLen(sel, b)
		out := ve.dense(types.KindBool, n, fresh)
		for i := 0; i < n; i++ {
			out.I64[i] = b2i(v.IsNull(i) != x.Negated)
		}
		return out, nil

	case *algebra.Cast:
		v, err := evalTemp(x.E, ve, b, sel)
		if err != nil {
			return nil, err
		}
		return rowWise(selLen(sel, b), func(i int) (types.Value, error) { return CastValue(v.At(i), x.To) })

	case *algebra.InList:
		if consts, ok := constList(x.List); ok {
			return evalVecInList(x, consts, ve, b, sel, fresh)
		}
		return ve.inRows(x, b, sel, fresh)

	case *algebra.Like:
		return evalVecLike(x, ve, b, sel, fresh)

	case *algebra.Func:
		args := make([]*vec.Vec, len(x.Args))
		for i, a := range x.Args {
			v, err := evalTemp(a, ve, b, sel)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		vals := make([]types.Value, len(args))
		return rowWise(selLen(sel, b), func(i int) (types.Value, error) {
			for j, a := range args {
				vals[j] = a.At(i)
			}
			return EvalConstFunc(x.Name, vals)
		})

	case *algebra.Case:
		return ve.evalCase(x, b, sel)
	}
	return nil, fmt.Errorf("exec: cannot evaluate %T", e)
}

// rowWise builds an n-row vector from row i's boxed value: the per-row
// step of function calls and of the kernels' general paths.
func rowWise(n int, at func(i int) (types.Value, error)) (*vec.Vec, error) {
	out := &vec.Vec{}
	for i := 0; i < n; i++ {
		v, err := at(i)
		if err != nil {
			return nil, err
		}
		out.Append(v)
	}
	return out, nil
}

// evalCase narrows each WHEN condition over the rows no earlier WHEN took
// and evaluates its THEN over the rows it takes, and ELSE over the rest
// (NULL without one), so a branch can raise errors only on the rows the
// row engine evaluates it on. vec.Column places the results once, boxed
// when the branches' kinds differ.
func (ve *vecEnv) evalCase(x *algebra.Case, b *vec.Batch, sel []int32) (*vec.Vec, error) {
	n := selLen(sel, b)
	// Row i takes the result of branch arm[i]-1 (none, so NULL, at 0), at
	// row at[i] of that branch's vector.
	arm, at := ve.take(n)[:n], ve.take(n)[:n]
	clear(arm)
	var vals []*vec.Vec
	branch := func(e algebra.Scalar, rows []int32) error {
		if len(rows) == 0 {
			return nil // no row to evaluate e on, so no error to raise
		}
		v, err := evalTemp(e, ve, b, rows)
		if err != nil {
			return err
		}
		vals = append(vals, v)
		i := 0
		for j, p := range rows {
			for pos(sel, i) != int(p) {
				i++
			}
			arm[i], at[i] = int32(len(vals)), int32(j)
		}
		return nil
	}
	rest := sel
	if rest == nil {
		rest = ve.all(b.N)
	}
	rest = append(ve.take(n), rest...) // the rows no WHEN took yet
	for _, w := range x.Whens {
		if len(rest) == 0 {
			break
		}
		t, u, err := ve.narrow(w.Cond, b, rest, ve.take(len(rest)), ve.take(len(rest)), "CASE condition")
		if err != nil {
			return nil, err
		}
		if err := branch(w.Then, t); err != nil {
			return nil, err
		}
		left := minus(ve.take(len(rest)), rest, t)
		ve.give(rest, t, u)
		rest = left
	}
	if x.Else != nil {
		if err := branch(x.Else, rest); err != nil {
			return nil, err
		}
	}
	out := vec.Column(n, func(i int) types.Value {
		if arm[i] == 0 {
			return types.Null
		}
		return vals[arm[i]-1].At(int(at[i]))
	})
	ve.give(rest, arm, at)
	return out, nil
}

// inRows is `e [NOT] IN (…)` over a list not all constant: each element
// runs over the rows still undecided (e is not NULL, no earlier element
// matched), the rows the row engine evaluates it on. A comparable match
// decides; without one, a NULL element makes the answer NULL.
func (ve *vecEnv) inRows(x *algebra.InList, b *vec.Batch, sel []int32, fresh bool) (*vec.Vec, error) {
	v, err := evalTemp(x.E, ve, b, sel)
	if err != nil {
		return nil, err
	}
	n := selLen(sel, b)
	out := ve.dense(types.KindBool, n, fresh)
	// The undecided rows: their indexes in v and their batch positions.
	idx, ps := ve.take(n), ve.take(n)
	sawNull := ve.take(n)[:n]
	clear(sawNull)
	for i := 0; i < n; i++ {
		if v.IsNull(i) {
			out.SetNull(i)
		} else {
			idx, ps = append(idx, int32(i)), append(ps, int32(pos(sel, i)))
		}
	}
	for _, el := range x.List {
		if len(idx) == 0 {
			break // every row is decided: no element runs again
		}
		ev, err := evalTemp(el, ve, b, ps)
		if err != nil {
			return nil, err
		}
		k := 0
		for j, i := range idx {
			a, c := v.At(int(i)), ev.At(j)
			switch {
			case c.IsNull():
				sawNull[i] = 1
			case types.Comparable(a.Kind(), c.Kind()) && types.Compare(a, c) == 0:
				out.I64[i] = b2i(!x.Negated)
				continue
			}
			idx[k], ps[k] = i, ps[j]
			k++
		}
		idx, ps = idx[:k], ps[:k]
	}
	for _, i := range idx {
		if sawNull[i] != 0 {
			out.SetNull(int(i))
		} else {
			out.I64[i] = b2i(x.Negated)
		}
	}
	ve.give(idx, ps, sawNull)
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

// evalVecInList evaluates `e [NOT] IN (const, …)` as Eval does (inSet).
func evalVecInList(x *algebra.InList, consts []types.Value, ve *vecEnv, b *vec.Batch, sel []int32, fresh bool) (*vec.Vec, error) {
	v, err := evalTemp(x.E, ve, b, sel)
	if err != nil {
		return nil, err
	}
	n := selLen(sel, b)
	if !v.Mixed && v.Kind == types.KindNull {
		return vec.NullVec(n), nil
	}
	set := newInSet(consts, v)
	out := ve.dense(types.KindBool, n, fresh)
	for i := 0; i < n; i++ {
		if in, null := set.verdict(v, i, x.Negated); null {
			out.SetNull(i)
		} else {
			out.I64[i] = b2i(in)
		}
	}
	return out, nil
}

// inSet holds an IN list's constants by the payload a probe vector's rows
// compare them on. Eval's rule: NULL when the probe is NULL; otherwise a
// match among the comparable non-NULL constants decides, and without one
// a NULL constant makes the answer NULL. Constant elements raise no
// errors, so element order cannot matter. Typed probes compare on their
// payloads; a mixed probe boxes.
type inSet struct {
	consts  []types.Value
	sawNull bool
	ints    []int64
	flts    []float64
	strs    []string
}

func newInSet(consts []types.Value, v *vec.Vec) inSet {
	s := inSet{consts: consts}
	for _, c := range consts {
		switch {
		case c.IsNull():
			s.sawNull = true
		case v.Mixed:
		case !types.Comparable(v.Kind, c.Kind()):
		case c.Kind() == types.KindString:
			s.strs = append(s.strs, c.Str())
		case c.Kind() == types.KindFloat || v.Kind == types.KindFloat:
			s.flts = append(s.flts, c.Float())
		case c.Kind() == types.KindInt:
			s.ints = append(s.ints, c.Int())
		case c.Kind() == types.KindDate:
			s.ints = append(s.ints, c.DateDays())
		default: // KindBool
			s.ints = append(s.ints, b2i(c.Bool()))
		}
	}
	return s
}

// verdict is `row i of v [NOT] IN (…)` as (value, NULL).
func (s *inSet) verdict(v *vec.Vec, i int, negated bool) (in, null bool) {
	if v.IsNull(i) {
		return false, true
	}
	var hit bool
	switch {
	case v.Mixed:
		hit = inConsts(v.At(i), s.consts)
	case v.Kind == types.KindString:
		hit = slices.Contains(s.strs, v.Str[i])
	case v.Kind == types.KindFloat:
		hit = inFloats(v.F64[i], s.flts)
	default:
		hit = slices.Contains(s.ints, v.I64[i]) ||
			(v.Kind == types.KindInt && inFloats(float64(v.I64[i]), s.flts))
	}
	switch {
	case hit:
		return !negated, false
	case s.sawNull:
		return false, true
	}
	return negated, false
}

// inFloats reports a float-coerced match, NaN-tolerant as types.Compare is.
func inFloats(x float64, flts []float64) bool {
	for _, f := range flts {
		if holds(sqlparser.OpEq, x, f) {
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
func evalVecLike(x *algebra.Like, ve *vecEnv, b *vec.Batch, sel []int32, fresh bool) (*vec.Vec, error) {
	v, err := evalTemp(x.E, ve, b, sel)
	if err != nil {
		return nil, err
	}
	n := selLen(sel, b)
	out := ve.dense(types.KindBool, n, fresh)
	for i := 0; i < n; i++ {
		match, null, err := likeVerdict(x, v, i)
		if err != nil {
			return nil, err
		}
		if null {
			out.SetNull(i)
		}
		out.I64[i] = b2i(match)
	}
	return out, nil
}

// likeVerdict is row i's `[NOT] LIKE pattern` verdict, for the kernel and
// the narrowing loop alike: NULL stays NULL, a non-VARCHAR value is the
// LIKE operand error.
func likeVerdict(x *algebra.Like, v *vec.Vec, i int) (match, null bool, err error) {
	if v.IsNull(i) {
		return false, true, nil
	}
	var s string
	if !v.Mixed && v.Kind == types.KindString {
		s = v.Str[i]
	} else if s, err = v.At(i).AsStr(); err != nil {
		return false, false, fmt.Errorf("exec: LIKE operand: %w", err)
	}
	return MatchLike(s, x.Pattern) != x.Negated, false, nil
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
	return vec.Column(n, func(int) types.Value { return v })
}

// asBits returns a logical operand as a typed BIT vector (or an all-NULL
// one), mirroring evalBool: the common typed cases are returned as they
// are; anything else is decoded row by row, and a non-BIT value is the
// same *types.KindError AsBool reports, raised at the first offending row.
func asBits(v *vec.Vec, n int) (*vec.Vec, error) {
	if !v.Mixed && (v.Kind == types.KindBool || v.Kind == types.KindNull) {
		return v, nil
	}
	return rowWise(n, func(i int) (types.Value, error) {
		ev := v.At(i)
		if ev.IsNull() {
			return types.Null, nil
		}
		b, err := ev.AsBool()
		return types.NewBool(b), err
	})
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
func evalVecBinary(x *algebra.Binary, ve *vecEnv, b *vec.Batch, sel []int32, fresh bool) (*vec.Vec, error) {
	switch x.Op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		return evalVecAndOr(x, ve, b, sel, fresh)
	}
	n := selLen(sel, b)
	if c, ok := x.R.(*algebra.Const); ok {
		l, err := evalTemp(x.L, ve, b, sel)
		if err != nil {
			return nil, err
		}
		if x.Op.IsComparison() {
			return ve.compareKernel(x.Op, l, ve.constOf(c), -1, 0, n, fresh)
		}
		return ve.arithScalar(x.Op, l, c.Val, n, false, fresh)
	}
	if c, ok := x.L.(*algebra.Const); ok {
		r, err := evalTemp(x.R, ve, b, sel)
		if err != nil {
			return nil, err
		}
		if x.Op.IsComparison() {
			return ve.compareKernel(x.Op, ve.constOf(c), r, 0, -1, n, fresh)
		}
		return ve.arithScalar(x.Op, r, c.Val, n, true, fresh)
	}

	l, err := evalTemp(x.L, ve, b, sel)
	if err != nil {
		return nil, err
	}
	r, err := evalTemp(x.R, ve, b, sel)
	if err != nil {
		return nil, err
	}
	if x.Op.IsComparison() {
		return ve.compareKernel(x.Op, l, r, -1, -1, n, fresh)
	}
	return ve.arithKernel(x.Op, l, r, n, fresh)
}

// evalVecAndOr is narrowAndOr's verdict over sel as a BIT vector.
func evalVecAndOr(x *algebra.Binary, ve *vecEnv, b *vec.Batch, sel []int32, fresh bool) (*vec.Vec, error) {
	if sel == nil {
		sel = ve.all(b.N)
	}
	t, u, err := ve.narrowAndOr(x, b, sel, ve.take(len(sel)), ve.take(len(sel)))
	if err != nil {
		return nil, err
	}
	out := ve.dense(types.KindBool, len(sel), fresh)
	ti, ui := 0, 0
	for i, p := range sel {
		switch {
		case ti < len(t) && t[ti] == p:
			out.I64[i] = 1
			ti++
		case ui < len(u) && u[ui] == p:
			out.SetNull(i)
			ui++
		}
	}
	ve.give(t, u)
	return out, nil
}

// holds is the one comparison rule, for every kernel and narrowing loop.
// It is types.CompareChecked's: an unordered pair — a NaN, the one value
// unequal to itself — compares equal, so = is !(a<b || a>b), <> is
// a<b || a>b, <= is !(a>b) and >= is !(a<b). Equality is spelled as ==
// or a NaN on either side, so a VARCHAR pair costs one comparison.
func holds[T int64 | float64 | string](op sqlparser.BinOp, a, b T) bool {
	switch op {
	case sqlparser.OpEq:
		return a == b || a != a || b != b
	case sqlparser.OpNe:
		return a != b && a == a && b == b
	case sqlparser.OpLt:
		return a < b
	case sqlparser.OpLe:
		return !(a > b)
	case sqlparser.OpGt:
		return a > b
	}
	return !(a < b) // OpGe
}

// cmpBits writes a[i&am] op b[i&bm] into a BIT payload: a mask of -1
// reads an operand row by row, a mask of 0 a constant's one slot.
func cmpBits[T int64 | float64 | string](op sqlparser.BinOp, a, b []T, am, bm int, out []int64) {
	for i := range out {
		out[i] = b2i(holds(op, a[i&am], b[i&bm]))
	}
}

// cmpSel appends to t the positions p of sel at which a[p&am] op b[p&bm]
// holds, the masks as in cmpBits. Every position is written and the end
// advances by the verdict, so the loop has no branch on the data.
func cmpSel[T int64 | float64 | string](op sqlparser.BinOp, a, b []T, am, bm int32, sel, t []int32) []int32 {
	n := len(t)
	t = slices.Grow(t, len(sel))[:n+len(sel)]
	for _, p := range sel {
		t[n] = p
		n += int(b2i(holds(op, a[p&am], b[p&bm])))
	}
	return t[:n]
}

// cmpSelNum is cmpSel across INT and FLOAT, after float coercion.
func cmpSelNum[A, B int64 | float64](op sqlparser.BinOp, a []A, b []B, am, bm int32, sel, t []int32) []int32 {
	n := len(t)
	t = slices.Grow(t, len(sel))[:n+len(sel)]
	for _, p := range sel {
		t[n] = p
		n += int(b2i(holds(op, float64(a[p&am]), float64(b[p&bm]))))
	}
	return t[:n]
}

// floatCol coerces a numeric vector's payload to a float64 slice (NULL
// lanes hold garbage the bitmap masks), converting an INT one into a
// scratch vector.
func (ve *vecEnv) floatCol(v *vec.Vec) []float64 {
	if v.Kind == types.KindFloat {
		return v.F64
	}
	out := ve.dense(types.KindFloat, len(v.I64), false).F64
	for i, x := range v.I64 {
		out[i] = float64(x)
	}
	return out
}

// i64Typed reports whether a vector's payload is int64-backed and
// comparable within its own kind (INT, DATE, BIT).
func i64Typed(v *vec.Vec) bool {
	return v.Kind == types.KindInt || v.Kind == types.KindDate || v.Kind == types.KindBool
}

// compareKernel evaluates one comparison over two operand vectors, row i
// reading l at i&lm and r at i&rm (a constant is a one-row vector under
// mask 0), with typed fast paths and a boxed general path sharing the row
// engine's semantics (NULL in → NULL out, incomparable kinds error).
func (ve *vecEnv) compareKernel(op sqlparser.BinOp, l, r *vec.Vec, lm, rm, n int, fresh bool) (*vec.Vec, error) {
	if !l.Mixed && !r.Mixed {
		if l.Kind == types.KindNull || r.Kind == types.KindNull {
			return vec.NullVec(n), nil
		}
		out := ve.dense(types.KindBool, n, fresh)
		out.OrNulls(l, r)
		switch {
		case l.Kind == r.Kind && i64Typed(l):
			cmpBits(op, l.I64, r.I64, lm, rm, out.I64)
			return out, nil
		case l.Kind.Numeric() && r.Kind.Numeric():
			// Mixed INT/FLOAT compares after float coercion, exactly as
			// types.CompareChecked does.
			cmpBits(op, ve.floatCol(l), ve.floatCol(r), lm, rm, out.I64)
			return out, nil
		case l.Kind == types.KindString && r.Kind == types.KindString:
			cmpBits(op, l.Str, r.Str, lm, rm, out.I64)
			return out, nil
		}
	}
	// General path: boxed elementwise, same checks as evalBinary.
	return rowWise(n, func(i int) (types.Value, error) {
		a, b := l.At(i&lm), r.At(i&rm)
		if a.IsNull() || b.IsNull() {
			return types.Null, nil
		}
		c, err := types.CompareChecked(a, b)
		if err != nil {
			return types.Null, fmt.Errorf("exec: comparing %s with %s", a.Kind(), b.Kind())
		}
		return types.NewBool(holds(op, int64(c), 0)), nil
	})
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
func (ve *vecEnv) arithKernel(op sqlparser.BinOp, l, r *vec.Vec, n int, fresh bool) (*vec.Vec, error) {
	if !l.Mixed && !r.Mixed {
		if l.Kind == types.KindNull || r.Kind == types.KindNull {
			return vec.NullVec(n), nil
		}
		switch {
		case l.Kind == types.KindInt && r.Kind == types.KindInt && op != sqlparser.OpDiv:
			out := ve.dense(types.KindInt, n, fresh)
			out.OrNulls(l, r)
			arithLoop(op, l.I64, r.I64, out.I64)
			return out, nil
		case l.Kind.Numeric() && r.Kind.Numeric() && op != sqlparser.OpDiv:
			out := ve.dense(types.KindFloat, n, fresh)
			out.OrNulls(l, r)
			arithLoop(op, ve.floatCol(l), ve.floatCol(r), out.F64)
			return out, nil
		case l.Kind.Numeric() && r.Kind.Numeric():
			out := ve.dense(types.KindFloat, n, fresh)
			out.OrNulls(l, r)
			lf, rf := ve.floatCol(l), ve.floatCol(r)
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
	return rowWise(n, func(i int) (types.Value, error) { return arithBoxed(op, l.At(i), r.At(i)) })
}

// arithScalar evaluates column-op-constant arithmetic without
// broadcasting the constant.
func (ve *vecEnv) arithScalar(op sqlparser.BinOp, v *vec.Vec, cv types.Value, n int, constLeft, fresh bool) (*vec.Vec, error) {
	if cv.IsNull() || (!v.Mixed && v.Kind == types.KindNull) {
		return vec.NullVec(n), nil
	}
	if !v.Mixed {
		switch {
		case v.Kind == types.KindInt && cv.Kind() == types.KindInt && op != sqlparser.OpDiv:
			out := ve.dense(types.KindInt, n, fresh)
			out.CopyNulls(v)
			arithLoopScalar(op, v.I64, cv.Int(), out.I64, constLeft)
			return out, nil
		case v.Kind.Numeric() && cv.Kind().Numeric() && op != sqlparser.OpDiv:
			out := ve.dense(types.KindFloat, n, fresh)
			out.CopyNulls(v)
			var x float64
			if cv.Kind() == types.KindInt {
				x = float64(cv.Int())
			} else {
				x = cv.Float()
			}
			arithLoopScalar(op, ve.floatCol(v), x, out.F64, constLeft)
			return out, nil
		}
	}
	// Division and the general path: boxed elementwise in operand order.
	return rowWise(n, func(i int) (types.Value, error) {
		if constLeft {
			return arithBoxed(op, cv, v.At(i))
		}
		return arithBoxed(op, v.At(i), cv)
	})
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

// trueRows narrows sel (nil: every row of b) to the positions at which
// pred is TRUE. A conjunction runs conjunct by conjunct, each over the
// rows no earlier conjunct made FALSE — exactly the rows the row engine's
// AND short circuit evaluates it on, so errors arise on the same rows; a
// row a conjunct makes NULL stays in flight and is dropped at the end. A
// non-BIT conjunct is AND's operand error, a lone predicate's non-BIT
// value the TruthyChecked error wrapped with the site. The result is a
// buffer of ve's, valid until trueRows next runs on ve.
func trueRows(pred algebra.Scalar, ve *vecEnv, b *vec.Batch, sel []int32, site string) ([]int32, error) {
	conj, ok := ve.conj[pred]
	if !ok {
		if ve.conj == nil {
			ve.conj = map[algebra.Scalar][]algebra.Scalar{}
		}
		conj = algebra.Conjuncts(pred)
		ve.conj[pred] = conj
	}
	if len(conj) > 1 {
		site = ""
	}
	ve.give(ve.out)
	ve.out = nil
	cur := sel
	if cur == nil {
		cur = ve.all(b.N)
	}
	var unknown []int32 // the rows some conjunct made NULL
	for ci, c := range conj {
		t, u, err := ve.narrow(c, b, cur, ve.take(len(cur)), ve.take(len(cur)), site)
		if err != nil {
			return nil, err
		}
		if ci > 0 {
			ve.give(cur)
		}
		cur = t
		if len(u) > 0 {
			cur = union(ve.take(len(t)+len(u)), t, u)
			all := union(ve.take(len(unknown)+len(u)), unknown, u)
			ve.give(t, unknown)
			unknown = all
		}
		ve.give(u)
		if len(cur) == 0 {
			break
		}
	}
	if unknown != nil {
		kept := minus(ve.take(len(cur)), cur, unknown)
		ve.give(cur, unknown)
		cur = kept
	}
	ve.out = cur
	return cur, nil
}

// narrow appends to t the positions of sel at which the predicate e is
// TRUE and to u those at which it is NULL, in sel order; the others are
// FALSE. Comparisons, IN over constants and LIKE on typed columns and
// constants, and AND/OR trees of them, are loops over sel reading the
// payloads in place; any other predicate is evaluated by evalTemp under
// sel.
// Its non-BIT value is AsBool's error, wrapped with site when that is set.
func (ve *vecEnv) narrow(e algebra.Scalar, b *vec.Batch, sel, t, u []int32, site string) ([]int32, []int32, error) {
	switch x := e.(type) {
	case *algebra.Binary:
		if x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return ve.narrowAndOr(x, b, sel, t, u)
		}
		if x.Op.IsComparison() {
			if t, u, ok := ve.narrowCmp(x, b, sel, t, u); ok {
				return t, u, nil
			}
		}
	case *algebra.InList:
		v, m, ok := ve.operand(x.E, b)
		if !ok || m == 0 {
			break
		}
		consts, ok := constList(x.List)
		if !ok {
			break
		}
		if !v.Mixed && v.Kind == types.KindNull {
			return t, append(u, sel...), nil
		}
		set := newInSet(consts, v)
		for _, p := range sel {
			if in, null := set.verdict(v, int(p), x.Negated); null {
				u = append(u, p)
			} else if in {
				t = append(t, p)
			}
		}
		return t, u, nil
	case *algebra.Like:
		v, m, ok := ve.operand(x.E, b)
		if !ok || m == 0 {
			break
		}
		for _, p := range sel {
			match, null, err := likeVerdict(x, v, int(p))
			if err != nil {
				return t, u, err
			}
			if null {
				u = append(u, p)
			} else if match {
				t = append(t, p)
			}
		}
		return t, u, nil
	}
	es := sel
	if len(sel) == b.N {
		es = nil // every row: evaluation reads columns without gathering
	}
	v, err := evalTemp(e, ve, b, es)
	if err != nil {
		return t, u, err
	}
	if v, err = asBits(v, len(sel)); err != nil {
		if site != "" {
			err = fmt.Errorf("exec: %s: %w", site, err)
		}
		return t, u, err
	}
	for i, p := range sel {
		if x, null := bitAt(v, i); null {
			u = append(u, p)
		} else if x {
			t = append(t, p)
		}
	}
	return t, u, nil
}

// narrowAndOr reproduces the row engine's three-valued short circuit on
// selections: the right operand runs only over the rows the left leaves
// undecided (not FALSE for AND, not TRUE for OR), so a row whose right
// side would error is error-free exactly when the row engine
// short-circuits past it.
func (ve *vecEnv) narrowAndOr(x *algebra.Binary, b *vec.Batch, sel, t, u []int32) ([]int32, []int32, error) {
	and := x.Op == sqlparser.OpAnd
	lt, lu, err := ve.narrow(x.L, b, sel, ve.take(len(sel)), ve.take(len(sel)), "")
	if err != nil {
		return t, u, err
	}
	rsel := ve.take(len(sel))
	if and {
		rsel = union(rsel, lt, lu)
	} else {
		rsel = minus(rsel, sel, lt)
	}
	rt, ru, err := ve.narrow(x.R, b, rsel, ve.take(len(rsel)), ve.take(len(rsel)), "")
	if err != nil {
		return t, u, err
	}
	tmp := ve.take(len(sel))
	if and {
		// TRUE where both sides are; NULL where the right is, or where a
		// TRUE right meets a NULL left.
		t = minus(t, rt, lu)
		tmp = minus(tmp, rt, lt)
	} else {
		// TRUE where either side is; NULL where the right is, or where a
		// NULL left meets a right that is not TRUE.
		t = union(t, lt, rt)
		tmp = minus(tmp, lu, rt)
	}
	u = union(u, ru, tmp)
	ve.give(lt, lu, rsel, rt, ru, tmp)
	return t, u, nil
}

// narrowCmp runs a comparison over sel when its operands are columns or
// constants (not two constants) of typed kinds it can compare; ok is
// false otherwise, and evalVec decides, errors included.
func (ve *vecEnv) narrowCmp(x *algebra.Binary, b *vec.Batch, sel, t, u []int32) (_, _ []int32, ok bool) {
	l, lm, lok := ve.operand(x.L, b)
	r, rm, rok := ve.operand(x.R, b)
	if !lok || !rok || lm|rm == 0 || l.Mixed || r.Mixed {
		return t, u, false
	}
	if l.Kind == types.KindNull || r.Kind == types.KindNull {
		return t, append(u, sel...), true
	}
	if l.Kind != r.Kind && !(l.Kind.Numeric() && r.Kind.Numeric()) {
		return t, u, false
	}
	live := sel
	if l.Nulls != nil || r.Nulls != nil {
		live = ve.take(len(sel))
		for _, p := range sel {
			if l.IsNull(int(p&lm)) || r.IsNull(int(p&rm)) {
				u = append(u, p)
			} else {
				live = append(live, p)
			}
		}
		defer ve.give(live)
	}
	switch {
	case l.Kind == types.KindFloat && r.Kind == types.KindFloat:
		t = cmpSel(x.Op, l.F64, r.F64, lm, rm, live, t)
	case l.Kind == types.KindFloat:
		t = cmpSelNum(x.Op, l.F64, r.I64, lm, rm, live, t)
	case r.Kind == types.KindFloat:
		t = cmpSelNum(x.Op, l.I64, r.F64, lm, rm, live, t)
	case l.Kind == types.KindString:
		t = cmpSel(x.Op, l.Str, r.Str, lm, rm, live, t)
	default: // INT, DATE or BIT on both sides
		t = cmpSel(x.Op, l.I64, r.I64, lm, rm, live, t)
	}
	return t, u, true
}

// operand returns a predicate operand as a vector and the mask that reads
// it at a batch position: a column in place (-1), a constant at its one
// row (0). ok is false for any other expression.
func (ve *vecEnv) operand(e algebra.Scalar, b *vec.Batch) (v *vec.Vec, mask int32, ok bool) {
	switch x := e.(type) {
	case *algebra.ColRef:
		if i, ok := ve.idx[x.ID]; ok {
			return b.Cols[i], -1, true
		}
	case *algebra.Const:
		return ve.constOf(x), 0, true
	}
	return nil, 0, false
}

// constOf returns a constant as a one-row vector, built once per constant.
func (ve *vecEnv) constOf(c *algebra.Const) *vec.Vec {
	v, ok := ve.consts[c]
	if !ok {
		if ve.consts == nil {
			ve.consts = map[*algebra.Const]*vec.Vec{}
		}
		v = constVec(c.Val, 1)
		ve.consts[c] = v
	}
	return v
}

// union appends to dst the ascending merge of two ascending position
// lists, a position on both once.
func union(dst, a, b []int32) []int32 {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// minus appends to dst the positions of a that b does not hold (both
// ascending).
func minus(dst, a, b []int32) []int32 {
	for _, p := range a {
		for len(b) > 0 && b[0] < p {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != p {
			dst = append(dst, p)
		}
	}
	return dst
}
