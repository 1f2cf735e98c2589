// Package exec implements the node-local query executor: the role each
// compute node's SQL Server instance plays when handed a DSQL step's SQL
// text. It evaluates bound logical trees (Get/Select/Project/Join/GroupBy/
// Sort/Values) with SQL three-valued semantics. The nodes run the
// vectorized engine (RunColumns), whose evaluator also folds constants
// (EvalClosed); the row engine (Run, with Eval) is the single-node
// reference distributed results are checked against, and nothing else.
package exec

import (
	"fmt"
	"math"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

// Env resolves column IDs to positions in the current row.
type Env struct {
	Idx map[algebra.ColumnID]int
	Row types.Row
}

// NewEnv builds an environment over a schema.
func NewEnv(cols []algebra.ColumnMeta) *Env {
	idx := make(map[algebra.ColumnID]int, len(cols))
	for i, c := range cols {
		idx[c.ID] = i
	}
	return &Env{Idx: idx}
}

// Eval evaluates a bound scalar over the environment's current row.
func Eval(e algebra.Scalar, env *Env) (types.Value, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		i, ok := env.Idx[x.ID]
		if !ok {
			return types.Null, fmt.Errorf("exec: column c%d not in row", x.ID)
		}
		return env.Row[i], nil

	case *algebra.Const:
		return x.Val, nil

	case *algebra.Binary:
		return evalBinary(x, env)

	case *algebra.Not:
		v, err := Eval(x.E, env)
		if err != nil || v.IsNull() {
			return types.Null, err
		}
		b, err := v.AsBool()
		if err != nil {
			return types.Null, fmt.Errorf("exec: NOT operand: %w", err)
		}
		return types.NewBool(!b), nil

	case *algebra.Neg:
		v, err := Eval(x.E, env)
		if err != nil {
			return types.Null, err
		}
		return types.Neg(v)

	case *algebra.IsNull:
		v, err := Eval(x.E, env)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Negated), nil

	case *algebra.Like:
		v, err := Eval(x.E, env)
		if err != nil || v.IsNull() {
			return types.Null, err
		}
		s, err := v.AsStr()
		if err != nil {
			return types.Null, fmt.Errorf("exec: LIKE operand: %w", err)
		}
		m := MatchLike(s, x.Pattern)
		return types.NewBool(m != x.Negated), nil

	case *algebra.InList:
		v, err := Eval(x.E, env)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			return types.Null, nil
		}
		sawNull := false
		for _, el := range x.List {
			ev, err := Eval(el, env)
			if err != nil {
				return types.Null, err
			}
			if ev.IsNull() {
				sawNull = true
				continue
			}
			if types.Comparable(v.Kind(), ev.Kind()) && types.Compare(v, ev) == 0 {
				return types.NewBool(!x.Negated), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(x.Negated), nil

	case *algebra.Func:
		args := make([]types.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := Eval(a, env)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		return EvalConstFunc(x.Name, args)

	case *algebra.Case:
		for _, w := range x.Whens {
			c, err := Eval(w.Cond, env)
			if err != nil {
				return types.Null, err
			}
			if c.IsNull() {
				continue
			}
			b, err := c.AsBool()
			if err != nil {
				return types.Null, fmt.Errorf("exec: CASE condition: %w", err)
			}
			if b {
				return Eval(w.Then, env)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, env)
		}
		return types.Null, nil

	case *algebra.Cast:
		v, err := Eval(x.E, env)
		if err != nil {
			return types.Null, err
		}
		return CastValue(v, x.To)

	default:
		return types.Null, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

func evalBinary(x *algebra.Binary, env *Env) (types.Value, error) {
	// AND/OR need three-valued short-circuit handling.
	switch x.Op {
	case sqlparser.OpAnd:
		lb, lnull, err := evalBool(x.L, env)
		if err != nil {
			return types.Null, err
		}
		if !lnull && !lb {
			return types.NewBool(false), nil
		}
		rb, rnull, err := evalBool(x.R, env)
		if err != nil {
			return types.Null, err
		}
		if !rnull && !rb {
			return types.NewBool(false), nil
		}
		if lnull || rnull {
			return types.Null, nil
		}
		return types.NewBool(true), nil
	case sqlparser.OpOr:
		lb, lnull, err := evalBool(x.L, env)
		if err != nil {
			return types.Null, err
		}
		if !lnull && lb {
			return types.NewBool(true), nil
		}
		rb, rnull, err := evalBool(x.R, env)
		if err != nil {
			return types.Null, err
		}
		if !rnull && rb {
			return types.NewBool(true), nil
		}
		if lnull || rnull {
			return types.Null, nil
		}
		return types.NewBool(false), nil
	}

	l, err := Eval(x.L, env)
	if err != nil {
		return types.Null, err
	}
	r, err := Eval(x.R, env)
	if err != nil {
		return types.Null, err
	}
	if x.Op.IsComparison() {
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		if !types.Comparable(l.Kind(), r.Kind()) {
			return types.Null, fmt.Errorf("exec: comparing %s with %s", l.Kind(), r.Kind())
		}
		c := types.Compare(l, r)
		var out bool
		switch x.Op {
		case sqlparser.OpEq:
			out = c == 0
		case sqlparser.OpNe:
			out = c != 0
		case sqlparser.OpLt:
			out = c < 0
		case sqlparser.OpLe:
			out = c <= 0
		case sqlparser.OpGt:
			out = c > 0
		case sqlparser.OpGe:
			out = c >= 0
		}
		return types.NewBool(out), nil
	}
	switch x.Op {
	case sqlparser.OpAdd:
		return types.Add(l, r)
	case sqlparser.OpSub:
		return types.Sub(l, r)
	case sqlparser.OpMul:
		return types.Mul(l, r)
	case sqlparser.OpDiv:
		return types.Div(l, r)
	}
	return types.Null, fmt.Errorf("exec: unknown operator %s", x.Op)
}

// MatchLike evaluates a SQL LIKE pattern with % and _ wildcards.
func MatchLike(s, pattern string) bool {
	// Fast path for pure-prefix patterns, the common TPC-H shape.
	if i := indexWildcard(pattern); i < 0 {
		return s == pattern
	} else if pattern[i] == '%' && i == len(pattern)-1 {
		return strings.HasPrefix(s, pattern[:i])
	}
	return likeMatch(s, pattern)
}

func indexWildcard(p string) int {
	for i := 0; i < len(p); i++ {
		if p[i] == '%' || p[i] == '_' {
			return i
		}
	}
	return -1
}

// likeMatch is a standard greedy-with-backtracking wildcard matcher.
func likeMatch(s, p string) bool {
	var si, pi, starP, starS = 0, 0, -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si, pi = starS, starP+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// EvalConstFunc evaluates a scalar function over concrete values. The
// binder does not check argument kinds, so a wrong kind or a negative
// SUBSTRING length is a typed error here, not a panic.
func EvalConstFunc(name string, args []types.Value) (types.Value, error) {
	switch name {
	case "DATEADD":
		if args[1].IsNull() {
			return types.Null, nil
		}
		part, err := args[0].AsStr()
		if err != nil {
			return types.Null, fmt.Errorf("exec: DATEADD part: %w", err)
		}
		n, err := args[1].AsInt()
		if err != nil {
			return types.Null, fmt.Errorf("exec: DATEADD count: %w", err)
		}
		return types.DateAdd(part, n, args[2])
	case "YEAR":
		return types.DateYear(args[0])
	case "SUBSTRING":
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return types.Null, nil
		}
		s, err := args[0].AsStr()
		if err != nil {
			return types.Null, fmt.Errorf("exec: SUBSTRING string: %w", err)
		}
		start, err := args[1].AsInt()
		if err != nil {
			return types.Null, fmt.Errorf("exec: SUBSTRING start: %w", err)
		}
		n, err := args[2].AsInt()
		if err != nil {
			return types.Null, fmt.Errorf("exec: SUBSTRING length: %w", err)
		}
		if n < 0 {
			return types.Null, fmt.Errorf("exec: SUBSTRING length %d is negative", n)
		}
		// Clamp in int64 before slicing: start−1 and start−1+n can both
		// leave the string (or overflow) for extreme arguments.
		lo := min(max(start-1, 0), int64(len(s)))
		hi := int64(len(s))
		if n < hi-lo {
			hi = lo + n
		}
		return types.NewString(s[lo:hi]), nil
	}
	return types.Null, fmt.Errorf("exec: unknown function %s", name)
}

// CastError reports a CAST that is unsupported between two kinds, or —
// for the numeric conversions — one whose value cannot survive the
// conversion exactly (overflow, NaN, or precision loss). It is a typed
// error so callers can distinguish a bad query shape from a bad value.
type CastError struct {
	From, To types.Kind
	// Reason is empty for unsupported kind pairs and names the failing
	// value for checked numeric conversions.
	Reason string
}

func (e *CastError) Error() string {
	if e.Reason == "" {
		return fmt.Sprintf("exec: cannot cast %s to %s", e.From, e.To)
	}
	return fmt.Sprintf("exec: cannot cast %s to %s: %s", e.From, e.To, e.Reason)
}

// maxExactInt is 2^53: float64 represents every integer of smaller
// magnitude exactly; above it the round-trip check decides.
const maxExactInt = int64(1) << 53

// CastIntToFloat converts an INT to FLOAT, rejecting values float64
// cannot represent exactly (|i| > 2^53 with set low bits) instead of
// silently rounding them.
func CastIntToFloat(i int64) (float64, error) {
	f := float64(i)
	if i > -maxExactInt && i < maxExactInt {
		return f, nil
	}
	// float64(MaxInt64) rounds up to 2^63, which is outside int64 and
	// would make the round-trip conversion itself undefined — it is lossy
	// by construction, as is any value the round trip fails to restore.
	if f >= 9223372036854775808.0 || int64(f) != i {
		return 0, &CastError{From: types.KindInt, To: types.KindFloat,
			Reason: fmt.Sprintf("%d loses precision as FLOAT", i)}
	}
	return f, nil
}

// CastFloatToInt truncates a FLOAT toward zero, rejecting NaN and values
// outside the INT range instead of hitting Go's undefined float→int
// conversion. 2^63−1 is not a float64, so the exclusive upper bound is
// 2^63 itself; −2^63 is exact and valid.
func CastFloatToInt(f float64) (int64, error) {
	if math.IsNaN(f) {
		return 0, &CastError{From: types.KindFloat, To: types.KindInt,
			Reason: "NaN has no INT value"}
	}
	if f >= 9223372036854775808.0 || f < -9223372036854775808.0 {
		return 0, &CastError{From: types.KindFloat, To: types.KindInt,
			Reason: fmt.Sprintf("%g overflows INT", f)}
	}
	return int64(f), nil
}

// CastValue converts a runtime value to the target kind. Numeric
// conversions are checked: values that would overflow or lose precision
// return a *CastError instead of silently wrapping.
func CastValue(v types.Value, to types.Kind) (types.Value, error) {
	if v.IsNull() || v.Kind() == to {
		return v, nil
	}
	switch to {
	case types.KindFloat:
		if v.Kind() == types.KindInt {
			f, err := CastIntToFloat(v.Int())
			if err != nil {
				return types.Null, err
			}
			return types.NewFloat(f), nil
		}
		if v.Kind().Numeric() {
			return types.NewFloat(v.Float()), nil
		}
	case types.KindInt:
		if v.Kind() == types.KindFloat {
			i, err := CastFloatToInt(v.Float())
			if err != nil {
				return types.Null, err
			}
			return types.NewInt(i), nil
		}
	case types.KindDate:
		if v.Kind() == types.KindString {
			return types.ParseDate(v.Str())
		}
	case types.KindString:
		return types.NewString(v.String()), nil
	case types.KindBool:
		if v.Kind() == types.KindInt {
			return types.NewBool(v.Int() != 0), nil
		}
	}
	return types.Null, &CastError{From: v.Kind(), To: to}
}

// evalBool evaluates a logical operand into three-valued form: the
// boolean, whether it was NULL, and a typed error when the operand is not
// a BIT (reachable from expressions like `1 AND x`).
func evalBool(e algebra.Scalar, env *Env) (b, isNull bool, err error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, false, err
	}
	if v.IsNull() {
		return false, true, nil
	}
	b, err = v.AsBool()
	return b, false, err
}

// Truthy applies SQL predicate semantics: NULL counts as false. It
// panics on non-BIT values — use it only where the value's kind is
// already proven; runtime predicates go through TruthyChecked.
func Truthy(v types.Value) bool { return !v.IsNull() && v.Bool() }

// TruthyChecked is Truthy with the kind check surfaced as an error:
// predicates over user expressions (e.g. `WHERE c_custkey`) can evaluate
// to non-BIT values, which must fail the query, not crash the node.
func TruthyChecked(v types.Value) (bool, error) {
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}
