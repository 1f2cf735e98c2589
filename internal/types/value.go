// Package types implements the value model shared by every layer of the
// system: the SQL front end, the statistics subsystem, the optimizers and
// the distributed execution engine.
//
// A Value is a compact tagged union. NULL is a first-class kind rather than
// a sentinel inside each kind, which keeps three-valued logic explicit in
// the expression evaluator.
package types

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the SQL types supported by the engine.
type Kind uint8

// Supported kinds. Date is stored as days since the Unix epoch; TPC-H money
// columns are modeled as Float (the simulator does not need exact decimal
// semantics, and the optimizer only consumes widths and statistics).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BIT"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of the kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Comparable reports whether two kinds can be ordered against each other.
// All numeric kinds are mutually comparable; otherwise kinds must match.
func Comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull {
		return true
	}
	if a.Numeric() && b.Numeric() {
		return true
	}
	return a == b
}

// Width returns the byte width used for row-size accounting, mirroring how
// the paper's cost model consumes an average row width w. Strings report
// their payload length plus a two-byte length prefix.
func (k Kind) Width() int {
	switch k {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindInt:
		return 8
	case KindFloat:
		return 8
	case KindDate:
		return 4
	case KindString:
		return 16 // default estimate; actual values report exact widths
	default:
		return 8
	}
}

// Value is an immutable SQL value.
type Value struct {
	kind Kind
	i    int64 // Int, Bool (0/1), Date (days since epoch)
	f    float64
	s    string
}

// Null is the NULL value.
var Null = Value{kind: KindNull}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BIT value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{kind: KindDate, i: days} }

// ParseDate parses a 'YYYY-MM-DD' literal (a 'YYYY-MM-DD hh:mm:ss...' suffix
// is tolerated and ignored) into a DATE value.
func ParseDate(s string) (Value, error) {
	if len(s) > 10 {
		s = s[:10]
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("invalid date literal %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustParseDate is ParseDate for literals known valid at compile time.
func MustParseDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// KindError is the typed failure of a checked accessor or comparison: a
// value of Kind was used where Want was required. Expressions over
// user-supplied literals can reach these mismatches at runtime (e.g. a
// CASE whose branches yield different kinds), so the engine-facing entry
// points report them as errors; the panicking accessors below remain for
// call sites where the binder has already proven the kind.
type KindError struct {
	Op   string
	Kind Kind
	Want Kind
}

// Error renders the mismatch.
func (e *KindError) Error() string {
	return fmt.Sprintf("types: %s on %s (want %s)", e.Op, e.Kind, e.Want)
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the BIGINT payload. It panics on other kinds.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s", v.kind))
	}
	return v.i
}

// Float returns the FLOAT payload, coercing BIGINT. It panics otherwise.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	}
	panic(fmt.Sprintf("types: Float() on %s", v.kind))
}

// Str returns the VARCHAR payload. It panics on other kinds.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s", v.kind))
	}
	return v.s
}

// Bool returns the BIT payload. It panics on other kinds.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s", v.kind))
	}
	return v.i != 0
}

// DateDays returns the DATE payload in days since the Unix epoch.
func (v Value) DateDays() int64 {
	if v.kind != KindDate {
		panic(fmt.Sprintf("types: DateDays() on %s", v.kind))
	}
	return v.i
}

// AsInt is the checked form of Int for kinds decided at runtime.
func (v Value) AsInt() (int64, error) {
	if v.kind != KindInt {
		return 0, &KindError{Op: "Int()", Kind: v.kind, Want: KindInt}
	}
	return v.i, nil
}

// AsFloat is the checked form of Float (BIGINT coerces).
func (v Value) AsFloat() (float64, error) {
	switch v.kind {
	case KindFloat:
		return v.f, nil
	case KindInt:
		return float64(v.i), nil
	}
	return 0, &KindError{Op: "Float()", Kind: v.kind, Want: KindFloat}
}

// AsStr is the checked form of Str.
func (v Value) AsStr() (string, error) {
	if v.kind != KindString {
		return "", &KindError{Op: "Str()", Kind: v.kind, Want: KindString}
	}
	return v.s, nil
}

// AsBool is the checked form of Bool.
func (v Value) AsBool() (bool, error) {
	if v.kind != KindBool {
		return false, &KindError{Op: "Bool()", Kind: v.kind, Want: KindBool}
	}
	return v.i != 0, nil
}

// Width returns the exact byte width of this value for cost accounting.
func (v Value) Width() int {
	if v.kind == KindString {
		return len(v.s) + 2
	}
	return v.kind.Width()
}

// String renders the value for plan text and result display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// SQLLiteral renders the value as a SQL literal for DSQL generation.
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindString:
		return "'" + escapeSQL(v.s) + "'"
	case KindDate:
		return "CAST('" + v.String() + "' AS DATE)"
	default:
		return v.String()
	}
}

func escapeSQL(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, s[i])
	}
	return string(out)
}

// Compare orders a against b: -1, 0, or +1. NULL sorts before everything
// (including another NULL); numeric kinds compare after float coercion.
// Compare panics on incomparable kinds — use it only where the binder has
// proven both sides well-typed; runtime-kinded paths (sorting, MIN/MAX,
// literal folding) go through CompareChecked.
func Compare(a, b Value) int {
	c, err := CompareChecked(a, b)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// CompareChecked is Compare returning an error instead of panicking on
// incomparable kinds: mixed-kind data is reachable from user-supplied
// literals (e.g. CASE branches of different types), so engine-facing
// comparison sites must not trust the kinds.
func CompareChecked(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.kind.Numeric() && b.kind.Numeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpOrdered(a.i, b.i), nil
		}
		return cmpFloat(a.Float(), b.Float()), nil
	}
	if a.kind != b.kind {
		return 0, fmt.Errorf("types: comparing %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindBool, KindDate:
		return cmpOrdered(a.i, b.i), nil
	case KindString:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("types: comparing %s values", a.kind)
}

func cmpOrdered(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports SQL equality under two-valued semantics used for grouping
// and hash-join probing: NULLs match NULLs here. Predicate equality (which
// treats NULL as unknown) is handled by the expression evaluator.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	if !Comparable(a.kind, b.kind) {
		return false
	}
	return Compare(a, b) == 0
}

// Hash returns a distribution hash of the value: FNV-1a from HashSeed over
// a kind tag and the payload. Numeric kinds hash by float-coerced payload so
// 1 and 1.0 land on the same node, matching the equality relation used for
// joins; -0 hashes as +0 and every NaN as one NaN, because Equal holds
// between them too.
func Hash(v Value) uint64 { return FoldValue(HashSeed, v) }

// HashSeed is the FNV-1a offset basis Hash starts from. The Fold functions
// continue a running hash with one value each, in Hash's encoding, so a
// column-wise fold from HashSeed over one column equals Hash of each row.
const HashSeed uint64 = 14695981039346656037

const hashPrime = 1099511628211

// canonicalNaN is the one NaN payload every NaN hashes as.
var canonicalNaN = math.Float64bits(math.NaN())

// FoldValue folds one value into a running hash.
func FoldValue(h uint64, v Value) uint64 {
	switch v.kind {
	case KindNull:
		return FoldNull(h)
	case KindBool:
		return foldWord(h, byte(KindBool), uint64(v.i))
	case KindInt:
		return FoldInt(h, v.i)
	case KindFloat:
		return FoldFloat(h, v.f)
	case KindDate:
		return FoldDate(h, v.i)
	default: // KindString
		return FoldString(h, v.s)
	}
}

// FoldNull folds a NULL: the single byte 0.
func FoldNull(h uint64) uint64 { return h * hashPrime }

// FoldBool folds a BIT.
func FoldBool(h uint64, b bool) uint64 {
	if b {
		return foldWord(h, byte(KindBool), 1)
	}
	return foldWord(h, byte(KindBool), 0)
}

// FoldInt folds a BIGINT by its float64 coercion, as FoldFloat would.
func FoldInt(h uint64, i int64) uint64 { return FoldFloat(h, float64(i)) }

// FoldFloat folds a FLOAT, with -0 as +0 and any NaN as the canonical one.
func FoldFloat(h uint64, f float64) uint64 {
	bits := math.Float64bits(f)
	switch {
	case f == 0:
		bits = 0
	case f != f:
		bits = canonicalNaN
	}
	return foldWord(h, byte(KindInt), bits)
}

// FoldDate folds a DATE (days since the epoch).
func FoldDate(h uint64, days int64) uint64 { return foldWord(h, byte(KindDate), uint64(days)) }

// FoldString folds a VARCHAR. Its tag is 5, the same byte as DATE's (the
// encoding predates the kinds' current ordinals and placement depends on
// it); equal hashes are always confirmed by comparison, so a shared tag
// costs nothing but a rare collision.
func FoldString(h uint64, s string) uint64 {
	h = (h ^ 5) * hashPrime
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// foldWord folds a tag byte and then x's eight bytes, least significant
// first.
func foldWord(h uint64, tag byte, x uint64) uint64 {
	h = (h ^ uint64(tag)) * hashPrime
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * hashPrime
		x >>= 8
	}
	return h
}

// HashRowKey hashes a multi-column key by chaining column hashes; used both
// by the DMS shuffle router and by hash-based executors.
func HashRowKey(vals []Value) uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for _, v := range vals {
		h ^= Hash(v)
		h *= 1099511628211
	}
	return h
}

// Row is a tuple of values.
type Row []Value

// Width returns the total byte width of the row.
func (r Row) Width() int {
	w := 0
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// Clone returns a copy of the row safe to retain across iterator calls.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for debugging and result display.
func (r Row) String() string {
	out := make([]byte, 0, 32)
	out = append(out, '(')
	for i, v := range r {
		if i > 0 {
			out = append(out, ", "...)
		}
		out = append(out, v.String()...)
	}
	return string(append(out, ')'))
}
