package types

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BIT", KindInt: "BIGINT",
		KindFloat: "FLOAT", KindString: "VARCHAR", KindDate: "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("NewInt(42) = %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %v", v)
	}
	if v := NewString("abc"); v.Kind() != KindString || v.Str() != "abc" {
		t.Errorf("NewString = %v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true) = %v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false) = %v", v)
	}
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Errorf("Null misbehaves: %v", Null)
	}
	if v := NewInt(7); v.Float() != 7.0 {
		t.Errorf("Int.Float() coercion failed: %v", v.Float())
	}
}

func TestParseDate(t *testing.T) {
	d, err := ParseDate("1970-01-01")
	if err != nil || d.DateDays() != 0 {
		t.Fatalf("epoch parse: %v, %v", d, err)
	}
	d, err = ParseDate("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "1994-01-01" {
		t.Errorf("round-trip = %q", got)
	}
	// Datetime suffix tolerated, as produced by DSQL text.
	d2, err := ParseDate("1995-01-01 00:00:00.000")
	if err != nil || d2.String() != "1995-01-01" {
		t.Errorf("datetime suffix: %v, %v", d2, err)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error for bad literal")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(1), -1},
		{NewInt(1), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{MustParseDate("1994-01-01"), MustParseDate("1995-01-01"), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic comparing string with int")
		}
	}()
	Compare(NewString("x"), NewInt(1))
}

func TestEqual(t *testing.T) {
	if !Equal(Null, Null) {
		t.Error("grouping equality must treat NULL = NULL")
	}
	if Equal(Null, NewInt(0)) {
		t.Error("NULL != 0")
	}
	if !Equal(NewInt(3), NewFloat(3.0)) {
		t.Error("cross-numeric equality")
	}
	if Equal(NewString("1"), NewInt(1)) {
		t.Error("string and int are never equal")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	// Values equal under Equal must hash identically (shuffle correctness).
	if Hash(NewInt(5)) != Hash(NewFloat(5.0)) {
		t.Error("5 and 5.0 must co-locate under hash distribution")
	}
	if Hash(NewString("abc")) == Hash(NewString("abd")) {
		t.Error("suspicious collision")
	}
}

// TestHashGolden pins Hash bit for bit for every kind: data placement and
// shuffle routing depend on it, so any value outside the canonicalized -0
// and NaN classes must keep the hash it has always had.
func TestHashGolden(t *testing.T) {
	golden := []struct {
		v    Value
		want uint64
	}{
		{Null, 0xaf63bd4c8601b7df},
		{NewBool(false), 0x529a2cdc8ff533ac},
		{NewBool(true), 0x7194f3e59ae47dcd},
		{NewInt(0), 0xcd92cf54dc615e5},
		{NewInt(1), 0xde8ddf54eacc2d8},
		{NewInt(-7), 0xc7a44f54d75aa29},
		{NewInt(1 << 53), 0xbff69f54d0cd9cc},
		{NewInt(math.MaxInt64), 0xe1fa9f54edbacec},
		{NewInt(math.MinInt64), 0xe2029f54edc866c},
		{NewFloat(0), 0xcd92cf54dc615e5},
		{NewFloat(1), 0xde8ddf54eacc2d8},
		{NewFloat(-2.5), 0xccc54f54dbbcf81},
		{NewFloat(0.1), 0x493c4472057beee4},
		{NewFloat(math.Inf(1)), 0xde89df54eac5618},
		{NewFloat(math.Inf(-1)), 0xde81df54eab7c98},
		{NewFloat(math.NaN()), 0xf04f8cec44e9cb91},
		{NewFloat(math.SmallestNonzeroFloat64), 0xedde65ec42d6cbc4},
		{NewFloat(math.MaxFloat64), 0xaf5e30dfc54e656d},
		{NewString(""), 0xaf63b84c8601af60},
		{NewString("a"), 0x8212b07b4dc5eb3},
		{NewString("BUILDING"), 0x7f51eb43df9afc8},
		{NewString("héllo\x00"), 0x6aa461f1d0c8b997},
		{NewDate(0), 0x4f0d7663d895b60},
		{NewDate(9131), 0x12c5126de6e6cea6},
		{NewDate(-1), 0xc5470af71b8c53d8},
	}
	for _, g := range golden {
		if got := Hash(g.v); got != g.want {
			t.Errorf("Hash(%s %v) = %#x, want %#x", g.v.Kind(), g.v, got, g.want)
		}
	}
	key := []Value{NewInt(1), NewString("x"), Null, NewDate(3)}
	if got := HashRowKey(key); got != 0xed39ac48673e47ad {
		t.Errorf("HashRowKey = %#x", got)
	}
}

// TestEqualValuesHashEqually: -0 equals +0 (and integer 0), and a NaN
// equals every other NaN, so each class must hash as one value.
func TestEqualValuesHashEqually(t *testing.T) {
	negZero := NewFloat(math.Copysign(0, -1))
	quiet := math.Float64frombits(0x7FF8000000000002)
	negNaN := math.Float64frombits(0xFFF8000000000000)
	signal := math.Float64frombits(0x7FF0000000000001)
	neg, err := Neg(NewFloat(0))
	if err != nil {
		t.Fatal(err)
	}
	classes := [][]Value{
		{NewFloat(0), negZero, NewInt(0), neg},
		{NewFloat(math.NaN()), NewFloat(quiet), NewFloat(negNaN), NewFloat(signal)},
	}
	for _, class := range classes {
		for _, v := range class[1:] {
			if !Equal(class[0], v) {
				t.Fatalf("%v and %v: not Equal", class[0], v)
			}
			if Hash(v) != Hash(class[0]) {
				t.Errorf("Hash(%v bits %#x) = %#x, Hash(%v) = %#x", v, math.Float64bits(v.f), Hash(v), class[0], Hash(class[0]))
			}
		}
	}
}

func TestHashAllocatesNothing(t *testing.T) {
	vals := []Value{Null, NewBool(true), NewInt(3), NewFloat(2.5), NewString("BUILDING"), NewDate(9131)}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			_ = Hash(v)
		}
		_ = HashRowKey(vals)
	})
	if allocs != 0 {
		t.Errorf("Hash allocates %.1f times per round", allocs)
	}
}

func TestHashRowKeyOrderSensitivity(t *testing.T) {
	a := []Value{NewInt(1), NewInt(2)}
	b := []Value{NewInt(2), NewInt(1)}
	if HashRowKey(a) == HashRowKey(b) {
		t.Error("row key hash should be order sensitive")
	}
	if HashRowKey(a) != HashRowKey([]Value{NewInt(1), NewInt(2)}) {
		t.Error("row key hash must be deterministic")
	}
}

func TestWidth(t *testing.T) {
	if NewInt(1).Width() != 8 {
		t.Error("int width")
	}
	if NewString("abcd").Width() != 6 {
		t.Error("string width = len+2")
	}
	r := Row{NewInt(1), NewString("ab")}
	if r.Width() != 12 {
		t.Errorf("row width = %d", r.Width())
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("quote escaping: %q", got)
	}
	if got := MustParseDate("1994-01-01").SQLLiteral(); got != "CAST('1994-01-01' AS DATE)" {
		t.Errorf("date literal: %q", got)
	}
	if got := NewInt(42).SQLLiteral(); got != "42" {
		t.Errorf("int literal: %q", got)
	}
}

func TestRowCloneIndependence(t *testing.T) {
	r := Row{NewInt(1)}
	c := r.Clone()
	r[0] = NewInt(2)
	if c[0].Int() != 1 {
		t.Error("clone aliases original")
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 1)
	case 2:
		return NewInt(r.Int63n(1000) - 500)
	case 3:
		return NewFloat(float64(r.Int63n(1000)) / 4)
	case 4:
		return NewString(string(rune('a' + r.Intn(26))))
	default:
		return NewDate(r.Int63n(20000))
	}
}

func TestCompareProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b := randomValue(r), randomValue(r)
		if !Comparable(a.Kind(), b.Kind()) {
			continue
		}
		ab, ba := Compare(a, b), Compare(b, a)
		if ab != -ba {
			t.Fatalf("antisymmetry violated: %v vs %v: %d, %d", a, b, ab, ba)
		}
		if ab == 0 != Equal(a, b) && !(a.IsNull() || b.IsNull()) {
			t.Fatalf("Compare/Equal disagree on %v, %v", a, b)
		}
		c := randomValue(r)
		if Comparable(a.Kind(), c.Kind()) && Comparable(b.Kind(), c.Kind()) {
			if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
				t.Fatalf("transitivity violated: %v, %v, %v", a, b, c)
			}
		}
	}
}

func TestEqualImpliesSameHash(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		a, b := randomValue(r), randomValue(r)
		if Equal(a, b) && Hash(a) != Hash(b) {
			t.Fatalf("equal values hash differently: %v, %v", a, b)
		}
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Add(NewInt(2), NewFloat(0.5))
	check(v, err, NewFloat(2.5))
	v, err = Sub(NewInt(2), NewInt(3))
	check(v, err, NewInt(-1))
	v, err = Mul(NewFloat(0.5), NewInt(10))
	check(v, err, NewFloat(5))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewFloat(3.5))
	v, err = Neg(NewInt(4))
	check(v, err, NewInt(-4))

	if v, err := Add(Null, NewInt(1)); err != nil || !v.IsNull() {
		t.Error("NULL propagation in Add")
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic must error")
	}
}

func TestDateAdd(t *testing.T) {
	d := MustParseDate("1994-01-01")
	y, err := DateAdd("year", 1, d)
	if err != nil || y.String() != "1995-01-01" {
		t.Errorf("DATEADD(year,1) = %v, %v", y, err)
	}
	m, err := DateAdd("month", 13, d)
	if err != nil || m.String() != "1995-02-01" {
		t.Errorf("DATEADD(month,13) = %v, %v", m, err)
	}
	dd, err := DateAdd("day", 31, d)
	if err != nil || dd.String() != "1994-02-01" {
		t.Errorf("DATEADD(day,31) = %v, %v", dd, err)
	}
	// Clamping: Jan 31 + 1 month = Feb 28.
	c, err := DateAdd("month", 1, MustParseDate("1994-01-31"))
	if err != nil || c.String() != "1994-02-28" {
		t.Errorf("clamp = %v, %v", c, err)
	}
	leap, err := DateAdd("month", 1, MustParseDate("1996-01-31"))
	if err != nil || leap.String() != "1996-02-29" {
		t.Errorf("leap clamp = %v, %v", leap, err)
	}
	if v, err := DateAdd("day", 1, Null); err != nil || !v.IsNull() {
		t.Error("NULL propagation in DATEADD")
	}
	if _, err := DateAdd("week", 1, d); err == nil {
		t.Error("unsupported part must error")
	}
}

func TestDateYear(t *testing.T) {
	y, err := DateYear(MustParseDate("1998-12-01"))
	if err != nil || y.Int() != 1998 {
		t.Errorf("YEAR = %v, %v", y, err)
	}
}

func TestCivilRoundTrip(t *testing.T) {
	// Property: civilFromDays and daysFromCivil are inverses over a wide range.
	f := func(n uint16) bool {
		days := int64(n) // 1970 .. ~2149
		y, m, d := civilFromDays(days * 37 % 65536)
		return daysFromCivil(y, m, d) == days*37%65536
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("x"), Null}
	if got := r.String(); got != "(1, x, NULL)" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestValueQuickHashStability(t *testing.T) {
	// Hash must be a pure function of the value.
	f := func(x int64) bool { return Hash(NewInt(x)) == Hash(NewInt(x)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(s string) bool { return Hash(NewString(s)) == Hash(NewString(s)) }
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestComparableMatrix(t *testing.T) {
	if !Comparable(KindInt, KindFloat) || !Comparable(KindNull, KindString) {
		t.Error("comparable matrix")
	}
	if Comparable(KindString, KindDate) {
		t.Error("string/date not comparable")
	}
	if reflect.TypeOf(KindInt).Kind() != reflect.Uint8 {
		t.Error("Kind should stay compact")
	}
}

func TestCheckedAccessors(t *testing.T) {
	if n, err := NewInt(7).AsInt(); err != nil || n != 7 {
		t.Errorf("AsInt: %v %v", n, err)
	}
	if s, err := NewString("x").AsStr(); err != nil || s != "x" {
		t.Errorf("AsStr: %v %v", s, err)
	}
	if b, err := NewBool(true).AsBool(); err != nil || !b {
		t.Errorf("AsBool: %v %v", b, err)
	}
	// Mismatches surface as *KindError carrying the actual and wanted kind.
	for _, c := range []struct {
		err  error
		want Kind
	}{
		{func() error { _, e := NewString("x").AsInt(); return e }(), KindInt},
		{func() error { _, e := NewInt(1).AsStr(); return e }(), KindString},
		{func() error { _, e := Null.AsBool(); return e }(), KindBool},
	} {
		var ke *KindError
		if !errors.As(c.err, &ke) {
			t.Fatalf("want *KindError, got %v", c.err)
		}
		if ke.Want != c.want {
			t.Errorf("KindError.Want = %v, want %v", ke.Want, c.want)
		}
		if ke.Error() == "" {
			t.Error("KindError must render")
		}
	}
}

func TestCompareChecked(t *testing.T) {
	// Agrees with Compare on comparable pairs (including NULL-first and
	// cross-numeric coercion).
	pairs := []struct{ a, b Value }{
		{NewInt(1), NewInt(2)},
		{NewInt(1), NewFloat(1.5)},
		{Null, NewInt(1)},
		{Null, Null},
		{NewString("a"), NewString("b")},
		{NewBool(false), NewBool(true)},
		{MustParseDate("1994-01-01"), MustParseDate("1995-01-01")},
	}
	for _, p := range pairs {
		got, err := CompareChecked(p.a, p.b)
		if err != nil {
			t.Fatalf("CompareChecked(%v, %v): %v", p.a, p.b, err)
		}
		if want := Compare(p.a, p.b); got != want {
			t.Errorf("CompareChecked(%v, %v) = %d, Compare says %d", p.a, p.b, got, want)
		}
	}
	// Incomparable kinds error instead of panicking.
	if _, err := CompareChecked(NewString("x"), NewInt(1)); err == nil {
		t.Error("string vs int must be an error")
	}
	if _, err := CompareChecked(MustParseDate("1994-01-01"), NewBool(true)); err == nil {
		t.Error("date vs bool must be an error")
	}
}
