package catalog

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() should be null")
	}
	if Int(42).AsInt() != 42 {
		t.Errorf("Int roundtrip failed")
	}
	if Float(3.5).AsFloat() != 3.5 {
		t.Errorf("Float roundtrip failed")
	}
	if String("abc").AsString() != "abc" {
		t.Errorf("String roundtrip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Errorf("Bool roundtrip failed")
	}
	d := Date(2016, time.January, 2)
	if d.AsString() != "2016-01-02" {
		t.Errorf("Date rendered %q, want 2016-01-02", d.AsString())
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("2016-01-02")
	if err != nil {
		t.Fatalf("ParseDate: %v", err)
	}
	if v.K != KindDate {
		t.Fatalf("ParseDate kind = %v", v.K)
	}
	if v.AsString() != "2016-01-02" {
		t.Errorf("ParseDate roundtrip = %q", v.AsString())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Errorf("ParseDate should fail on garbage")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{String("a"), String("b"), -1},
		{String("b"), String("a"), 1},
		{String("a"), String("a"), 0},
		{Null(), Int(1), -1},
		{Int(1), Null(), 1},
		{Null(), Null(), 0},
		{Date(2020, 1, 1), Date(2021, 1, 1), -1},
	}
	for i, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("case %d: Compare(%v,%v) = %d, want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Errorf("NULL = NULL must be false under SQL semantics")
	}
	if Equal(Null(), Int(1)) || Equal(Int(1), Null()) {
		t.Errorf("NULL = x must be false")
	}
	if !Equal(Int(3), Float(3)) {
		t.Errorf("3 = 3.0 should hold")
	}
}

func TestSQLLiteralQuoting(t *testing.T) {
	if got := String("O'Hara").SQLLiteral(); got != "'O''Hara'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := Int(7).SQLLiteral(); got != "7" {
		t.Errorf("SQLLiteral int = %q", got)
	}
	if got := Date(2016, 1, 2).SQLLiteral(); got != "'2016-01-02'" {
		t.Errorf("SQLLiteral date = %q", got)
	}
}

func TestValueKeyConsistentWithEqual(t *testing.T) {
	// Property: Equal(a,b) => a.Key() == b.Key().
	f := func(ai, bi int64) bool {
		a, b := Int(ai), Int(bi)
		if Equal(a, b) && a.Key() != b.Key() {
			return false
		}
		// Also cross-kind.
		af, bf := Float(float64(ai)), Float(float64(bi))
		if Equal(a, af) && a.Key() != af.Key() {
			return false
		}
		_ = bf
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "DOUBLE",
		KindString: "VARCHAR", KindDate: "DATE", KindBool: "BOOLEAN",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestKeyEqualityDefinedOnce pins the one definition of "same key" that the
// hash-join index (KeyEqual + KeyHash), the materializing baseline and GROUP
// BY (Key strings) share: numeric kinds key by float value with -0 folded
// into +0 and NaN equal to itself, strings key apart from numbers, and NULL
// joins nothing.
func TestKeyEqualityDefinedOnce(t *testing.T) {
	nan := Float(math.NaN())
	negZero := Float(math.Copysign(0, -1))
	cases := []struct {
		name string
		a, b Value
		want bool
	}{
		{"+0 = -0", Float(0), negZero, true},
		{"int 0 = -0", Int(0), negZero, true},
		{"NaN = NaN", nan, Float(math.Float64frombits(0x7ff8000000000abc)), true},
		{"NaN ≠ 0", nan, Float(0), false},
		{"NULL ≠ NULL", Null(), Null(), false},
		{"NULL ≠ 0", Null(), Int(0), false},
		{"int = float", Int(3), Float(3), true},
		{"int = date", Int(3), DateFromDays(3), true},
		{"bool = int", Bool(true), Int(1), true},
		{"string ≠ number", String("3"), Int(3), false},
		{"string = string", String("3"), String("3"), true},
		{"string ≠ string", String("3"), String("3.0"), false},
		{"3 ≠ 4", Int(3), Float(4), false},
	}
	for _, tc := range cases {
		for _, pair := range [][2]Value{{tc.a, tc.b}, {tc.b, tc.a}} {
			a, b := pair[0], pair[1]
			if got := KeyEqual(a, b); got != tc.want {
				t.Errorf("%s: KeyEqual(%v, %v) = %v, want %v", tc.name, a, b, got, tc.want)
			}
			sameKey := !a.IsNull() && !b.IsNull() && a.Key() == b.Key()
			if sameKey != tc.want {
				t.Errorf("%s: Key() %q vs %q disagrees with KeyEqual", tc.name, a.Key(), b.Key())
			}
			if tc.want && a.KeyHash(7) != b.KeyHash(7) {
				t.Errorf("%s: KeyEqual values hash apart", tc.name)
			}
		}
	}
	// The documented exceptions to "Equal values share a Key": the mixed
	// string/number fallback of Compare, and NaN (which Compare ties with
	// every number).
	if !Equal(String("3"), Int(3)) || !Equal(nan, Int(5)) {
		t.Errorf("Compare's mixed-kind and NaN behaviour changed; revisit Key's doc comment")
	}
	if !Equal(Float(0), negZero) || Float(0).Key() != negZero.Key() {
		t.Errorf("-0 and +0 are Equal and must share a Key")
	}
}

// TestKeyWordAgreesWithKeyEqual is the property the exact hash-join index
// rests on: over every pair of awkward values, two key words are equal exactly
// when the values are KeyEqual (or both NULL, whose reserved word the index
// never links and never probes), a value's word is the NULL word exactly when
// the value is NULL, and a string — alone — reports that no word holds it.
// KeyWordAbove orders two words as Compare orders their values (what lets the
// merge join's early-out bound be kept by word).
func TestKeyWordAgreesWithKeyEqual(t *testing.T) {
	const two53 = int64(1) << 53
	values := []Value{
		Null(), String(""), String("3"), String("3.0"), String("NaN"), String("NULL"),
		Bool(false), Bool(true),
		Float(0), Float(math.Copysign(0, -1)), Float(3), Float(-3), Float(0.1), Float(math.SmallestNonzeroFloat64),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000abc)), Float(math.Float64frombits(0xfff0000000000001)),
		// The NULL word itself is a NaN bit pattern: stored as a float it
		// must key as NaN, not as NULL.
		Float(math.Float64frombits(KeyWordNull)),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxFloat64),
		Float(float64(two53)), Float(float64(two53) + 2),
		Int(math.MinInt64), Int(math.MaxInt64),
	}
	for _, i := range []int64{-1, 0, 1, 3, two53 - 1, two53, two53 + 1, -two53 - 1} {
		values = append(values, Int(i), DateFromDays(i))
	}
	for _, a := range values {
		aw, aok := a.KeyWord()
		if aok == (a.K == KindString) {
			t.Errorf("%v (%s): KeyWord ok = %v", a, a.K, aok)
		}
		if aok && (aw == KeyWordNull) != a.IsNull() {
			t.Errorf("%v (%s): key word %#x, NULL word is %#x", a, a.K, aw, KeyWordNull)
		}
		for _, b := range values {
			bw, bok := b.KeyWord()
			if !aok || !bok {
				continue
			}
			same := aw == bw && aw != KeyWordNull
			if same != KeyEqual(a, b) {
				t.Errorf("%v (%s) and %v (%s): words %#x / %#x, KeyEqual = %v", a, a.K, b, b.K, aw, bw, KeyEqual(a, b))
			}
			if KeyWordAbove(aw, bw) != (Compare(a, b) > 0) {
				t.Errorf("%v (%s) and %v (%s): KeyWordAbove = %v, Compare = %d", a, a.K, b, b.K, KeyWordAbove(aw, bw), Compare(a, b))
			}
		}
	}
	// And over random bit patterns, as floats and as integers of every kind.
	f := func(x, y uint64, kx, ky uint8) bool {
		mk := func(bits uint64, k uint8) Value {
			switch k % 4 {
			case 0:
				return Float(math.Float64frombits(bits))
			case 1:
				return Int(int64(bits))
			case 2:
				return DateFromDays(int64(bits))
			}
			return Float(float64(int64(bits))) // the float an Int of these bits keys as
		}
		a, b := mk(x, kx), mk(y, ky)
		aw, _ := a.KeyWord()
		bw, _ := b.KeyWord()
		sw, _ := mk(x, ky).KeyWord()
		return (aw == bw) == KeyEqual(a, b) && aw != KeyWordNull && (aw == sw) == KeyEqual(a, mk(x, ky)) &&
			KeyWordAbove(aw, bw) == (Compare(a, b) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}
