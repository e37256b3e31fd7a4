// Package catalog defines the schema metadata, value model, and statistics
// used by the minidb substrate (parser, optimizer, executor) and by GALO's
// learning engine.
//
// The catalog plays the role DB2's system catalog plays in the paper: it is
// where the optimizer gets table cardinalities, column distinct counts and
// frequent-value statistics, and where deliberate blind spots (stale stats,
// ignored column correlation) create the estimation errors that GALO learns
// to repair.
package catalog

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime value kinds supported by minidb.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate // stored as days since 1970-01-01 in I
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding a single SQL value. The zero Value
// is SQL NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{K: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// String returns a string value.
func String(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// Date returns a date value for the given civil date.
func Date(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{K: KindDate, I: int64(t.Unix() / 86400)}
}

// DateFromDays returns a date value holding the given number of days since
// the Unix epoch.
func DateFromDays(days int64) Value { return Value{K: KindDate, I: days} }

// ParseDate parses a 'YYYY-MM-DD' literal into a date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null(), fmt.Errorf("catalog: parse date %q: %w", s, err)
	}
	return Value{K: KindDate, I: int64(t.Unix() / 86400)}, nil
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsBool reports the truthiness of the value (NULL is false).
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt, KindDate:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// AsFloat converts numeric values to float64; strings parse if possible.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindString:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindBool, KindDate:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindString:
		i, err := strconv.ParseInt(v.S, 10, 64)
		if err != nil {
			return 0
		}
		return i
	default:
		return 0
	}
}

// AsString renders the value as a string, the way it would appear in a
// result set.
func (v Value) AsString() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("<%v>", v.K)
	}
}

// SQLLiteral renders the value as a SQL literal (strings and dates quoted, a
// float with a decimal point or an exponent, so that it reads back as one).
func (v Value) SQLLiteral() string { return string(v.AppendSQLLiteral(nil)) }

// AppendSQLLiteral appends the value as SQLLiteral renders it.
func (v Value) AppendSQLLiteral(b []byte) []byte {
	switch v.K {
	case KindString:
		b = append(b, '\'')
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == '\'' {
				b = append(b, '\'')
			}
			b = append(b, v.S[i])
		}
		return append(b, '\'')
	case KindDate:
		b = time.Unix(v.I*86400, 0).UTC().AppendFormat(append(b, '\''), "2006-01-02")
		return append(b, '\'')
	case KindFloat:
		start := len(b)
		b = strconv.AppendFloat(b, v.F, 'g', -1, 64)
		for _, c := range b[start:] {
			if c < '0' || c > '9' {
				return b // a sign, a point, an exponent, NaN or Inf
			}
		}
		return append(b, ".0"...)
	case KindInt:
		return strconv.AppendInt(b, v.I, 10)
	default:
		return append(b, v.AsString()...)
	}
}

// SameLiteral reports whether v and w render the same SQLLiteral, without
// rendering either. Only the field a kind prints is compared: −0 and +0
// differ ("-0" and "0.0"), every NaN prints "NaN", a boolean is any non-zero
// I. Kinds print apart but for two cases, which are rare enough to render: a
// negative integral float prints no decimal point ("-1", as the integer
// does), and a string can read as a date.
func (v Value) SameLiteral(w Value) bool {
	if v.K != w.K {
		return v.SQLLiteral() == w.SQLLiteral()
	}
	switch v.K {
	case KindInt, KindDate:
		return v.I == w.I
	case KindFloat:
		return math.Float64bits(v.F) == math.Float64bits(w.F) || v.F != v.F && w.F != w.F
	case KindString:
		return v.S == w.S
	case KindBool:
		return (v.I != 0) == (w.I != 0)
	default: // NULL, or a kind that prints its number
		return true
	}
}

// Compare orders two values. NULL sorts before everything; values of
// different numeric kinds compare numerically; strings compare
// lexicographically. It returns -1, 0, or +1.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.K == KindString && b.K == KindString {
		return strings.Compare(a.S, b.S)
	}
	if a.K == KindString || b.K == KindString {
		// Mixed string/numeric comparison falls back to string form.
		return strings.Compare(a.AsString(), b.AsString())
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality between two values. NULL equals nothing,
// including NULL.
func Equal(a, b Value) bool {
	if a.K == KindNull || b.K == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a string usable as a hash key: the one definition of "same
// key" that joins, GROUP BY and distinct counts share. Strings key as
// themselves; every numeric kind (INTEGER, DOUBLE, DATE, BOOLEAN) keys by its
// float value, so Int(3), Float(3) and DateFromDays(3) share a key, -0 shares
// +0's, and every NaN shares one key (unlike Compare, under which NaN ties
// with everything). A string never shares a key with a number: String("3")
// and Int(3) key apart although the mixed-kind fallback of Compare — and so
// Equal — compares their string forms. Apart from that fallback and NaN, two
// Equal values have the same Key.
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00null"
	case KindString:
		return "s:" + v.S
	default:
		return "n:" + strconv.FormatFloat(keyFloat(v), 'g', -1, 64)
	}
}

// keyFloat is a numeric value's key: its float value with -0 folded into +0.
// Callers have already set NULLs and strings aside.
func keyFloat(v Value) float64 {
	var f float64
	switch v.K {
	case KindInt, KindBool, KindDate:
		f = float64(v.I)
	case KindFloat:
		f = v.F
	}
	if f != 0 {
		return f
	}
	return 0
}

// keyBits is keyFloat as one word: every NaN folded into keyBitsNaN, so two
// numeric values are KeyEqual exactly when their keyBits are equal.
func keyBits(v Value) uint64 {
	if f := keyFloat(v); f == f {
		return math.Float64bits(f)
	}
	return keyBitsNaN
}

// keyBitsNaN is the one word every NaN keys by.
const keyBitsNaN uint64 = 0x7ff8000000000001

// KeyEqual reports whether two values are the same join key: both non-NULL
// (a NULL key joins nothing, NULL included) and a.Key() == b.Key(), decided
// without building either string.
func KeyEqual(a, b Value) bool {
	if a.K == KindNull || b.K == KindNull || (a.K == KindString) != (b.K == KindString) {
		return false
	}
	if a.K == KindString {
		return a.S == b.S
	}
	return keyBits(a) == keyBits(b)
}

// KeyWordNull is the word KeyWord reserves for NULL: a NaN bit pattern no
// numeric key maps to (every NaN folds into another one).
const KeyWordNull uint64 = 0x7ff8000000000002

// KeyWord returns the value's join key as a single word, for an index that
// decides matches by comparing words: two words other than KeyWordNull are
// equal exactly when the values are KeyEqual. ok is false for a string, whose
// key no word holds (and which is KeyEqual to no value that has one).
func (v Value) KeyWord() (w uint64, ok bool) {
	switch v.K {
	case KindNull:
		return KeyWordNull, true
	case KindString:
		return 0, false
	}
	return keyBits(v), true
}

// KeyWordAbove reports Compare(x, y) > 0 for values x and y — neither a string
// — from their key words alone. Words are float bits, so two integers beyond
// 2^53 can share one; Compare reads both as the same float and ties them too.
func KeyWordAbove(x, y uint64) bool {
	if x == KeyWordNull || y == KeyWordNull {
		return x != KeyWordNull
	}
	return math.Float64frombits(x) > math.Float64frombits(y)
}

// KeyHash folds the value into the running hash h (FNV-1a) such that
// KeyEqual values hash alike.
func (v Value) KeyHash(h uint64) uint64 {
	const prime = 1099511628211
	if v.K == KindString {
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * prime
		}
		return (h ^ 0xff) * prime
	}
	bits := keyBits(v)
	// One multiply per 32-bit half keeps small integers from clustering in
	// the low buckets of a power-of-two table.
	h = (h ^ (bits >> 32)) * prime
	h = (h ^ (bits & 0xffffffff)) * prime
	return h ^ (h >> 29)
}
