// Package relstore is the storage layer of the embedded relational
// engine that ArchIS runs on (the stand-in for DB2/ATLaS in the paper).
//
// It provides typed values, schemas, a binary row codec, slotted
// 4 KiB pages with per-page zone maps, heap tables with a page cache
// and physical block-read accounting, B+tree secondary indexes, and a
// catalog with optional on-disk persistence.
package relstore

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"archis/internal/temporal"
	"archis/internal/xmltree"
)

// Type enumerates the column/value types the engine supports.
type Type uint8

const (
	TypeNull   Type = iota
	TypeInt         // int64
	TypeFloat       // float64
	TypeString      // UTF-8 string
	TypeDate        // temporal.Date (day granularity)
	TypeBytes       // BLOB
	TypeXML         // XML fragment (SQL/XML publishing results)
	TypeBool        // boolean (predicate results)
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	case TypeBytes:
		return "BLOB"
	case TypeXML:
		return "XML"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType parses a SQL type name.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL":
		return TypeFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return TypeString, nil
	case "DATE":
		return TypeDate, nil
	case "BLOB", "BYTES":
		return TypeBytes, nil
	case "XML":
		return TypeXML, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	}
	return TypeNull, fmt.Errorf("relstore: unknown type %q", s)
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind  Type
	I     int64
	F     float64
	S     string
	B     []byte
	X     *xmltree.Node
	Truth bool
}

// Null is the SQL NULL value.
var Null = Value{Kind: TypeNull}

// Int wraps an int64.
func Int(v int64) Value { return Value{Kind: TypeInt, I: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{Kind: TypeFloat, F: v} }

// String_ wraps a string (named to avoid clashing with the method).
func String_(v string) Value { return Value{Kind: TypeString, S: v} }

// DateV wraps a temporal date.
func DateV(d temporal.Date) Value { return Value{Kind: TypeDate, I: int64(d)} }

// Bytes wraps a BLOB.
func Bytes(b []byte) Value { return Value{Kind: TypeBytes, B: b} }

// XML wraps an XML fragment.
func XML(n *xmltree.Node) Value { return Value{Kind: TypeXML, X: n} }

// Bool wraps a boolean.
func Bool(b bool) Value { return Value{Kind: TypeBool, Truth: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == TypeNull }

// Date returns the value as a temporal date; valid only for TypeDate.
func (v Value) Date() temporal.Date { return temporal.Date(v.I) }

// AsInt coerces numeric values to int64.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case TypeInt, TypeDate:
		return v.I, true
	case TypeFloat:
		return int64(v.F), true
	case TypeString:
		n, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		return n, err == nil
	}
	return 0, false
}

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case TypeInt, TypeDate:
		return float64(v.I), true
	case TypeFloat:
		return v.F, true
	case TypeString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	}
	return 0, false
}

// AsBool interprets the value as a truth value (SQL three-valued logic
// collapses NULL to false here; callers needing UNKNOWN check IsNull).
func (v Value) AsBool() bool {
	switch v.Kind {
	case TypeBool:
		return v.Truth
	case TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeString:
		return v.S != ""
	}
	return false
}

// Text renders the value for display and for XML text content.
func (v Value) Text() string {
	switch v.Kind {
	case TypeNull:
		return ""
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S
	case TypeDate:
		return v.Date().String()
	case TypeBytes:
		return fmt.Sprintf("<blob %dB>", len(v.B))
	case TypeXML:
		if v.X == nil {
			return ""
		}
		return xmltree.String(v.X)
	case TypeBool:
		return strconv.FormatBool(v.Truth)
	}
	return ""
}

// Compare orders two values. NULL sorts first; values of different
// numeric kinds compare numerically — two Int/Date payloads exactly as
// int64, anything with a Float through float64; otherwise mismatched
// kinds compare by kind tag (stable, if arbitrary). Returns -1, 0 or 1.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	integral := func(v Value) bool { return v.Kind == TypeInt || v.Kind == TypeDate }
	if integral(a) && integral(b) {
		return cmp.Compare(a.I, b.I)
	}
	numeric := func(v Value) bool { return integral(v) || v.Kind == TypeFloat }
	if numeric(a) && numeric(b) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		// Try numeric-vs-string coercion: SQL comparisons like
		// name = '1001' against INT columns.
		if numeric(a) && b.Kind == TypeString {
			if bf, ok := b.AsFloat(); ok {
				af, _ := a.AsFloat()
				switch {
				case af < bf:
					return -1
				case af > bf:
					return 1
				default:
					return 0
				}
			}
		}
		if a.Kind == TypeString && numeric(b) {
			return -Compare(b, a)
		}
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case TypeString:
		return strings.Compare(a.S, b.S)
	case TypeBool:
		switch {
		case a.Truth == b.Truth:
			return 0
		case !a.Truth:
			return -1
		default:
			return 1
		}
	case TypeBytes:
		return strings.Compare(string(a.B), string(b.B))
	case TypeXML:
		return strings.Compare(a.Text(), b.Text())
	}
	return 0
}

// Equal reports value equality under Compare semantics.
func Equal(a, b Value) bool { return !a.IsNull() && !b.IsNull() && Compare(a, b) == 0 }

// Row is a tuple of values positionally matching a schema.
type Row []Value

// Clone deep-copies a row (Bytes values share backing arrays; rows are
// treated as immutable once stored).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for diagnostics.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.Text()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
