package sqlengine

import (
	"math"
	"strings"
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// TestOneComparisonRule checks that every layer compares values the
// way compareValues does, over every pair of kinds — INT, DATE, FLOAT,
// VARCHAR, BOOL, BYTES and NULL, with INT payloads beyond 2^53 where a
// float cannot hold them:
//
//   - appendKey: two values of one key class encode equal keys exactly
//     when compareValues finds them equal (hash joins, GROUP BY,
//     DISTINCT);
//   - the colKernel of `c op const` and the compiled row filter keep a
//     row exactly when compareValues' outcome satisfies op;
//   - relstore.Compare orders as compareValues does, except for a DATE
//     against a string that parses as a date, which only compareValues
//     reads as a date.
//
// NaN takes cmp.Compare's place in the order: it equals NaN and sorts
// below every other float, so its key is one canonical NaN.
func TestOneComparisonRule(t *testing.T) {
	big := int64(1)<<53 + 1
	vals := []relstore.Value{
		relstore.Null,
		relstore.Int(-1), relstore.Int(0), relstore.Int(10), relstore.Int(big), relstore.Int(big - 1),
		relstore.Int(-big), relstore.Int(math.MaxInt64),
		relstore.DateV(0), relstore.DateV(10), relstore.DateV(temporal.MustParseDate("1995-06-01")),
		relstore.Float(0), relstore.Float(math.Copysign(0, -1)), relstore.Float(10), relstore.Float(0.5),
		relstore.Float(float64(big - 1)), relstore.Float(-1.5), relstore.Float(1e300),
		relstore.Float(math.NaN()), relstore.Float(math.Float64frombits(0x7ff8000000000abc)),
		relstore.String_(""), relstore.String_("10"), relstore.String_(" 10 "), relstore.String_("abc"),
		relstore.String_("1970-01-11"), relstore.String_("1995-06-01"),
		relstore.Bool(false), relstore.Bool(true),
		relstore.Bytes(nil), relstore.Bytes([]byte("ab")), relstore.Bytes([]byte("10")),
	}
	ops := map[string]func(int) bool{
		"=": func(c int) bool { return c == 0 }, "<": func(c int) bool { return c < 0 },
		"<=": func(c int) bool { return c <= 0 }, ">": func(c int) bool { return c > 0 },
		">=": func(c int) bool { return c >= 0 },
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	dateText := func(d, s relstore.Value) bool {
		if d.Kind != relstore.TypeDate || s.Kind != relstore.TypeString {
			return false
		}
		_, err := temporal.ParseDate(strings.TrimSpace(s.S))
		return err == nil
	}
	en := New(relstore.NewDatabase())
	for _, a := range vals {
		colType := a.Kind
		if colType == relstore.TypeNull {
			colType = relstore.TypeInt
		}
		s := &source{alias: "t", schema: relstore.NewSchema("t", relstore.Col("c", colType))}
		layout := layoutFor(s.alias, s.schema)
		var batch relstore.ColBatch
		batch.SetFromRows([]relstore.Row{{a}}, 1, nil)
		for _, b := range vals {
			want := compareValues(a, b)
			if got := relstore.Compare(a, b); sign(got) != sign(want) && !dateText(a, b) && !dateText(b, a) {
				t.Errorf("relstore.Compare(%v %v, %v %v) = %d, compareValues = %d", a.Kind, a.Text(), b.Kind, b.Text(), got, want)
			}
			if keyClass(a.Kind) == keyClass(b.Kind) {
				ka := appendKey(nil, []relstore.Value{a})
				kb := appendKey(nil, []relstore.Value{b})
				if (string(ka) == string(kb)) != (want == 0) {
					t.Errorf("appendKey(%v %v) == appendKey(%v %v) is %v, compareValues = %d", a.Kind, a.Text(), b.Kind, b.Text(), string(ka) == string(kb), want)
				}
			}
			if b.IsNull() {
				continue // `c op NULL` is never a kernel
			}
			for op, holds := range ops {
				conj := &BinaryExpr{Op: op, L: &ColRef{Qual: "t", Name: "c"}, R: &Literal{Value: b}}
				keep := !a.IsNull() && holds(want)
				bp := en.compileKernels([]Expr{conj}, s, []*source{s})
				if len(bp.kernels) != 1 {
					t.Fatalf("c %s %v %v: no kernel", op, b.Kind, b.Text())
				}
				if got := bp.kernels[0].pass(&batch.Cols[0], 0); got != keep {
					t.Errorf("kernel %v %v %s %v %v = %v, compareValues says %v", a.Kind, a.Text(), op, b.Kind, b.Text(), got, keep)
				}
				filter, err := en.compileExpr(conj, layout)
				if err != nil {
					t.Fatal(err)
				}
				v, err := filter(relstore.Row{a})
				if err != nil {
					t.Fatal(err)
				}
				if v.AsBool() != keep {
					t.Errorf("filter %v %v %s %v %v = %v, compareValues says %v", a.Kind, a.Text(), op, b.Kind, b.Text(), v.AsBool(), keep)
				}
			}
		}
	}
}
