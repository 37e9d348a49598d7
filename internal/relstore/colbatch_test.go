package relstore

import (
	"bytes"
	"testing"
)

// TestSetFromRowsReuse fills one batch from row sets of changing shape
// (uniform columns of each kind, mixed columns, opaque values, rows too
// short for a column) and checks every cell reads back, that a uniform
// non-opaque column carries no per-row kinds and no Aux values, and
// that refilling the warm batch with the same shape allocates nothing.
func TestSetFromRowsReuse(t *testing.T) {
	blob := Bytes([]byte("blob"))
	sets := [][]Row{
		{{Int(1), String_("a"), Float(1.5), DateV(10)}, {Int(2), String_("b"), Float(2.5), DateV(11)}},
		{{Int(3), Null, blob, Bool(true)}, {String_("x"), Int(4), Bool(false)}, {Null}},
		{{blob, Bool(true), String_("s"), Int(7)}, {blob, Bool(false), String_("t"), Int(8)}},
		{{Int(5), String_("c"), Float(3.5), DateV(12)}},
	}
	var b ColBatch
	for si, rows := range sets {
		b.SetFromRows(rows, 4, nil)
		if b.N != len(rows) || b.Sel != nil {
			t.Fatalf("set %d: N=%d Sel=%v", si, b.N, b.Sel)
		}
		for c := 0; c < 4; c++ {
			v := &b.Cols[c]
			uniform := true
			for i, r := range rows {
				want := Null
				if c < len(r) {
					want = r[c]
				}
				if got := v.ValueAt(i); got.Kind != want.Kind || got.I != want.I || got.F != want.F ||
					got.S != want.S || got.Truth != want.Truth || !bytes.Equal(got.B, want.B) {
					t.Errorf("set %d row %d col %d: got %+v, want %+v", si, i, c, got, want)
				}
				if want.Kind != kindIn(rows[0], c) {
					uniform = false
				}
			}
			opaque := kindIn(rows[0], c) == TypeBytes || kindIn(rows[0], c) == TypeXML
			if typed := len(v.Kinds) == 0; typed != (uniform && !opaque) {
				t.Errorf("set %d col %d: typed vector %v, want %v", si, c, typed, uniform && !opaque)
			}
		}
	}
	rows := sets[0]
	b.SetFromRows(rows, 4, nil)
	if n := testing.AllocsPerRun(100, func() { b.SetFromRows(rows, 4, nil) }); n != 0 {
		t.Errorf("refilling a warm batch allocates %.0f times, want 0", n)
	}
}
