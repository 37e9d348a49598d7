package relstore

// Columnar batches: the unit of work of the vectorized execution path.
// A ColBatch holds up to a block's worth of rows decomposed into
// per-column vectors, plus a selection vector naming the rows that are
// still alive after filtering. Producers (the columnar block store)
// fill only the columns a consumer declared it needs; kernels then
// narrow Sel without ever materializing dropped rows.
//
// The ownership contract mirrors borrowed rows: a batch handed to a
// consumer callback is valid only for the duration of the callback,
// and everything inside it is read-only. Values reconstructed from a
// batch own their string/byte payloads (the codec copies on decode),
// so they may be retained past the callback like any decoded Value.

// ColBatch is one batch of rows in columnar form.
type ColBatch struct {
	N    int      // rows in the batch
	Cols []ColVec // one per schema column; Present=false means not decoded
	Sel  []int32  // ascending indices of selected rows; nil = all N
}

// ColVec is one column of a batch. Payloads are positionally aligned:
// slot i is meaningful only when KindAt(i) names that payload family.
//
//	Int, Date, Bool -> I  (Bool stores 0/1)
//	Float           -> F
//	String          -> S
//	anything else   -> Aux (a full Value)
type ColVec struct {
	Present bool
	Kind    Type   // uniform kind when Kinds is empty
	Kinds   []Type // per-row kinds; empty means every row is Kind
	I       []int64
	F       []float64
	S       []string
	Aux     []Value
}

// KindAt returns the kind of row i's value in this column.
func (v *ColVec) KindAt(i int) Type {
	if len(v.Kinds) != 0 {
		return v.Kinds[i]
	}
	return v.Kind
}

// ValueAt reconstructs row i's Value from the column payloads.
func (v *ColVec) ValueAt(i int) Value {
	switch v.KindAt(i) {
	case TypeNull:
		return Null
	case TypeInt:
		return Int(v.I[i])
	case TypeDate:
		return Value{Kind: TypeDate, I: v.I[i]}
	case TypeBool:
		return Bool(v.I[i] != 0)
	case TypeFloat:
		return Float(v.F[i])
	case TypeString:
		return String_(v.S[i])
	default:
		return v.Aux[i]
	}
}

// Selected returns the effective selection: Sel if set, else scratch
// grown to the identity selection [0, N).
func (b *ColBatch) Selected(scratch []int32) []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	if cap(scratch) < b.N {
		scratch = make([]int32, b.N)
	}
	scratch = scratch[:b.N]
	for i := range scratch {
		scratch[i] = int32(i)
	}
	return scratch
}

// FillRow writes row i's values for the needed columns into dst
// (len(dst) == len(b.Cols)); columns not needed or not decoded stay
// untouched. Pass needed == nil to fill every decoded column. The
// inline switch mirrors ValueAt but constructs each Value straight
// into dst — one struct write per cell instead of a return-value copy
// plus an assignment (this is the vectorized drain's hottest loop).
func (b *ColBatch) FillRow(dst Row, i int, needed []bool) {
	for c := range b.Cols {
		if needed != nil && !needed[c] {
			continue
		}
		v := &b.Cols[c]
		if !v.Present {
			continue
		}
		switch v.KindAt(i) {
		case TypeNull:
			dst[c] = Null
		case TypeInt:
			dst[c] = Value{Kind: TypeInt, I: v.I[i]}
		case TypeDate:
			dst[c] = Value{Kind: TypeDate, I: v.I[i]}
		case TypeBool:
			dst[c] = Value{Kind: TypeBool, Truth: v.I[i] != 0}
		case TypeFloat:
			dst[c] = Value{Kind: TypeFloat, F: v.F[i]}
		case TypeString:
			dst[c] = Value{Kind: TypeString, S: v.S[i]}
		default:
			dst[c] = v.Aux[i]
		}
	}
}

// Rows materializes every row of the batch (selection ignored) as
// subslices of one Value arena. Undecoded columns stay zero Values.
func (b *ColBatch) Rows() []Row {
	ncols := len(b.Cols)
	arena := make([]Value, b.N*ncols)
	rows := make([]Row, b.N)
	for i := range rows {
		rows[i] = Row(arena[i*ncols : (i+1)*ncols : (i+1)*ncols])
		b.FillRow(rows[i], i, nil)
	}
	return rows
}

// Reset clears the batch for reuse, keeping every buffer's capacity
// (payloads and per-row kinds alike).
func (b *ColBatch) Reset(n, ncols int) {
	b.N = n
	b.Sel = nil
	if cap(b.Cols) < ncols {
		b.Cols = make([]ColVec, ncols)
	}
	b.Cols = b.Cols[:ncols]
	for c := range b.Cols {
		b.Cols[c].Present = false
		b.Cols[c].Kind = TypeNull
		b.Cols[c].Kinds = b.Cols[c].Kinds[:0]
	}
}

// SetFromRows fills the batch from materialized rows (the adapter used
// for uncompressed morsels and legacy row-encoded blocks). A needed
// column whose rows share one kind other than BYTES or XML becomes a
// typed vector: its payloads only, no per-row kinds. A mixed column
// records each row's kind, and only BYTES and XML values are copied
// whole into Aux. Reusing the batch reuses its buffers, so a warm
// adapter allocates nothing. Strings are shared with the rows, so the
// batch stays valid as long as the rows' payloads do.
func (b *ColBatch) SetFromRows(rows []Row, ncols int, needed []bool) {
	n := len(rows)
	b.Reset(n, ncols)
	for c := 0; c < ncols; c++ {
		if needed != nil && !needed[c] {
			continue
		}
		v := &b.Cols[c]
		v.Present = true
		var counts [TypeBool + 1]int
		for _, r := range rows {
			counts[kindIn(r, c)]++
		}
		if n > 0 {
			if k := kindIn(rows[0], c); counts[k] == n && k != TypeBytes && k != TypeXML {
				v.Kind = k
			}
		}
		if n > 0 && counts[v.Kind] != n {
			v.Kinds = growKinds(v.Kinds, n)
			for i, r := range rows {
				v.Kinds[i] = kindIn(r, c)
			}
		}
		if counts[TypeInt]+counts[TypeDate]+counts[TypeBool] > 0 {
			v.I = growI64(v.I, n)
		}
		if counts[TypeFloat] > 0 {
			v.F = growF64(v.F, n)
		}
		if counts[TypeString] > 0 {
			v.S = growStr(v.S, n)
		}
		if counts[TypeBytes]+counts[TypeXML] > 0 {
			v.Aux = growVal(v.Aux, n)
		}
		for i, r := range rows {
			if c >= len(r) {
				continue
			}
			val := &r[c]
			switch val.Kind {
			case TypeNull:
			case TypeInt, TypeDate:
				v.I[i] = val.I
			case TypeBool:
				v.I[i] = 0
				if val.Truth {
					v.I[i] = 1
				}
			case TypeFloat:
				v.F[i] = val.F
			case TypeString:
				v.S[i] = val.S
			default:
				v.Aux[i] = *val
			}
		}
	}
}

// kindIn is the kind of column c of r; a row too short for c reads as
// NULL.
func kindIn(r Row, c int) Type {
	if c < len(r) {
		return r[c].Kind
	}
	return TypeNull
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growStr(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	return s[:n]
}

func growVal(s []Value, n int) []Value {
	if cap(s) < n {
		return make([]Value, n)
	}
	return s[:n]
}

func growKinds(s []Type, n int) []Type {
	if cap(s) < n {
		return make([]Type, n)
	}
	return s[:n]
}

// BatchFunc is one batch-granular unit of scan work, the columnar
// sibling of MorselFunc: it streams its share of the scan as column
// batches with the store's own row filter already applied through the
// selection vector. fn returning false stops the morsel (stopped=true).
// Concatenating the selected rows of every batch of every BatchFunc,
// in order, yields exactly the row sequence of the store's
// ScanMorsels — the same determinism contract.
type BatchFunc func(fn func(*ColBatch) bool) (stopped bool, err error)
