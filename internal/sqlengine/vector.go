package sqlengine

import (
	"cmp"
	"strings"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// Vectorized reads. The columnar sibling of parallel.go: when a
// source's storage can stream column batches (BatchSource — the
// compressed store's columnar path), filter conjuncts of the form
// `col op const` compile into batch kernels that narrow a selection
// vector column-at-a-time, and only the surviving rows are filled
// into scratch for aggregation, projection or a join. A read qualifies
// when batchOf finds a batch source and the planner found no
// equality-index probe; parallel.go's readParts drains it like every
// other read.
//
// Results are identical to the row path: batch morsels are consumed in
// morsel order (or merged in morsel order after a parallel fan-out),
// selection vectors keep ascending row order inside each batch, and
// when any conjunct cannot be kernelized the full compiled filter
// reruns on kernel survivors, so row and group order match the serial
// scan exactly.

// BatchSource is the storage interface behind the vectorized path.
// Implementations stream batches whose selected rows, concatenated in
// order, reproduce the row sequence of its ScanMorsels (see
// relstore.BatchFunc). needed marks the columns the consumer will
// read; nil means all.
type BatchSource interface {
	ScanBatches(bounds []relstore.ZoneBound, needed []bool) ([]relstore.BatchFunc, error)
}

// colKernel is one compiled `col op const` conjunct, evaluated against
// a column vector. The fast paths compare raw numeric payloads against
// the precomputed constant; everything else reconstructs the Value and
// defers to compareValues, so kernel semantics match the compiled
// row filter bit for bit.
type colKernel struct {
	col int
	cv  relstore.Value // original constant, for the generic fallback
	// Fast paths, exactly relstore.Compare: an Int/Date constant
	// (intConst) compares Int/Date values on ci, exactly, and Float
	// values on cf; a Float constant (floatConst) compares every
	// numeric value on cf; a string constant that parses as a date
	// (dateConst) compares Date values on ci (compareValues'
	// date-string coercion).
	ci                              int64
	cf                              float64
	intConst, floatConst, dateConst bool
	// Truth table for the comparison outcome.
	ltOK, eqOK, gtOK bool
}

// outcome maps a comparison result to the kernel's verdict.
func (k *colKernel) outcome(c int) bool {
	switch {
	case c < 0:
		return k.ltOK
	case c > 0:
		return k.gtOK
	default:
		return k.eqOK
	}
}

// pass reports whether row i of vec survives this kernel, mirroring
// the row filter: NULL on either side drops the row, otherwise the
// comparison outcome decides.
func (k *colKernel) pass(vec *relstore.ColVec, i int) bool {
	switch kind := vec.KindAt(i); {
	case kind == relstore.TypeNull:
		return false
	case kind == relstore.TypeFloat && (k.intConst || k.floatConst):
		return k.outcome(cmp.Compare(vec.F[i], k.cf))
	case kind == relstore.TypeInt || kind == relstore.TypeDate:
		if k.intConst || (k.dateConst && kind == relstore.TypeDate) {
			return k.outcome(cmp.Compare(vec.I[i], k.ci))
		}
		if k.floatConst {
			return k.outcome(cmp.Compare(float64(vec.I[i]), k.cf))
		}
	}
	v := vec.ValueAt(i)
	if v.IsNull() {
		return false
	}
	return k.outcome(compareValues(v, k.cv))
}

// batchPlan is the compiled vectorized filter: the kernels plus
// whether any conjunct resisted kernelization (residual true reruns
// the full row filter on kernel survivors).
type batchPlan struct {
	kernels  []colKernel
	residual bool
}

// compileKernels turns the kernelizable conjuncts into colKernels.
func (en *Engine) compileKernels(conjuncts []Expr, s *source, sources []*source) batchPlan {
	var bp batchPlan
	for _, c := range conjuncts {
		col, op, v, ok := en.colConstConjunct(c, s, sources)
		if !ok {
			bp.residual = true
			continue
		}
		k := colKernel{col: col, cv: v}
		switch op {
		case "=":
			k.eqOK = true
		case "<":
			k.ltOK = true
		case "<=":
			k.ltOK, k.eqOK = true, true
		case ">":
			k.gtOK = true
		case ">=":
			k.gtOK, k.eqOK = true, true
		default:
			bp.residual = true
			continue
		}
		switch v.Kind {
		case relstore.TypeInt, relstore.TypeDate:
			k.intConst, k.ci, k.cf = true, v.I, float64(v.I)
		case relstore.TypeFloat:
			k.floatConst, k.cf = true, v.F
		case relstore.TypeString:
			if s.schema.Columns[col].Type == relstore.TypeDate {
				if d, err := temporal.ParseDate(strings.TrimSpace(v.S)); err == nil {
					k.dateConst, k.ci = true, int64(d)
				}
			}
		}
		bp.kernels = append(bp.kernels, k)
	}
	return bp
}

// markNeeded records on every batch-streaming source the columns the
// statement reads from it: the select list (XML constructors
// included), every conjunct (single-alias, join keys, residual
// multi-alias, valid-time rewrites), GROUP BY, ORDER BY and HAVING.
// A reference resolves by its qualifier against the source alias, an
// unqualified one against every source holding that column. A bare
// star, or a reference that resolves nowhere, leaves every needed set
// nil (decode everything); alias.* leaves that alias's set nil.
// Row-path sources are skipped: their reads never consult the set.
func (en *Engine) markNeeded(stmt *SelectStmt, conjuncts []Expr, sources []*source) {
	var batch []*source
	for _, s := range sources {
		if en.batchOf(s) != nil {
			batch = append(batch, s)
		}
	}
	if len(batch) == 0 {
		return
	}
	needed := make([][]bool, len(batch))
	for i, s := range batch {
		needed[i] = make([]bool, len(s.schema.Columns))
	}
	all := make([]bool, len(batch)) // alias.* seen: decode every column
	resolved := true
	mark := func(e Expr) {
		walkExpr(e, func(sub Expr) {
			ref, isRef := sub.(*ColRef)
			if !isRef {
				return
			}
			found := false
			for _, s := range sources {
				if ref.Qual != "" && !strings.EqualFold(ref.Qual, s.alias) {
					continue
				}
				pos := s.schema.ColumnIndex(ref.Name)
				if pos < 0 {
					continue
				}
				found = true
				for i, b := range batch {
					if b == s {
						needed[i][pos] = true
					}
				}
			}
			if !found {
				resolved = false
			}
		})
	}
	for _, it := range stmt.Select {
		if it.Star {
			if it.Qual == "" {
				return
			}
			for i, b := range batch {
				if strings.EqualFold(it.Qual, b.alias) {
					all[i] = true
				}
			}
			continue
		}
		mark(it.Expr)
	}
	for _, c := range conjuncts {
		mark(c)
	}
	for _, g := range stmt.GroupBy {
		mark(g)
	}
	for _, o := range stmt.OrderBy {
		mark(o.Expr)
	}
	if stmt.Having != nil {
		mark(stmt.Having)
	}
	if !resolved {
		return
	}
	for i, b := range batch {
		if !all[i] {
			b.needed = needed[i]
		}
	}
}

// batchWork is the per-worker scratch of the vectorized drain loop.
// Each worker (or the one serial loop) owns one, so nothing inside
// needs synchronization.
type batchWork struct {
	sel     []int32      // engine-owned selection buffer
	scratch relstore.Row // row image filled per surviving row
}

// sourceRead is the compiled read of one source, built once per source
// per statement: its scan plan and, when the storage streams column
// batches (batchOf, no equality-index probe), the kernels of its
// conjuncts. batch == nil means the row path: row morsels, or the
// index probe (morsels). The columns a batch read decodes are
// s.needed.
type sourceRead struct {
	s     *source
	plan  *scanPlan
	batch BatchSource
	bp    batchPlan
}

func (en *Engine) compileRead(s *source, conjuncts []Expr, sources []*source) (*sourceRead, error) {
	plan, err := en.planScan(s, conjuncts, sources)
	if err != nil {
		return nil, err
	}
	rd := &sourceRead{s: s, plan: plan}
	if bs := en.batchOf(s); bs != nil && plan.eqIndex == nil {
		rd.batch, rd.bp = bs, en.compileKernels(conjuncts, s, sources)
	}
	return rd, nil
}

// batchOf returns s's storage when its reads stream column batches:
// columnar mode on, a BatchSource, and no forced row read.
func (en *Engine) batchOf(s *source) BatchSource {
	if bs, ok := s.virtual.(BatchSource); ok && en.Columnar && s.access != accessRowRead {
		return bs
	}
	return nil
}

// batchWorker is fanOut's worker for the batch morsels of this read:
// each worker drains its morsels with its own scratch.
func (rd *sourceRead) batchWorker(morsels []relstore.BatchFunc) func() func(int, *cancelProbe, *pipePart) error {
	return func() func(int, *cancelProbe, *pipePart) error {
		w := &batchWork{scratch: make(relstore.Row, len(rd.s.schema.Columns))}
		return func(i int, cc *cancelProbe, out *pipePart) error {
			return rd.drainBatch(morsels[i], w, cc, out)
		}
	}
}

// drainBatch drains one batch morsel of the read: kernels narrow the
// selection vector column-at-a-time, survivors are materialized into
// the worker's scratch row (needed columns only — markNeeded marks
// everything the statement reads, so unneeded slots can hold stale
// values no consumer looks at), the residual filter (when present)
// makes the final call, and each passing row goes to out. The row is
// scratch, valid only during the call: the sink copies what it keeps.
func (rd *sourceRead) drainBatch(m relstore.BatchFunc, w *batchWork, cc *cancelProbe, out *pipePart) error {
	bp, filter, needed := &rd.bp, rd.plan.filter, rd.s.needed
	var rowErr error
	_, err := m(func(b *relstore.ColBatch) bool {
		// Batches whose rows the kernels all reject never reach emit, so
		// poll once per batch too.
		if cc.check() {
			rowErr = cc.err()
			return false
		}
		// The kernels subsume the full row filter only when every
		// conjunct kernelized AND every kernel's vector is actually
		// decoded in this batch (always true by construction — kernel
		// columns are in the needed set — but a missing vector must
		// degrade to the filter, never to a wrong result).
		needFilter := bp.residual
		sel := b.Sel
		owned := false
		for ki := range bp.kernels {
			k := &bp.kernels[ki]
			vec := &b.Cols[k.col]
			if !vec.Present {
				needFilter = true
				continue
			}
			if !owned {
				// First kernel filters into the engine-owned buffer —
				// b.Sel belongs to the store and is never written.
				w.sel = w.sel[:0]
				if sel == nil {
					for i := 0; i < b.N; i++ {
						if k.pass(vec, i) {
							w.sel = append(w.sel, int32(i))
						}
					}
				} else {
					for _, i := range sel {
						if k.pass(vec, int(i)) {
							w.sel = append(w.sel, i)
						}
					}
				}
				sel, owned = w.sel, true
				continue
			}
			// Later kernels compact in place (writes trail reads).
			out := sel[:0]
			for _, i := range sel {
				if k.pass(vec, int(i)) {
					out = append(out, i)
				}
			}
			sel = out
		}

		emit := func(i int) bool {
			if cc.tick() {
				rowErr = cc.err()
				return false
			}
			b.FillRow(w.scratch, i, needed)
			if needFilter {
				if ok, err := filter.holds(w.scratch); !ok {
					rowErr = err
					return err == nil
				}
			}
			if err := out.put(w.scratch); err != nil {
				rowErr = err
				return false
			}
			return true
		}
		// sel == nil normally means "no selection: every row". But once a
		// kernel owned the buffer, nil just means the (never-grown) buffer
		// is empty — an empty selection, not a full one.
		if sel == nil && !owned {
			for i := 0; i < b.N; i++ {
				if !emit(i) {
					return false
				}
			}
		} else {
			for _, i := range sel {
				if !emit(int(i)) {
					return false
				}
			}
		}
		return true
	})
	if err == nil {
		err = rowErr
	}
	return err
}
