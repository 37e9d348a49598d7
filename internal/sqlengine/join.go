package sqlengine

// Hash-join executors on the zero-copy path (DESIGN.md §8.2). The
// build side indexes borrowed inner rows by their appendKey encoding;
// probes encode outer keys into a reusable scratch buffer, so a probe
// allocates nothing for non-matching rows (map lookups keyed on
// string(scratch) do not copy the bytes); a match goes to the fold's
// foldOut, which streams it into the consumer on the statement's last
// fold and materializes it only on an intermediate one. Every join
// input is read through its source's compiled read (readParts): a
// BatchSource streams kernel-filtered column batches decoding only the
// columns the statement reads from that alias, and with Workers > 1
// the read fans its morsels out over the worker pool (a row source
// fans out only as hashJoinFirst's probe).

import (
	"context"
	"slices"
	"sort"
	"strings"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// readParts drains rd into parts and returns them in morsel order:
// concatenated, they reproduce the serial scan at any worker count.
// sink opens a part and returns where its rows go (fanOut). A batch
// read fans its morsels out over up to workers goroutines; a row read
// does so only when fanRows is set and the storage provides row
// morsels, and is otherwise one serial part through runScanPlan. A
// fan-out is noted on sp as workers/morsels. On the batch path an
// emitted row is scratch, valid only during the call: the sink copies
// what it keeps.
func readParts[P any](ctx context.Context, en *Engine, rd *sourceRead, workers int, fanRows bool, sp *obs.Span, sink func(*P) rowSink) ([]P, error) {
	noteFanOut := func(n int) {
		if w := min(workers, n); w > 1 {
			sp.SetInt("workers", int64(w))
			sp.SetInt("morsels", int64(n))
		}
	}
	if rd.batch != nil {
		morsels, err := rd.batch.ScanBatches(rd.plan.bounds, rd.s.needed)
		if err != nil {
			return nil, err
		}
		noteFanOut(len(morsels))
		return fanOut(ctx, len(morsels), workers, sink, rd.batchWorker(morsels))
	}
	if fanRows && workers > 1 && rd.plan.eqIndex == nil {
		if ms, ok := rd.s.morselSource(); ok {
			morsels, err := ms.ScanMorsels(rd.plan.bounds)
			if err != nil {
				return nil, err
			}
			if len(morsels) > 1 {
				noteFanOut(len(morsels))
				return fanOut(ctx, len(morsels), workers, sink, func() func(int, *cancelProbe, rowSink) error {
					return func(i int, cc *cancelProbe, out rowSink) error {
						return runMorsel(morsels[i], rd.plan, cc, out)
					}
				})
			}
		}
	}
	parts := make([]P, 1)
	return parts, en.runScanPlan(ctx, rd.s, rd.plan, sink(&parts[0]))
}

// readRows drains a read into rows the caller keeps: the leading scan
// of a join, a hash join's build side, nested-loop inners. Row-path
// rows are borrowed and kept as they are; rows cloned out of a batch
// count as copied join rows.
func (en *Engine) readRows(ctx context.Context, rd *sourceRead, sp *obs.Span) ([]relstore.Row, error) {
	clone := rd.batch != nil
	parts, err := readParts(ctx, en, rd, en.scanWorkers(), false, sp, func(p *[]relstore.Row) rowSink {
		return rowSink{emit: func(row relstore.Row) error {
			if clone {
				row = row.Clone()
			}
			*p = append(*p, row)
			return nil
		}}
	})
	if err != nil {
		return nil, err
	}
	var rows []relstore.Row
	if len(parts) == 1 {
		rows = parts[0]
	} else {
		rows = slices.Concat(parts...)
	}
	if clone {
		en.DB.AddJoinRows(0, int64(len(rows)))
	}
	return rows, nil
}

// label marks a span whose input is read through the batch drain.
func (rd *sourceRead) label(sp *obs.Span) {
	if rd.batch != nil {
		sp.SetAttr("access", "colscan")
	}
}

// joinTable is the build side of a hash join: bucket indexes keyed by
// the encoded join key. One string key is allocated per distinct key
// value; probing is allocation-free and, because the table is
// read-only after build, safe to share across probe workers.
type joinTable struct {
	idx     map[string]int
	buckets [][]relstore.Row
	band    *joinBand
}

// joinBand is a band probe on one build-side column: the join's
// remaining conjuncts bound inner.col by expressions over the probe
// row, lo <(=) inner.col <(=) hi (either side may be absent). Each
// bucket is sorted by col once after the build, so a probe emits only
// the rows inside the band and no residual filter runs after the join.
type joinBand struct {
	col                int    // position in the build side's schema
	name               string // column name, for EXPLAIN and traces
	lo, hi             evalFunc
	loStrict, hiStrict bool
}

// bandConds takes a band for source s out of the conjuncts left after
// the equi-join keys. A conjunct qualifies when it compares a bare INT
// or DATE column of s with `col`, `col + n` or `col - n` over an
// already-joined source: evaluating such a bound cannot fail, and the
// comparison is monotone in the sorted column, so a binary search
// finds exactly the rows the conjunct's filter would keep. The first
// qualifying column wins, with at most one bound per side; the
// conjuncts the band consumes leave the returned rest.
func (en *Engine) bandConds(conjuncts []Expr, joined *rowLayout, joinedAliases map[string]bool, s *source, sources []*source) (*joinBand, []Expr, error) {
	var band *joinBand
	var rest []Expr
	for _, c := range conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op == "=" || flipOp[b.Op] == "" {
			rest = append(rest, c)
			continue
		}
		op, innerSide, outerSide := b.Op, b.L, b.R
		in, ok := en.termOf(innerSide, sources)
		if !ok || in.node.src != s {
			op, innerSide, outerSide = flipOp[b.Op], b.R, b.L
			in, ok = en.termOf(innerSide, sources)
		}
		out, outOK := en.termOf(outerSide, sources)
		if !ok || in.node.src != s || in.off != 0 || !numericCol(in.node.typ()) ||
			!outOK || !joinedAliases[strings.ToLower(out.node.src.alias)] || !numericCol(out.node.typ()) ||
			(band != nil && band.col != in.node.col) {
			rest = append(rest, c)
			continue
		}
		lower := op == ">" || op == ">="
		if band != nil && ((lower && band.lo != nil) || (!lower && band.hi != nil)) {
			rest = append(rest, c)
			continue
		}
		fn, err := en.compileExpr(outerSide, joined)
		if err != nil {
			return nil, nil, err
		}
		if band == nil {
			band = &joinBand{col: in.node.col, name: s.schema.Columns[in.node.col].Name}
		}
		if lower {
			band.lo, band.loStrict = fn, op == ">"
		} else {
			band.hi, band.hiStrict = fn, op == "<"
		}
	}
	return band, rest, nil
}

// sortBuckets orders every bucket by the band column, stably so ties
// keep read order, and drops rows whose column is NULL (no comparison
// with NULL holds).
func (b *joinBand) sortBuckets(buckets [][]relstore.Row) {
	for i, rows := range buckets {
		kept := rows[:0] // the bucket is the table's own
		for _, r := range rows {
			if !r[b.col].IsNull() {
				kept = append(kept, r)
			}
		}
		slices.SortStableFunc(kept, func(x, y relstore.Row) int { return compareValues(x[b.col], y[b.col]) })
		buckets[i] = kept
	}
}

// narrow returns the rows of a sorted bucket inside the band of probe
// row o, using the comparison the residual filter would have applied.
func (b *joinBand) narrow(rows []relstore.Row, o relstore.Row) ([]relstore.Row, error) {
	if b.lo != nil {
		v, err := b.lo(o)
		if err != nil || v.IsNull() {
			return nil, err
		}
		rows = rows[sort.Search(len(rows), func(i int) bool {
			c := compareValues(rows[i][b.col], v)
			return c > 0 || (c == 0 && !b.loStrict)
		}):]
	}
	if b.hi != nil {
		v, err := b.hi(o)
		if err != nil || v.IsNull() {
			return nil, err
		}
		rows = rows[:sort.Search(len(rows), func(i int) bool {
			c := compareValues(rows[i][b.col], v)
			return c > 0 || (c == 0 && b.hiStrict)
		})]
	}
	return rows, nil
}

func buildJoinTable(inner []relstore.Row, joins []equiJoin, band *joinBand) *joinTable {
	jt := &joinTable{idx: make(map[string]int, len(inner)), band: band}
	var enc []byte
	key := make([]relstore.Value, len(joins))
	for _, r := range inner {
		for i, j := range joins {
			key[i] = r[j.newPos]
		}
		enc = appendKey(enc[:0], key)
		if b, ok := jt.idx[string(enc)]; ok {
			jt.buckets[b] = append(jt.buckets[b], r)
		} else {
			jt.idx[string(enc)] = len(jt.buckets)
			jt.buckets = append(jt.buckets, []relstore.Row{r})
		}
	}
	if band != nil {
		band.sortBuckets(jt.buckets)
	}
	return jt
}

// probeScratch holds one prober's reusable buffers; concurrent
// workers must each own their own.
type probeScratch struct {
	enc []byte
	key []relstore.Value
}

func newProbeScratch(joins []equiJoin) *probeScratch {
	return &probeScratch{key: make([]relstore.Value, len(joins))}
}

// probe sends the combined rows for one outer row to out. Rows with a
// NULL key component never match (SQL equality semantics); probed
// reports whether the row had a fully non-NULL key. With a band, only
// the bucket's rows inside the band are combined, in band-column order.
func (jt *joinTable) probe(o relstore.Row, joins []equiJoin, sc *probeScratch, out *foldOut) (probed bool, err error) {
	for i, j := range joins {
		sc.key[i] = o[j.boundPos]
		if sc.key[i].IsNull() {
			return false, nil
		}
	}
	sc.enc = appendKey(sc.enc[:0], sc.key)
	b, ok := jt.idx[string(sc.enc)]
	if !ok {
		return true, nil
	}
	matches := jt.buckets[b]
	if jt.band != nil {
		if matches, err = jt.band.narrow(matches, o); err != nil {
			return true, err
		}
	}
	for _, m := range matches {
		if err := out.emit(o, m); err != nil {
			return true, err
		}
	}
	return true, nil
}

// label names a span's band column.
func (b *joinBand) label(sp *obs.Span) {
	if b != nil {
		sp.SetAttr("band", b.name)
	}
}

// setFoldEst annotates a join span with the planner's estimates.
func setFoldEst(sp *obs.Span, fp *foldPlan) {
	if sp == nil || fp == nil {
		return
	}
	sp.SetInt("est_outer", int64(fp.estOuter))
	sp.SetInt("est_inner", int64(fp.estInner))
	sp.SetInt("est_out", int64(fp.estOut))
}

// buildInner reads source s under a "join:hash-build" span and hashes
// it on the join keys (the build-on-inner side of hashJoin and
// hashJoinFirst), sorting the buckets for a band probe when band is
// set.
func (en *Engine) buildInner(ctx context.Context, s *source, joins []equiJoin, band *joinBand, singles []Expr, sources []*source, fp *foldPlan, sp *obs.Span) (*joinTable, error) {
	bs := sp.Child("join:hash-build")
	bs.SetAttr("table", s.alias)
	bs.SetAttr("side", "inner")
	rd, err := en.compileRead(s, singles, sources)
	if err != nil {
		return nil, err
	}
	rd.label(bs)
	setFoldEst(bs, fp)
	inner, err := en.readRows(ctx, rd, bs)
	if err != nil {
		return nil, err
	}
	jt := buildJoinTable(inner, joins, band)
	bs.AddRows(int64(len(inner)), 0)
	bs.SetInt("buckets", int64(len(jt.buckets)))
	bs.End()
	return jt, nil
}

// hashJoin folds source s into already-materialized outer rows,
// building on the inner side (the planner picks this variant when the
// inner input is the smaller estimate; hashJoinBuildOuter is its
// mirror). Its output goes to c, or is materialized when c is nil
// (foldOut).
func (en *Engine) hashJoin(ctx context.Context, outer []relstore.Row, s *source, joins []equiJoin, band *joinBand, singles []Expr, sources []*source, fp *foldPlan, c *consumer, sp *obs.Span) ([]foldOut, error) {
	jt, err := en.buildInner(ctx, s, joins, band, singles, sources, fp, sp)
	if err != nil {
		return nil, err
	}
	ps := sp.Child("join:hash-probe")
	band.label(ps)
	cc := newCancelProbe(ctx)
	sc := newProbeScratch(joins)
	out := []foldOut{{outPart: c.open()}}
	fo := &out[0]
	for _, o := range outer {
		if cc.tick() {
			return nil, cc.err()
		}
		ok, err := jt.probe(o, joins, sc, fo)
		if err != nil {
			return nil, err
		}
		if ok {
			fo.probed++
		}
	}
	en.DB.AddJoinRows(fo.probed, fo.copied())
	ps.AddRows(fo.probed, fo.in)
	ps.End()
	return out, nil
}

// hashJoinFirst fuses the statement's initial table scan into the
// probe side of its first hash join: outer rows stream from the
// source's read straight into the probe with no intermediate []Row,
// and the probe fans out with the read (readParts), one foldOut per
// part — unless c aggregates with a function that cannot merge
// partials, which drains serially. Probe rows need no clone: the fold
// copies them into the combined row. Called when the fold is a
// build-on-inner hash join: planner-off, when the inner side has no
// index on the leading key; planner-on, when the cost model picked the
// inner build side.
func (en *Engine) hashJoinFirst(ctx context.Context, outer *source, conjuncts []Expr, s *source, joins []equiJoin, band *joinBand, singles []Expr, sources []*source, fp *foldPlan, c *consumer, sp *obs.Span) ([]foldOut, error) {
	jt, err := en.buildInner(ctx, s, joins, band, singles, sources, fp, sp)
	if err != nil {
		return nil, err
	}
	rd, err := en.compileRead(outer, conjuncts, sources)
	if err != nil {
		return nil, err
	}
	ps := sp.Child("join:hash-probe")
	ps.SetAttr("table", outer.alias)
	rd.label(ps)
	band.label(ps)
	workers := en.scanWorkers()
	if c != nil && c.serial {
		workers = 1
	}
	out, err := readParts(ctx, en, rd, workers, true, ps, func(fo *foldOut) rowSink {
		*fo = foldOut{outPart: c.open()}
		sc := newProbeScratch(joins)
		return rowSink{emit: func(row relstore.Row) error {
			ok, err := jt.probe(row, joins, sc, fo)
			if ok {
				fo.probed++
			}
			return err
		}}
	})
	if err != nil {
		return nil, err
	}
	var probed, emitted, copied int64
	for i := range out {
		probed += out[i].probed
		emitted += out[i].in
		copied += out[i].copied()
	}
	en.DB.AddJoinRows(probed, copied)
	ps.AddRows(probed, emitted)
	ps.End()
	return out, nil
}

// buildOuterPart is one part of hashJoinBuildOuter's probe: per outer
// row, the inner rows of this part that join it, in read order.
type buildOuterPart struct {
	matches [][]relstore.Row
	probed  int64
	copied  int64 // inner rows cloned out of a batch
}

// hashJoinBuildOuter is hashJoin with the build side flipped: the
// planner picks it when the already-materialized outer input is the
// smaller estimate, so the hash table is built over the outer rows
// and the inner read streams through it — fixing the old executor's
// fixed-build-side misplan (a 17-row outer no longer pays for hashing
// a million-row inner). Matches are emitted outer-major afterwards,
// inner rows in read order within each outer row, so the output order
// is byte-identical to the build-inner executor's.
func (en *Engine) hashJoinBuildOuter(ctx context.Context, outer []relstore.Row, s *source, joins []equiJoin, singles []Expr, sources []*source, fp *foldPlan, c *consumer, sp *obs.Span) ([]foldOut, error) {
	bs := sp.Child("join:hash-build")
	bs.SetAttr("table", s.alias)
	bs.SetAttr("side", "outer")
	setFoldEst(bs, fp)
	// Build: outer row positions keyed by encoded join key. Rows with
	// a NULL key component can never match, so they are left out.
	idx := make(map[string][]int, len(outer))
	var enc []byte
	key := make([]relstore.Value, len(joins))
	for i, o := range outer {
		null := false
		for k, j := range joins {
			key[k] = o[j.boundPos]
			if key[k].IsNull() {
				null = true
				break
			}
		}
		if null {
			continue
		}
		enc = appendKey(enc[:0], key)
		idx[string(enc)] = append(idx[string(enc)], i)
	}
	bs.AddRows(int64(len(outer)), 0)
	bs.SetInt("buckets", int64(len(idx)))
	bs.End()

	rd, err := en.compileRead(s, singles, sources)
	if err != nil {
		return nil, err
	}
	ps := sp.Child("join:hash-probe")
	ps.SetAttr("table", s.alias)
	rd.label(ps)
	// A matching inner row is kept (cloned once when it comes from a
	// batch) until the matches are emitted.
	parts, err := readParts(ctx, en, rd, en.scanWorkers(), false, ps, func(p *buildOuterPart) rowSink {
		sc := newProbeScratch(joins)
		return rowSink{emit: func(row relstore.Row) error {
			for k, j := range joins {
				sc.key[k] = row[j.newPos]
				if sc.key[k].IsNull() {
					return nil
				}
			}
			p.probed++
			sc.enc = appendKey(sc.enc[:0], sc.key)
			ois := idx[string(sc.enc)]
			if len(ois) == 0 {
				return nil
			}
			kept := row
			if rd.batch != nil {
				kept = row.Clone()
				p.copied++
			}
			if p.matches == nil {
				p.matches = make([][]relstore.Row, len(outer))
			}
			for _, oi := range ois {
				p.matches[oi] = append(p.matches[oi], kept)
			}
			return nil
		}}
	})
	if err != nil {
		return nil, err
	}
	// Emit outer-major; within an outer row, parts in morsel order keep
	// the inner rows in read order.
	var probed, copied int64
	for _, p := range parts {
		probed += p.probed
		copied += p.copied
	}
	out := []foldOut{{outPart: c.open()}}
	fo := &out[0]
	for i, o := range outer {
		for _, p := range parts {
			if p.matches == nil {
				continue
			}
			for _, m := range p.matches[i] {
				if err := fo.emit(o, m); err != nil {
					return nil, err
				}
			}
		}
	}
	en.DB.AddJoinRows(probed, fo.copied()+copied)
	ps.AddRows(probed, fo.in)
	ps.End()
	return out, nil
}
