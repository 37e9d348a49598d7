package sqlengine

// Hash-join executors on the zero-copy path (DESIGN.md §8.2). The
// build side indexes borrowed inner rows by their appendKey encoding;
// probes encode outer keys into a reusable scratch buffer, so a probe
// allocates nothing for non-matching rows (map lookups keyed on
// string(scratch) do not copy the bytes) and materializes only the
// combined output row on a match. Every join input is read through
// its source's compiled read (readParts): a BatchSource streams
// kernel-filtered column batches decoding only the columns the
// statement reads from that alias, and with Workers > 1 the read fans
// its morsels out over the worker pool (a row source fans out only as
// hashJoinFirst's probe).

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
// sink opens a part and returns the function that takes the part's
// rows (fanOut). A batch read fans its morsels out when Workers > 1; a
// row read does so only when fanRows is set and the storage provides
// row morsels, and is otherwise one serial part through runScanPlan. A
// fan-out is noted on sp as workers/morsels. On the batch path an
// emitted row is scratch, valid only during the call: the sink clones
// what it keeps.
func readParts[P any](ctx context.Context, en *Engine, rd *sourceRead, fanRows bool, sp *obs.Span, sink func(*P) func(relstore.Row) error) ([]P, error) {
	workers := en.scanWorkers()
	open := func(p *P) rowSink { return rowSink{emit: sink(p)} }
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
		return fanOut(ctx, len(morsels), workers, open, rd.batchWorker(morsels))
	}
	if fanRows && workers > 1 && rd.plan.eqIndex == nil {
		if ms, ok := rd.s.morselSource(); ok {
			morsels, err := ms.ScanMorsels(rd.plan.bounds)
			if err != nil {
				return nil, err
			}
			if len(morsels) > 1 {
				noteFanOut(len(morsels))
				return fanOut(ctx, len(morsels), workers, open, func() func(int, *cancelProbe, rowSink) error {
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

// readRows drains a read into rows the caller keeps: the leading scan,
// a hash join's build side, nested-loop inners. Row-path rows are
// borrowed and kept as they are; rows cloned out of a batch count as
// copied join rows.
func (en *Engine) readRows(ctx context.Context, rd *sourceRead, sp *obs.Span) ([]relstore.Row, error) {
	// The row path keeps its plain loop: sending it through readParts'
	// part sink cost warm-clustered scans 8-15 % under concurrent load.
	if rd.batch == nil {
		var rows []relstore.Row
		err := en.runScanPlan(ctx, rd.s, rd.plan, func(row relstore.Row) error {
			rows = append(rows, row)
			return nil
		})
		return rows, err
	}
	parts, err := readParts(ctx, en, rd, false, sp, func(p *[]relstore.Row) func(relstore.Row) error {
		return func(row relstore.Row) error {
			*p = append(*p, row.Clone())
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	var rows []relstore.Row
	if len(parts) == 1 {
		rows = parts[0]
	} else {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		rows = make([]relstore.Row, 0, n)
		for _, p := range parts {
			rows = append(rows, p...)
		}
	}
	en.DB.AddJoinRows(0, int64(len(rows)))
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

// probe appends the combined rows for one outer row to out. Rows with
// a NULL key component never match (SQL equality semantics); probed
// reports whether the row had a fully non-NULL key. With a band, only
// the bucket's rows inside the band are combined, in band-column order.
func (jt *joinTable) probe(o relstore.Row, joins []equiJoin, sc *probeScratch, out []relstore.Row) (res []relstore.Row, probed bool, err error) {
	for i, j := range joins {
		sc.key[i] = o[j.boundPos]
		if sc.key[i].IsNull() {
			return out, false, nil
		}
	}
	sc.enc = appendKey(sc.enc[:0], sc.key)
	b, ok := jt.idx[string(sc.enc)]
	if !ok {
		return out, true, nil
	}
	matches := jt.buckets[b]
	if jt.band != nil {
		if matches, err = jt.band.narrow(matches, o); err != nil {
			return out, true, err
		}
	}
	for _, m := range matches {
		combined := make(relstore.Row, 0, len(o)+len(m))
		combined = append(combined, o...)
		combined = append(combined, m...)
		out = append(out, combined)
	}
	return out, true, nil
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
// mirror).
func (en *Engine) hashJoin(ctx context.Context, outer []relstore.Row, s *source, joins []equiJoin, band *joinBand, singles []Expr, sources []*source, fp *foldPlan, sp *obs.Span) ([]relstore.Row, error) {
	jt, err := en.buildInner(ctx, s, joins, band, singles, sources, fp, sp)
	if err != nil {
		return nil, err
	}
	ps := sp.Child("join:hash-probe")
	band.label(ps)
	cc := newCancelProbe(ctx)
	sc := newProbeScratch(joins)
	var out []relstore.Row
	var probed int64
	for _, o := range outer {
		if cc.tick() {
			return nil, cc.err()
		}
		var ok bool
		if out, ok, err = jt.probe(o, joins, sc, out); err != nil {
			return nil, err
		}
		if ok {
			probed++
		}
	}
	en.DB.AddJoinRows(probed, int64(len(out)))
	ps.AddRows(probed, int64(len(out)))
	ps.End()
	return out, nil
}

// probePart is one part of a streamed probe: the combined rows it
// produced and how many probe rows had a full key.
type probePart struct {
	out    []relstore.Row
	probed int64
}

// hashJoinFirst fuses the statement's initial table scan into the
// probe side of its first hash join: outer rows stream from the
// source's read straight into the probe with no intermediate []Row,
// and the probe fans out with the read (readParts). Probe rows need no
// clone: jt.probe copies them into the combined row. Called when the
// fold is a build-on-inner hash join: planner-off, when the inner side
// has no index on the leading key; planner-on, when the cost model
// picked the inner build side.
func (en *Engine) hashJoinFirst(ctx context.Context, outer *source, conjuncts []Expr, s *source, joins []equiJoin, band *joinBand, singles []Expr, sources []*source, fp *foldPlan, sp *obs.Span) ([]relstore.Row, error) {
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
	parts, err := readParts(ctx, en, rd, true, ps, func(p *probePart) func(relstore.Row) error {
		sc := newProbeScratch(joins)
		return func(row relstore.Row) error {
			var ok bool
			var err error
			if p.out, ok, err = jt.probe(row, joins, sc, p.out); ok {
				p.probed++
			}
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	var out []relstore.Row
	var probed int64
	if len(parts) == 1 {
		out, probed = parts[0].out, parts[0].probed
	} else {
		n := 0
		for _, p := range parts {
			n += len(p.out)
		}
		out = make([]relstore.Row, 0, n)
		for _, p := range parts {
			out = append(out, p.out...)
			probed += p.probed
		}
	}
	en.DB.AddJoinRows(probed, int64(len(out)))
	ps.AddRows(probed, int64(len(out)))
	ps.End()
	return out, nil
}

// buildOuterPart is one part of hashJoinBuildOuter's probe: per outer
// row, the inner rows of this part that join it, in read order.
type buildOuterPart struct {
	matches  [][]relstore.Row
	probed   int64
	combined int64 // output rows this part's matches produce
	copied   int64 // inner rows cloned out of a batch
}

// hashJoinBuildOuter is hashJoin with the build side flipped: the
// planner picks it when the already-materialized outer input is the
// smaller estimate, so the hash table is built over the outer rows
// and the inner read streams through it — fixing the old executor's
// fixed-build-side misplan (a 17-row outer no longer pays for hashing
// a million-row inner). Matches are emitted outer-major afterwards,
// inner rows in read order within each outer row, so the output order
// is byte-identical to the build-inner executor's.
func (en *Engine) hashJoinBuildOuter(ctx context.Context, outer []relstore.Row, s *source, joins []equiJoin, singles []Expr, sources []*source, fp *foldPlan, sp *obs.Span) ([]relstore.Row, error) {
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
	// batch) for the whole statement.
	parts, err := readParts(ctx, en, rd, false, ps, func(p *buildOuterPart) func(relstore.Row) error {
		sc := newProbeScratch(joins)
		return func(row relstore.Row) error {
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
			p.combined += int64(len(ois))
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	// Emit outer-major; within an outer row, parts in morsel order keep
	// the inner rows in read order.
	var probed, combined, copied int64
	for _, p := range parts {
		probed += p.probed
		combined += p.combined
		copied += p.copied
	}
	out := make([]relstore.Row, 0, combined)
	for i, o := range outer {
		for _, p := range parts {
			if p.matches == nil {
				continue
			}
			for _, m := range p.matches[i] {
				c := make(relstore.Row, 0, len(o)+len(m))
				c = append(c, o...)
				c = append(c, m...)
				out = append(out, c)
			}
		}
	}
	en.DB.AddJoinRows(probed, int64(len(out))+copied)
	ps.AddRows(probed, int64(len(out)))
	ps.End()
	return out, nil
}
