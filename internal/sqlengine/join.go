package sqlengine

// Join pipelines on the zero-copy path (DESIGN.md §8.1, §8.2). A
// multi-source SELECT is one fold list (planFolds): every fold but a
// build-outer hash join compiles into a probe stage — a hash probe of
// the inner side's table (within its band), an index probe, or a
// nested loop over the read inner — and the leading read drains
// through readParts into the first stage, each stage pushing its
// combined rows, built in one reused buffer per stage and part, into
// the next and the last into the consumer. A pipeline breaks only
// where one side must be complete first: a hash build, a nested-loop
// inner, and the build-outer fold, whose outer input the stages before
// it collect — the only intermediate rows ever materialized. Hash
// keys encode into a reusable scratch buffer, so a probe allocates
// nothing for non-matching rows (map lookups keyed on string(scratch)
// do not copy the bytes). Every input is read through its source's
// compiled read: a BatchSource streams kernel-filtered column batches
// decoding only the columns the statement reads from that alias, and
// fanWorkers decides how many workers drain it.

import (
	"context"
	"slices"
	"sort"
	"strings"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// collected concatenates a collecting pipeline's parts in morsel
// order and counts the rows they copied.
func (en *Engine) collected(parts []pipePart) []relstore.Row {
	var copied int64
	rows := make([][]relstore.Row, len(parts))
	for i := range parts {
		rows[i] = parts[i].rows
		copied += parts[i].copied
	}
	en.DB.AddJoinRows(0, copied)
	if len(rows) == 1 {
		return rows[0]
	}
	return slices.Concat(rows...)
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
	var sc probeScratch
	for _, r := range inner {
		if !sc.encode(r, joins, false) {
			continue // a NULL key component never matches
		}
		if b, ok := jt.idx[string(sc.enc)]; ok {
			jt.buckets[b] = append(jt.buckets[b], r)
		} else {
			jt.idx[string(sc.enc)] = len(jt.buckets)
			jt.buckets = append(jt.buckets, []relstore.Row{r})
		}
	}
	if band != nil {
		band.sortBuckets(jt.buckets)
	}
	return jt
}

// probeScratch holds one prober's reusable key buffers; concurrent
// workers must each own their own.
type probeScratch struct {
	enc []byte
	key []relstore.Value
}

// encode encodes row's join key — its columns on the joined side when
// bound, on the new source's side otherwise — into sc.enc. It reports
// false when a key component is NULL: SQL equality never holds then.
func (sc *probeScratch) encode(row relstore.Row, joins []equiJoin, bound bool) bool {
	if len(sc.key) != len(joins) {
		sc.key = make([]relstore.Value, len(joins))
	}
	for i, j := range joins {
		pos := j.newPos
		if bound {
			pos = j.boundPos
		}
		sc.key[i] = row[pos]
		if sc.key[i].IsNull() {
			return false
		}
	}
	sc.enc = appendKey(sc.enc[:0], sc.key)
	return true
}

// lookup returns the build rows joining probe row o: its key's
// bucket, narrowed to the band when there is one (in band-column
// order). probed is false when the key has a NULL component.
func (jt *joinTable) lookup(o relstore.Row, joins []equiJoin, sc *probeScratch) (matches []relstore.Row, probed bool, err error) {
	if !sc.encode(o, joins, true) {
		return nil, false, nil
	}
	b, ok := jt.idx[string(sc.enc)]
	if !ok {
		return nil, true, nil
	}
	matches = jt.buckets[b]
	if jt.band != nil {
		matches, err = jt.band.narrow(matches, o)
	}
	return matches, true, err
}

// label names a span's band column.
func (b *joinBand) label(sp *obs.Span) {
	if b != nil {
		sp.SetAttr("band", b.name)
	}
}

// setFoldEst annotates a join span with the planner's estimates.
func setFoldEst(sp *obs.Span, fp *foldPlan) {
	sp.SetInt("est_outer", int64(fp.estOuter))
	sp.SetInt("est_inner", int64(fp.estInner))
	sp.SetInt("est_out", int64(fp.estOut))
}

// fold is one planned join fold: source s joined to the sources folded
// before it by fp's strategy on the equi-join keys joins (and, for a
// build-inner hash join, band), reading s under its single-table
// conjuncts singles.
type fold struct {
	s       *source
	fp      *foldPlan
	joins   []equiJoin
	band    *joinBand
	singles []Expr
}

// planFolds plans a SELECT's folds — planJoins' order and strategies,
// the multi-source conjuncts split over them — as the one fold list
// execSelect runs and EXPLAIN renders. It returns the leading source,
// the folds (none for one source), the conjuncts no fold consumes (the
// consumer's residual filter) and the layout of the combined row.
func (en *Engine) planFolds(sources []*source, perAlias map[string][]Expr, multi []Expr, f *planForce) (*source, []fold, []Expr, *rowLayout, error) {
	first := sources[0]
	if len(sources) == 1 {
		return first, nil, multi, layoutFor(first.alias, first.schema), nil
	}
	jplan, err := en.planJoins(sources, perAlias, multi, f)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	first = sources[jplan.order[0]]
	layout := layoutFor(first.alias, first.schema)
	joinedAliases := map[string]bool{strings.ToLower(first.alias): true}
	folds := make([]fold, len(jplan.folds))
	pending := multi
	for i, idx := range jplan.order[1:] {
		s := sources[idx]
		fd := &folds[i]
		fd.s, fd.fp, fd.singles = s, &jplan.folds[i], perAlias[strings.ToLower(s.alias)]
		if fd.joins, fd.band, pending, err = en.foldConds(pending, layout, joinedAliases, s, sources, fd.fp, f); err != nil {
			return nil, nil, nil, nil, err
		}
		layout = layout.concat(layoutFor(s.alias, s.schema))
		joinedAliases[strings.ToLower(s.alias)] = true
	}
	return first, folds, pending, layout, nil
}

// breakAt returns the position of the first build-outer fold at or
// after i, or len(folds): where the pipeline segment starting at i
// ends.
func breakAt(folds []fold, i int) int {
	for i < len(folds) && folds[i].fp.strategy != stratHashBuildOuter {
		i++
	}
	return i
}

// leadFan is what fanWorkers is told of the leading read: it streams
// (rows) unless it only collects the outer input of a build-outer
// first fold, and a consumer that cannot merge partial aggregates
// keeps it serial (merge) unless a build-outer fold, which emits
// serially, stands between them.
func leadFan(folds []fold, serial bool) (rows, merge bool) {
	end := breakAt(folds, 0)
	last := end == len(folds)
	return end > 0 || last, !(last && serial)
}

// fusedLead reports whether the leading read streams straight into a
// first stage that probes a hash table: it then runs, and EXPLAIN
// prints it, under that stage's "join:hash-probe" rather than a scan of
// its own.
func fusedLead(folds []fold) bool {
	return len(folds) > 0 && folds[0].fp.strategy == stratHashBuildInner
}

// runFolds runs the folds as pipeline segments split at the
// build-outer folds and returns the consumer's parts. The first
// segment's source is the leading read (first under conjuncts); each
// later one's is a build-outer fold, which hashes the rows the segment
// before it collected. The leading read runs under the first stage's
// "join:hash-probe" span when fusedLead, and under a "scan" span
// opened once the segment's build sides and inners are read otherwise.
func (en *Engine) runFolds(ctx context.Context, first *source, conjuncts []Expr, folds []fold, sources []*source, c *consumer, sp *obs.Span) ([]pipePart, error) {
	rd, err := en.compileRead(first, conjuncts, sources)
	if err != nil {
		return nil, err
	}
	cc := newCancelProbe(ctx)
	var outer []relstore.Row
	for start := 0; ; {
		end := breakAt(folds, start)
		pl := &pipeline{ctx: ctx, c: c, stages: make([]*stage, end-start)}
		if end < len(folds) {
			// Collect the build-outer fold's input. Only the leading row
			// read's own rows are stable enough to keep uncopied; a
			// stage's or a build-outer fold's are reused buffers.
			pl.tail, pl.clone = tailCollect, end > 0 || rd.batch != nil
		}
		for i := range pl.stages {
			if cc.check() {
				err = cc.err()
			} else {
				var lead *sourceRead
				if start+i == 0 {
					lead = rd
				}
				pl.stages[i], err = en.compileStage(ctx, &folds[start+i], lead, sources, sp)
			}
			if err != nil {
				pl.endStages()
				return nil, err
			}
		}
		var parts []pipePart
		if start == 0 {
			parts, err = en.readLead(ctx, rd, folds, pl, sp)
		} else {
			parts, err = en.hashJoinBuildOuter(ctx, outer, &folds[start-1], sources, pl, sp)
		}
		if err != nil {
			pl.endStages()
			return nil, err
		}
		for i, g := range pl.stages {
			var in, out int64
			for p := range parts {
				in += parts[p].st[i].in
				out += parts[p].st[i].out
			}
			if g.kind == stageHash {
				en.DB.AddJoinRows(in, 0)
			}
			g.sp.AddRows(in, out)
			g.sp.End()
		}
		if end == len(folds) {
			return parts, nil
		}
		outer = en.collected(parts)
		start = end + 1
	}
}

// readLead drains the leading read rd into the first segment's
// pipeline pl, traced on the first stage's probe span when fusedLead
// and on a "scan" span of its own otherwise.
func (en *Engine) readLead(ctx context.Context, rd *sourceRead, folds []fold, pl *pipeline, sp *obs.Span) ([]pipePart, error) {
	rows, merge := leadFan(folds, pl.c.serial)
	if fusedLead(folds) {
		return readParts(ctx, rd, rows, merge, pl.stages[0].sp, pl)
	}
	ss := sp.Child("scan")
	defer ss.End()
	ss.SetAttr("table", rd.s.alias)
	access := rd.plan.est.Access
	if rd.batch != nil {
		access = "colscan"
	}
	ss.SetAttr("access", access)
	ss.SetInt("est_rows", int64(rd.plan.est.OutRows))
	parts, err := readParts(ctx, rd, rows, merge, ss, pl)
	var read int64
	for i := range parts {
		read += parts[i].read
	}
	ss.AddRows(0, read)
	return parts, err
}

// endStages closes the spans of pl's compiled stages when its run
// stops on an error.
func (pl *pipeline) endStages() {
	for _, g := range pl.stages {
		if g != nil {
			g.sp.End()
		}
	}
}

// stageKind selects a stage's probe in pipePart.push: a switch, so the
// per-row work stays direct calls, never a closure per row.
type stageKind uint8

const (
	stageHash   stageKind = iota // probe a hash table built on the inner side, within its band
	stageIndex                   // probe the inner table's index on the leading join key
	stageNested                  // pair with every row of the read inner
)

// stage is one compiled probe stage. It is read-only once built, so
// every part of a fanned-out pipeline shares it.
type stage struct {
	kind   stageKind
	joins  []equiJoin
	jt     *joinTable      // stageHash
	ix     *relstore.Index // stageIndex: the inner table's index on the leading key
	filter evalFunc        // and its single-table conjuncts, nil when none
	inner  []relstore.Row  // stageNested
	sp     *obs.Span       // join:hash-probe, join:index or join:nested-loop
}

// compileStage builds fold fd's stage: a hash stage reads and hashes
// its build side, a nested-loop stage reads its inner, an index stage
// compiles the inner's single-table conjuncts. lead is the leading
// read when fd is the first fold; a hash stage then traces it on its
// own probe span.
func (en *Engine) compileStage(ctx context.Context, fd *fold, lead *sourceRead, sources []*source, sp *obs.Span) (*stage, error) {
	s := fd.s
	g := &stage{joins: fd.joins}
	var err error
	switch fd.fp.strategy {
	case stratHashBuildInner:
		// Read and hash the build side under its own span.
		g.kind = stageHash
		bs := sp.Child("join:hash-build")
		bs.SetAttr("table", s.alias)
		bs.SetAttr("side", "inner")
		setFoldEst(bs, fd.fp)
		inner, err := en.readInner(ctx, fd, sources, bs)
		if err != nil {
			bs.End()
			return nil, err
		}
		g.jt = buildJoinTable(inner, fd.joins, fd.band)
		bs.AddRows(int64(len(inner)), 0)
		bs.SetInt("buckets", int64(len(g.jt.buckets)))
		bs.End()
		g.sp = sp.Child("join:hash-probe")
		if lead != nil {
			g.sp.SetAttr("table", lead.s.alias)
			lead.label(g.sp)
		}
		fd.band.label(g.sp)
	case stratIndex:
		g.kind, g.ix = stageIndex, s.base.IndexOn(fd.joins[0].newPos)
		g.sp = sp.Child("join:index")
		g.sp.SetAttr("table", s.alias)
		if len(fd.singles) > 0 {
			g.filter, err = en.compileExpr(andAll(fd.singles), layoutFor(s.alias, s.schema))
		}
	default:
		g.kind = stageNested
		g.sp = sp.Child("join:nested-loop")
		g.sp.SetAttr("table", s.alias)
		g.inner, err = en.readInner(ctx, fd, sources, g.sp)
	}
	return g, err
}

// readInner reads fold fd's source under its single-table conjuncts
// into rows kept for the probes (a hash build side, a nested-loop
// inner), traced on sp. Row-path rows are borrowed and kept as they
// are; rows cloned out of a batch count as copied join rows.
func (en *Engine) readInner(ctx context.Context, fd *fold, sources []*source, sp *obs.Span) ([]relstore.Row, error) {
	rd, err := en.compileRead(fd.s, fd.singles, sources)
	if err != nil {
		return nil, err
	}
	rd.label(sp)
	parts, err := readParts(ctx, rd, false, true, sp, &pipeline{ctx: ctx, tail: tailCollect, clone: rd.batch != nil})
	if err != nil {
		return nil, err
	}
	return en.collected(parts), nil
}

// tailKind is where a pipeline's last stage sends its rows.
type tailKind uint8

const (
	tailConsume tailKind = iota // the statement's consumer
	tailCollect                 // kept rows: a build side, a nested-loop inner, a build-outer fold's outer input
	tailMatch                   // a build-outer fold's probe: each row's outer matches
)

// pipeline is one segment's run of probe stages from its source — a
// read drained by readParts, or a build-outer fold's output — to its
// tail.
type pipeline struct {
	ctx    context.Context
	stages []*stage
	tail   tailKind
	c      *consumer   // tailConsume
	clone  bool        // tailCollect, tailMatch: arriving rows are scratch, so copy what is kept
	outer  *outerTable // tailMatch
}

// pipePart is one part of a pipeline's run: a fanned-out read fills
// one per morsel, a serial one a single part, and the parts
// concatenated in order reproduce the serial run. Each part owns its
// stage buffers, its cancellation probe and its tail.
type pipePart struct {
	pl   *pipeline
	st   []stagePart
	cc   *cancelProbe
	read int64 // rows put into the pipeline

	out     outPart          // tailConsume
	rows    []relstore.Row   // tailCollect
	matches [][]relstore.Row // tailMatch: per outer row, the inner rows joining it, in read order
	sc      probeScratch     // tailMatch
	probed  int64            // tailMatch: rows with a full join key
	copied  int64            // rows cloned to be kept
}

// stagePart is one part's state of a stage: the buffer it builds its
// combined rows in, its key scratch, and its row counts (a hash stage
// counts in only rows with a full join key).
type stagePart struct {
	buf     relstore.Row
	sc      probeScratch
	in, out int64
}

// open starts part p.
func (pl *pipeline) open(p *pipePart) {
	*p = pipePart{pl: pl, st: make([]stagePart, len(pl.stages)), cc: newCancelProbe(pl.ctx)}
	if pl.tail == tailConsume {
		p.out = pl.c.open()
	}
}

// put takes one row into the pipeline. The row is valid only during
// the call: whatever keeps it copies it.
func (p *pipePart) put(row relstore.Row) error {
	p.read++
	return p.push(0, row)
}

// push runs stage i on row and sends each combined row on to stage
// i+1; past the last stage, row reaches the tail.
func (p *pipePart) push(i int, row relstore.Row) error {
	if i == len(p.st) {
		return p.end(row)
	}
	g, ps := p.pl.stages[i], &p.st[i]
	switch g.kind {
	case stageHash:
		matches, probed, err := g.jt.lookup(row, g.joins, &ps.sc)
		if !probed || err != nil {
			return err
		}
		ps.in++
		for _, m := range matches {
			if err := p.emit(i, row, m); err != nil {
				return err
			}
		}
	case stageIndex:
		ps.in++
		// Join keys share a key class, so the probe value needs no
		// conversion: the index compares INT and DATE payloads exactly.
		key := row[g.joins[0].boundPos]
		if key.IsNull() {
			return nil
		}
	lookup:
		for _, rid := range g.ix.Lookup([]relstore.Value{key}) {
			m, live, err := g.ix.Table.GetBorrow(rid)
			if err != nil {
				return err
			}
			if !live {
				continue
			}
			for _, j := range g.joins[1:] {
				if m[j.newPos].IsNull() || compareValues(row[j.boundPos], m[j.newPos]) != 0 {
					continue lookup
				}
			}
			if ok, err := g.filter.holds(m); !ok {
				if err != nil {
					return err
				}
				continue
			}
			if err := p.emit(i, row, m); err != nil {
				return err
			}
		}
	case stageNested:
		ps.in++
		for _, m := range g.inner {
			if p.cc.tick() {
				return p.cc.err()
			}
			if err := p.emit(i, row, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit sends outer row o joined with inner row m from stage i on,
// combined in the stage's reused buffer.
func (p *pipePart) emit(i int, o, m relstore.Row) error {
	ps := &p.st[i]
	ps.buf = append(append(ps.buf[:0], o...), m...)
	ps.out++
	return p.push(i+1, ps.buf)
}

// end hands a row that passed every stage to the tail.
func (p *pipePart) end(row relstore.Row) error {
	switch p.pl.tail {
	case tailConsume:
		return p.out.put(row)
	case tailCollect:
		if p.pl.clone {
			row = row.Clone()
			p.copied++
		}
		p.rows = append(p.rows, row)
		return nil
	}
	ot := p.pl.outer
	if !p.sc.encode(row, ot.joins, false) {
		return nil
	}
	p.probed++
	ois := ot.idx[string(p.sc.enc)]
	if len(ois) == 0 {
		return nil
	}
	// A matching inner row is kept (cloned once when it is scratch)
	// until the fold emits its matches.
	if p.pl.clone {
		row = row.Clone()
		p.copied++
	}
	if p.matches == nil {
		p.matches = make([][]relstore.Row, ot.n)
	}
	for _, oi := range ois {
		p.matches[oi] = append(p.matches[oi], row)
	}
	return nil
}

// outerTable is a build-outer fold's hash table: the positions of the
// outer rows keyed by encoded join key.
type outerTable struct {
	idx   map[string][]int
	n     int // outer rows
	joins []equiJoin
}

// hashJoinBuildOuter runs build-outer fold fd, the pipeline's one
// breaker: the planner picks it when the outer input, collected by the
// segment before it, is the smaller estimate, so the hash table is
// built over the outer rows and the inner read streams through it — a
// 17-row outer never pays for hashing a million-row inner. Matches are
// emitted outer-major into pl, inner rows in read order within each
// outer row, so the output order is byte-identical to a build-inner
// fold's. It returns pl's one part.
func (en *Engine) hashJoinBuildOuter(ctx context.Context, outer []relstore.Row, fd *fold, sources []*source, pl *pipeline, sp *obs.Span) ([]pipePart, error) {
	s := fd.s
	bs := sp.Child("join:hash-build")
	bs.SetAttr("table", s.alias)
	bs.SetAttr("side", "outer")
	setFoldEst(bs, fd.fp)
	// Rows with a NULL key component can never match, so they are left
	// out.
	ot := &outerTable{idx: make(map[string][]int, len(outer)), n: len(outer), joins: fd.joins}
	var sc probeScratch
	for i, o := range outer {
		if sc.encode(o, fd.joins, true) {
			ot.idx[string(sc.enc)] = append(ot.idx[string(sc.enc)], i)
		}
	}
	bs.AddRows(int64(len(outer)), 0)
	bs.SetInt("buckets", int64(len(ot.idx)))
	bs.End()

	rd, err := en.compileRead(s, fd.singles, sources)
	if err != nil {
		return nil, err
	}
	ps := sp.Child("join:hash-probe")
	defer ps.End()
	ps.SetAttr("table", s.alias)
	rd.label(ps)
	parts, err := readParts(ctx, rd, false, true, ps, &pipeline{ctx: ctx, tail: tailMatch, clone: rd.batch != nil, outer: ot})
	if err != nil {
		return nil, err
	}
	var probed, copied, emitted int64
	for i := range parts {
		probed += parts[i].probed
		copied += parts[i].copied
	}
	// Emit outer-major; within an outer row, parts in morsel order keep
	// the inner rows in read order.
	out := make([]pipePart, 1)
	fo := &out[0]
	pl.open(fo)
	var buf relstore.Row
	for i, o := range outer {
		for p := range parts {
			if parts[p].matches == nil {
				continue
			}
			for _, m := range parts[p].matches[i] {
				if fo.cc.tick() {
					return nil, fo.cc.err()
				}
				buf = append(append(buf[:0], o...), m...)
				emitted++
				if err := fo.put(buf); err != nil {
					return nil, err
				}
			}
		}
	}
	en.DB.AddJoinRows(probed, copied)
	ps.AddRows(probed, emitted)
	return out, nil
}
