package sqlengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/temporal"
)

// source abstracts base and virtual tables for scanning.
type source struct {
	alias   string
	schema  relstore.Schema
	base    *relstore.Table // nil for virtual
	virtual VirtualTable
	// needed marks the columns the statement reads from this source
	// (markNeeded); nil means all. Batch reads decode only these.
	needed []bool
	// workers is the read's morsel parallelism (Engine.Workers
	// resolved). access is zero unless a forced plan pins the read's
	// access path (forcedplan.go).
	workers int
	access  accessForce
}

// SnapshotBinder is implemented by virtual tables that can rebind
// themselves onto a pinned relstore snapshot (segment and BlockZIP
// stores). resolveSource uses it so a SELECT sees one consistent
// version of the backing tables AND the store's own metadata; a store
// whose tables the version predates fails to bind.
type SnapshotBinder interface {
	BindSnapshot(sn *relstore.Snapshot) (VirtualTable, error)
}

// SegmentRanger is implemented by virtual tables whose reads cover a
// contiguous range of temporal segments (segment and BlockZIP stores):
// SegmentRange reports the range [lo, hi] a read with these bounds
// covers and whether it is narrower than the whole table. EXPLAIN
// ANALYZE prints a narrowed range on the read's span.
type SegmentRanger interface {
	SegmentRange(bounds []relstore.ZoneBound) (lo, hi int64, narrowed bool)
}

// resolveSource binds a FROM reference to storage. With a snapshot the
// read runs against the pinned version only: base tables come from the
// snapshot (frozen copies), virtual tables that implement
// SnapshotBinder are rebound onto it, and a base table the version
// predates is "no such table". A nil snapshot (DML target resolution)
// reads the live tables.
func (en *Engine) resolveSource(ref TableRef, sn *relstore.Snapshot) (*source, error) {
	if vt, ok := en.lookupVirtual(ref.Table); ok {
		if sb, isBinder := vt.(SnapshotBinder); isBinder && sn != nil {
			var err error
			if vt, err = sb.BindSnapshot(sn); err != nil {
				return nil, err
			}
		}
		return &source{alias: ref.Alias, schema: vt.Schema(), virtual: vt}, nil
	}
	var tbl *relstore.Table
	var err error
	if sn != nil {
		tbl, err = sn.MustTable(ref.Table)
	} else {
		tbl, err = en.DB.MustTable(ref.Table)
	}
	if err != nil {
		return nil, err
	}
	return &source{alias: ref.Alias, schema: tbl.Schema(), base: tbl}, nil
}

// bindSources resolves a SELECT's FROM list against sn, rejecting a
// repeated alias.
func (en *Engine) bindSources(stmt *SelectStmt, sn *relstore.Snapshot) ([]*source, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	sources := make([]*source, len(stmt.From))
	seen := map[string]bool{}
	for i, ref := range stmt.From {
		s, err := en.resolveSource(ref, sn)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(ref.Alias)
		if seen[key] {
			return nil, fmt.Errorf("sql: duplicate alias %s", ref.Alias)
		}
		seen[key] = true
		s.workers = en.scanWorkers()
		sources[i] = s
	}
	return sources, nil
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		out = splitAnd(b.L, out)
		return splitAnd(b.R, out)
	}
	return append(out, e)
}

// exprAliases collects the table aliases referenced by an expression,
// resolving unqualified column names against the candidate sources.
func exprAliases(e Expr, sources []*source, out map[string]bool) error {
	var err error
	walkExpr(e, func(sub Expr) {
		ref, ok := sub.(*ColRef)
		switch {
		case !ok || err != nil:
		case ref.Qual != "":
			out[strings.ToLower(ref.Qual)] = true
		default:
			matches, owner := 0, ""
			for _, s := range sources {
				if s.schema.ColumnIndex(ref.Name) >= 0 {
					matches, owner = matches+1, s.alias
				}
			}
			if matches > 1 {
				err = fmt.Errorf("sql: ambiguous column %s", ref.Name)
			} else if matches == 1 {
				out[strings.ToLower(owner)] = true
			}
		}
	})
	return err
}

// colConstConjunct recognizes `col op const` (or reversed) against one
// source, returning the column position, normalized op and value.
func (en *Engine) colConstConjunct(e Expr, s *source, sources []*source) (col int, op string, v relstore.Value, ok bool) {
	b, isBin := e.(*BinaryExpr)
	if !isBin {
		return 0, "", relstore.Null, false
	}
	switch b.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return 0, "", relstore.Null, false
	}
	try := func(colSide, constSide Expr, op string) (int, string, relstore.Value, bool) {
		ref, isRef := colSide.(*ColRef)
		if !isRef {
			return 0, "", relstore.Null, false
		}
		n, found := resolveColRef(ref, sources)
		if !found || n.src != s {
			return 0, "", relstore.Null, false
		}
		cv, okc := en.constOf(constSide, sources)
		if !okc || cv.IsNull() {
			return 0, "", relstore.Null, false
		}
		return n.col, op, cv, true
	}
	if c, o, cv, okc := try(b.L, b.R, b.Op); okc {
		return c, o, cv, true
	}
	if c, o, cv, okc := try(b.R, b.L, flipOp[b.Op]); okc {
		return c, o, cv, true
	}
	return 0, "", relstore.Null, false
}

// scanPlan is the compiled single-table access plan: pushed-down zone
// bounds, an optional equality-index probe, the residual filter, and
// the cardinality estimates behind the choice. cands lists every
// usable eq-index probe, the ones a forced plan can pick.
type scanPlan struct {
	bounds  []relstore.ZoneBound
	eqVal   relstore.Value
	eqIndex *relstore.Index
	filter  evalFunc
	est     planEstimate
	cands   []eqCandidate
}

// planScan builds the access plan for one source: index selection,
// zone-bound pushdown, residual filter compilation. The eq-index probe
// is taken only when the cost model prefers it over the bounded scan,
// and the most selective candidate wins.
func (en *Engine) planScan(s *source, conjuncts []Expr, sources []*source) (*scanPlan, error) {
	layout := layoutFor(s.alias, s.schema)
	p := &scanPlan{}
	var cands []eqCandidate
	var conj conjunctStats
	for _, c := range conjuncts {
		col, op, v, ok := en.colConstConjunct(c, s, sources)
		if !ok {
			conj.opaque++
			continue
		}
		// Zone bound for INT/DATE columns.
		ct := s.schema.Columns[col].Type
		zv := v
		if ct == relstore.TypeDate && v.Kind == relstore.TypeString {
			if d, err := temporal.ParseDate(strings.TrimSpace(v.S)); err == nil {
				zv = relstore.DateV(d)
			}
		}
		if (ct == relstore.TypeInt || ct == relstore.TypeDate) &&
			(zv.Kind == relstore.TypeInt || zv.Kind == relstore.TypeDate) {
			p.bounds = append(p.bounds, relstore.ZoneBound{Col: col, Op: op, Bound: zv.I})
		}
		// Index equality candidate.
		if op == "=" {
			added := false
			if s.base != nil {
				if ix := s.base.IndexOn(col); ix != nil {
					cv, err := coerce(zv, ct)
					if err == nil {
						cands = append(cands, eqCandidate{col: col, val: cv, ix: ix})
						added = true
					}
				}
			}
			if !added {
				conj.eqUnindexed++
			}
		} else {
			conj.ranges++
		}
	}
	en.chooseAccess(s, p, cands, conj)
	p.cands = cands
	s.access.apply(p)

	// Compile the full residual predicate (reapplying pushed bounds is
	// harmless and keeps correctness independent of pruning).
	if len(conjuncts) > 0 {
		var err error
		if p.filter, err = en.compileExpr(andAll(conjuncts), layout); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// andAll joins conjuncts into one left-deep AND.
func andAll(conjuncts []Expr) Expr {
	pred := conjuncts[0]
	for _, c := range conjuncts[1:] {
		pred = &BinaryExpr{Op: "AND", L: pred, R: c}
	}
	return pred
}

// probeIndex runs the read's equality-index probe and streams each
// row surviving the residual filter into out. Probed rows ride the
// zero-copy path like morsels do: GetBorrow hands out rows aliasing
// immutable page-cache storage, so the probe loop allocates nothing per
// row. cc is the calling worker's cancellation probe.
func (rd *sourceRead) probeIndex(cc *cancelProbe, out *pipePart) error {
	p := rd.plan
	for _, rid := range p.eqIndex.Lookup([]relstore.Value{p.eqVal}) {
		if cc.tick() {
			return cc.err()
		}
		row, live, err := rd.s.base.GetBorrow(rid)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		if ok, err := p.filter.holds(row); !ok {
			if err != nil {
				return err
			}
			continue
		}
		if err := out.put(row); err != nil {
			return err
		}
	}
	return nil
}

// equiJoin is one `a.x = b.y` join key between the joined aliases and
// a new one.
type equiJoin struct {
	boundPos int // column position in the joined layout
	newPos   int // column position in the new source's schema
}

// equiJoinConds takes the join keys for folding s into the joined
// aliases out of conjuncts; rest holds every other conjunct.
func (en *Engine) equiJoinConds(conjuncts []Expr, joined *rowLayout, joinedAliases map[string]bool, s *source, sources []*source) ([]equiJoin, []Expr) {
	var joins []equiJoin
	var rest []Expr
	for _, c := range conjuncts {
		// ends[0] is the column of s, ends[1] the already-joined one.
		var ends [2]colNode
		ok := false
		if b, isBin := c.(*BinaryExpr); isBin && b.Op == "=" {
			lref, lok := b.L.(*ColRef)
			rref, rok := b.R.(*ColRef)
			if lok && rok {
				ends[0], lok = resolveColRef(lref, sources)
				ends[1], rok = resolveColRef(rref, sources)
				ok = lok && rok
			}
		}
		if ok && ends[1].src == s {
			ends[0], ends[1] = ends[1], ends[0]
		}
		// Hash on the key only when both columns are of one key class,
		// so key equality is compareValues equality (DESIGN.md §12).
		if !ok || ends[0].src != s || !joinedAliases[strings.ToLower(ends[1].src.alias)] ||
			keyClass(ends[0].typ()) != keyClass(ends[1].typ()) {
			rest = append(rest, c)
			continue
		}
		bp, err := joined.resolve(ends[1].src.alias, ends[1].src.schema.Columns[ends[1].col].Name)
		if err != nil {
			rest = append(rest, c)
			continue
		}
		joins = append(joins, equiJoin{boundPos: bp, newPos: ends[0].col})
	}
	return joins, rest
}

// foldConds splits the pending multi-source conjuncts for folding s
// into the joined aliases: the equi-join keys, and, when the planner
// chose a build-on-inner hash join, a band on s (bandConds). rest is
// what the joins leave for later folds or the final filter; a nested
// loop takes no keys, so all of pending is.
func (en *Engine) foldConds(pending []Expr, joined *rowLayout, joinedAliases map[string]bool, s *source, sources []*source, fp *foldPlan, f *planForce) ([]equiJoin, *joinBand, []Expr, error) {
	if fp.strategy == stratNested {
		return nil, nil, pending, nil
	}
	joins, rest := en.equiJoinConds(pending, joined, joinedAliases, s, sources)
	if fp.strategy != stratHashBuildInner || len(joins) == 0 || f.noBand {
		return joins, nil, rest, nil
	}
	band, rest, err := en.bandConds(rest, joined, joinedAliases, s, sources)
	return joins, band, rest, err
}

// keyClass is the key class of a kind: INT and DATE share one, since
// compareValues compares their payloads; every other kind is its own.
// Two values of one class have equal keys exactly when compareValues
// finds them equal (DESIGN.md §12).
func keyClass(t relstore.Type) relstore.Type {
	if t == relstore.TypeDate {
		return relstore.TypeInt
	}
	return t
}

// appendKey appends a self-delimiting, collision-proof encoding of
// vals to dst — the shared scratch-buffer key builder for hash joins,
// GROUP BY and DISTINCT. Every value starts with its key-class tag and
// carries a fixed-width payload (floats, bools), a varint (ints,
// dates) or a uvarint length prefix (text, blobs), so two value lists
// share an encoding only when compareValues finds them equal, value by
// value, within a key class. The previous terminator-based
// scheme collided whenever a payload embedded the terminator:
// ("a\x00\x03b","c") and ("a","b\x00\x03c") encoded identically.
func appendKey(dst []byte, vals []relstore.Value) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vals {
		dst = append(dst, byte(keyClass(v.Kind)))
		switch v.Kind {
		case relstore.TypeNull:
			// The kind tag alone identifies NULL.
		case relstore.TypeInt, relstore.TypeDate:
			n := binary.PutVarint(tmp[:], v.I)
			dst = append(dst, tmp[:n]...)
		case relstore.TypeFloat:
			f := v.F
			switch {
			case f == 0:
				f = 0 // -0 compares equal to 0, so it keys as 0
			case math.IsNaN(f):
				f = math.NaN() // every NaN compares equal: one canonical key
			}
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(f))
			dst = append(dst, tmp[:8]...)
		case relstore.TypeBool:
			if v.Truth {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case relstore.TypeBytes:
			n := binary.PutUvarint(tmp[:], uint64(len(v.B)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, v.B...)
		default:
			s := v.Text()
			n := binary.PutUvarint(tmp[:], uint64(len(s)))
			dst = append(dst, tmp[:n]...)
			dst = append(dst, s...)
		}
	}
	return dst
}

// execSelect runs a SELECT under the alternatives f pins
// (forcedplan.go); every production path passes planned.
func (en *Engine) execSelect(ctx context.Context, stmt *SelectStmt, sp *obs.Span, sn *relstore.Snapshot, f *planForce) (*Result, error) {
	if sn != nil {
		sp.SetInt("snapshot_lsn", int64(sn.LSN()))
	}
	sources, err := en.bindSources(stmt, sn)
	if err != nil {
		return nil, err
	}
	f.bind(sources)

	perAlias := map[string][]Expr{}
	split, err := en.splitConjuncts(ctx, stmt, sources, perAlias, f)
	if err != nil {
		return nil, err
	}
	// Batch reads decode only the columns the statement touches.
	en.markNeeded(stmt, split.all, sources)

	// Plan the folds (sources reordered greedily by estimated
	// cardinality, an estimate-driven strategy per fold) and compile the
	// consumer the last pipeline streams into: what the folds leave is
	// its residual filter.
	first, folds, residual, layout, err := en.planFolds(sources, perAlias, split.multi, f)
	if err != nil {
		return nil, err
	}
	c, err := en.compileConsumer(stmt, residual, layout, sources)
	if err != nil {
		return nil, err
	}
	parts, err := en.runFolds(ctx, first, perAlias[strings.ToLower(first.alias)], folds, sources, c, sp)
	if err != nil {
		return nil, err
	}
	return en.finish(c, parts, sp)
}

// ---- projection, grouping, ordering ----

// hasAggregate walks an expression for aggregate calls.
func (en *Engine) hasAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(sub Expr) {
		if fc, ok := sub.(*FuncCall); ok {
			if _, isAgg := en.aggFuncs[fc.Name]; isAgg {
				found = true
			}
		}
	})
	return found
}

func walkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *BinaryExpr:
		walkExpr(x.L, visit)
		walkExpr(x.R, visit)
	case *UnaryExpr:
		walkExpr(x.X, visit)
	case *IsNullExpr:
		walkExpr(x.X, visit)
	case *InExpr:
		walkExpr(x.X, visit)
		for _, it := range x.List {
			walkExpr(it, visit)
		}
	case *BetweenExpr:
		walkExpr(x.X, visit)
		walkExpr(x.Lo, visit)
		walkExpr(x.Hi, visit)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, visit)
		}
	case *XMLElementExpr:
		for _, a := range x.Attrs {
			walkExpr(a.Expr, visit)
		}
		for _, c := range x.Children {
			walkExpr(c, visit)
		}
	case *XMLForestExpr:
		for _, a := range x.Items {
			walkExpr(a.Expr, visit)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			walkExpr(w.Cond, visit)
			walkExpr(w.Result, visit)
		}
		walkExpr(x.Else, visit)
	}
}

// isGrouped reports whether the statement runs through the grouping
// pipeline (explicit GROUP BY or aggregates in SELECT/HAVING).
func (en *Engine) isGrouped(stmt *SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	for _, it := range stmt.Select {
		if it.Expr != nil && en.hasAggregate(it.Expr) {
			return true
		}
	}
	return stmt.Having != nil && en.hasAggregate(stmt.Having)
}

// consumer is a SELECT's last step, compiled before the read or join
// fold that feeds it: the residual filter of the last fold, then the
// group accumulator (aggregates) or the projection, which evaluates the
// select items and ORDER BY keys into output rows; finish applies
// DISTINCT, ORDER BY and LIMIT once the drain is done. Rows stream in
// with no []Row in between. A row handed to a part is valid only
// during the call — it may be borrowed storage, batch scratch or a
// join fold's reused buffer — so the consumer copies what it keeps
// (DESIGN.md §8.2).
type consumer struct {
	stmt   *SelectStmt
	filter evalFunc   // residual conjuncts, nil when none
	gplan  *groupPlan // aggregate shape; nil projects
	// serial: an aggregate cannot merge partial results, so the rows
	// go to one part.
	serial   bool
	cols     []string
	evals    []evalFunc
	orderFns []evalFunc
}

// outPart is one part of a consumer's input. A fanned-out read or
// probe fills one per morsel and finish combines them in morsel order:
// accumulators merge, projected rows concatenate, so the result is the
// same at any worker count.
type outPart struct {
	c    *consumer
	acc  *groupAcc
	outs []outRow
	in   int64 // rows offered
	kept int64 // rows past the residual filter
}

// outRow is one output row with its ORDER BY keys.
type outRow struct {
	vals relstore.Row
	keys relstore.Row
}

// compileConsumer compiles the consumer of stmt over rows of layout,
// with the residual conjuncts as its filter.
func (en *Engine) compileConsumer(stmt *SelectStmt, residual []Expr, layout *rowLayout, sources []*source) (*consumer, error) {
	c := &consumer{stmt: stmt}
	var err error
	if len(residual) > 0 {
		if c.filter, err = en.compileExpr(andAll(residual), layout); err != nil {
			return nil, err
		}
	}
	if en.isGrouped(stmt) {
		c.gplan, err = en.compileGrouping(stmt, layout)
		c.serial = !en.mergeableAggs(stmt)
		return c, err
	}
	for _, it := range stmt.Select {
		if it.Star {
			// Expand in FROM order (sources), not physical layout
			// order: join reordering permutes the layout, but SELECT *
			// must keep the declared column order either way.
			for _, src := range sources {
				if it.Qual != "" && !strings.EqualFold(src.alias, it.Qual) {
					continue
				}
				for _, col := range src.schema.Columns {
					pos, err := layout.resolve(src.alias, col.Name)
					if err != nil {
						return nil, err
					}
					c.cols = append(c.cols, col.Name)
					c.evals = append(c.evals, func(row relstore.Row) (relstore.Value, error) { return row[pos], nil })
				}
			}
			continue
		}
		fn, err := en.compileExpr(it.Expr, layout)
		if err != nil {
			return nil, err
		}
		c.evals = append(c.evals, fn)
		c.cols = append(c.cols, selectItemName(it, len(c.cols)))
	}
	for _, o := range stmt.OrderBy {
		fn, err := en.compileExpr(o.Expr, layout)
		if err != nil {
			return nil, err
		}
		c.orderFns = append(c.orderFns, fn)
	}
	return c, nil
}

// open starts a part.
func (c *consumer) open() outPart {
	p := outPart{c: c}
	if c.gplan != nil {
		p.acc = c.gplan.newAcc()
	}
	return p
}

// put takes one row: the residual filter, then the accumulator or the
// projection. The row is valid only during the call.
func (p *outPart) put(row relstore.Row) error {
	p.in++
	c := p.c
	if ok, err := c.filter.holds(row); !ok {
		return err
	}
	p.kept++
	if p.acc != nil {
		return p.acc.add(row)
	}
	o, err := evalOut(row, c.evals, c.orderFns)
	if err != nil {
		return err
	}
	p.outs = append(p.outs, o)
	return nil
}

// evalOut evaluates one output row and its ORDER BY keys into a single
// allocation.
func evalOut(r relstore.Row, evals, orderFns []evalFunc) (outRow, error) {
	n := len(evals)
	buf := make(relstore.Row, n+len(orderFns))
	for i, fn := range evals {
		v, err := fn(r)
		if err != nil {
			return outRow{}, err
		}
		buf[i] = v
	}
	for i, fn := range orderFns {
		v, err := fn(r)
		if err != nil {
			return outRow{}, err
		}
		buf[n+i] = v
	}
	return outRow{vals: buf[:n:n], keys: buf[n:]}, nil
}

// finish combines the parts in morsel order and renders the result.
// Under a residual filter a "filter" span counts the rows it kept. A
// grouped statement's accumulators merge under an "aggregate" span,
// which notes partials=N when a fanned-out drain filled N > 1 parts,
// and the groups go through HAVING; projected rows concatenate.
func (en *Engine) finish(c *consumer, parts []pipePart, sp *obs.Span) (*Result, error) {
	var in, kept int64
	for i := range parts {
		in += parts[i].out.in
		kept += parts[i].out.kept
	}
	if c.filter != nil {
		fs := sp.Child("filter")
		fs.AddRows(in, kept)
		fs.End()
	}
	if c.gplan != nil {
		acc := c.gplan.newAcc()
		if len(parts) == 1 {
			acc = parts[0].out.acc
		} else {
			for i := range parts {
				if err := acc.merge(parts[i].out.acc); err != nil {
					return nil, err
				}
			}
		}
		as := sp.Child("aggregate")
		if len(parts) > 1 {
			as.SetInt("partials", int64(len(parts)))
		}
		as.AddRows(kept, int64(len(acc.order)))
		as.End()
		return en.finalizeGroups(c.gplan, acc, sp)
	}
	ps := sp.Child("project")
	var outs []outRow
	if len(parts) == 1 {
		outs = parts[0].out.outs
	} else {
		outs = make([]outRow, 0, kept)
		for i := range parts {
			outs = append(outs, parts[i].out.outs...)
		}
	}
	res := render(c.stmt, c.cols, outs)
	ps.AddRows(kept, int64(len(res.Rows)))
	ps.End()
	return res, nil
}

// render applies DISTINCT, ORDER BY (a stable sort of row positions)
// and LIMIT to the output rows.
func render(stmt *SelectStmt, cols []string, outs []outRow) *Result {
	if stmt.Distinct {
		seen := map[string]bool{}
		var enc []byte
		kept := outs[:0]
		for _, o := range outs {
			enc = appendKey(enc[:0], o.vals)
			if seen[string(enc)] {
				continue
			}
			seen[string(enc)] = true
			kept = append(kept, o)
		}
		outs = kept
	}
	n := len(outs)
	if stmt.Limit >= 0 && stmt.Limit < n {
		n = stmt.Limit
	}
	res := &Result{Columns: cols}
	if n == 0 {
		return res
	}
	res.Rows = make([]relstore.Row, n)
	if len(stmt.OrderBy) == 0 {
		for i := range res.Rows {
			res.Rows[i] = outs[i].vals
		}
		return res
	}
	perm := make([]int32, len(outs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(i, j int32) int {
		for k, o := range stmt.OrderBy {
			if c := compareValues(outs[i].keys[k], outs[j].keys[k]); c != 0 {
				if o.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	for i := range res.Rows {
		res.Rows[i] = outs[perm[i]].vals
	}
	return res
}

func selectItemName(it SelectItem, ordinal int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*ColRef); ok {
		return ref.Name
	}
	if el, ok := it.Expr.(*XMLElementExpr); ok {
		return el.Tag
	}
	if fc, ok := it.Expr.(*FuncCall); ok {
		return strings.ToLower(fc.Name)
	}
	return fmt.Sprintf("col%d", ordinal+1)
}

// aggBinding couples one aggregate call with its compiled argument
// evaluators and a slot in the group layout.
type aggBinding struct {
	call *FuncCall
	args []evalFunc
	mk   AggFunc
	slot int
}

// groupPlan is a compiled grouping pipeline: key evaluators,
// aggregate bindings and the group-row layout. It is immutable after
// compilation and safe to share across goroutines; per-scan state
// lives in groupAcc.
type groupPlan struct {
	stmt        *SelectStmt
	aggs        []aggBinding
	aggSlot     map[*FuncCall]int
	keyFns      []evalFunc
	groupLayout *rowLayout
}

// compileGrouping builds the grouping plan for an aggregate query:
// aggregate calls collected from SELECT, HAVING and ORDER BY, group
// keys compiled, and the group layout laid out as key columns (named
// when they are plain ColRefs) followed by aggregate slots.
func (en *Engine) compileGrouping(stmt *SelectStmt, layout *rowLayout) (*groupPlan, error) {
	p := &groupPlan{stmt: stmt, aggSlot: map[*FuncCall]int{}}
	collect := func(e Expr) error {
		var walkErr error
		walkExpr(e, func(sub Expr) {
			fc, ok := sub.(*FuncCall)
			if !ok {
				return
			}
			mk, isAgg := en.aggFuncs[fc.Name]
			if !isAgg {
				return
			}
			if _, done := p.aggSlot[fc]; done {
				return
			}
			args := make([]evalFunc, len(fc.Args))
			for i, a := range fc.Args {
				fn, err := en.compileExpr(a, layout)
				if err != nil {
					walkErr = err
					return
				}
				args[i] = fn
			}
			slot := len(stmt.GroupBy) + len(p.aggs)
			p.aggSlot[fc] = slot
			p.aggs = append(p.aggs, aggBinding{call: fc, args: args, mk: mk, slot: slot})
		})
		return walkErr
	}
	for _, it := range stmt.Select {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with aggregates")
		}
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if stmt.Having != nil {
		if err := collect(stmt.Having); err != nil {
			return nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		if err := collect(o.Expr); err != nil {
			return nil, err
		}
	}

	p.keyFns = make([]evalFunc, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		fn, err := en.compileExpr(g, layout)
		if err != nil {
			return nil, err
		}
		p.keyFns[i] = fn
	}

	p.groupLayout = &rowLayout{}
	for i, g := range stmt.GroupBy {
		if ref, ok := g.(*ColRef); ok {
			p.groupLayout.cols = append(p.groupLayout.cols, colBinding{qual: ref.Qual, name: ref.Name})
		} else {
			p.groupLayout.cols = append(p.groupLayout.cols, colBinding{name: fmt.Sprintf("#g%d", i)})
		}
	}
	for i := range p.aggs {
		p.groupLayout.cols = append(p.groupLayout.cols, colBinding{name: fmt.Sprintf("#agg%d", i)})
	}
	return p, nil
}

// mergeableAggs reports whether every aggregate stmt calls supports
// partial-result merging — the precondition for a fanned-out drain.
func (en *Engine) mergeableAggs(stmt *SelectStmt) bool {
	ok := true
	check := func(e Expr) {
		walkExpr(e, func(sub Expr) {
			if fc, isCall := sub.(*FuncCall); isCall {
				if mk, isAgg := en.aggFuncs[fc.Name]; isAgg {
					if _, m := mk().(MergeableAggState); !m {
						ok = false
					}
				}
			}
		})
	}
	for _, it := range stmt.Select {
		check(it.Expr)
	}
	check(stmt.Having)
	for _, o := range stmt.OrderBy {
		check(o.Expr)
	}
	return ok
}

type group struct {
	keys   relstore.Row
	states []AggState
}

// groupAcc is one accumulation of rows into insertion-ordered groups.
// The parallel executor runs one groupAcc per morsel and merges them
// in morsel order, which reproduces the serial first-seen group order
// and the serial per-group Add order exactly.
type groupAcc struct {
	p      *groupPlan
	groups map[string]*group
	order  []string
	// Per-row scratch, reused across add calls so the grouped hot path
	// allocates nothing per row once every group exists. single caches
	// the lone group of an ungrouped aggregate (no key evaluation, no
	// map lookup per row).
	single *group
	keyBuf relstore.Row
	keyEnc []byte
	argBuf []relstore.Value
}

func (p *groupPlan) newAcc() *groupAcc {
	return &groupAcc{p: p, groups: map[string]*group{}}
}

func (a *groupAcc) newGroup(keys relstore.Row) *group {
	g := &group{keys: keys, states: make([]AggState, len(a.p.aggs))}
	for i, ab := range a.p.aggs {
		g.states[i] = ab.mk()
	}
	return g
}

// add folds one input row into the accumulator.
func (a *groupAcc) add(r relstore.Row) error {
	var g *group
	if len(a.p.keyFns) == 0 {
		// Ungrouped aggregate: exactly one group, keyed "".
		if a.single == nil {
			if cached, ok := a.groups[""]; ok {
				a.single = cached
			} else {
				a.single = a.newGroup(relstore.Row{})
				a.groups[""] = a.single
				a.order = append(a.order, "")
			}
		}
		g = a.single
	} else {
		if a.keyBuf == nil {
			a.keyBuf = make(relstore.Row, len(a.p.keyFns))
		}
		for i, fn := range a.p.keyFns {
			v, err := fn(r)
			if err != nil {
				return err
			}
			a.keyBuf[i] = v
		}
		// Encode the key into a reused byte scratch; the map lookup via
		// string(keyEnc) does not allocate on a hit.
		a.keyEnc = appendKey(a.keyEnc[:0], a.keyBuf)
		var ok bool
		g, ok = a.groups[string(a.keyEnc)]
		if !ok {
			g = a.newGroup(a.keyBuf.Clone())
			k := string(a.keyEnc)
			a.groups[k] = g
			a.order = append(a.order, k)
		}
	}
	for i, ab := range a.p.aggs {
		if ab.call.Star {
			if err := g.states[i].Add(nil); err != nil {
				return err
			}
			continue
		}
		if cap(a.argBuf) < len(ab.args) {
			a.argBuf = make([]relstore.Value, len(ab.args))
		}
		argv := a.argBuf[:len(ab.args)]
		for j, fn := range ab.args {
			v, err := fn(r)
			if err != nil {
				return err
			}
			argv[j] = v
		}
		if err := g.states[i].Add(argv); err != nil {
			return err
		}
	}
	return nil
}

// merge folds b into a. b's groups are appended after a's in b's
// first-seen order, so merging per-morsel accumulators in morsel
// order preserves serial group order; b must not be used afterwards
// (its states are absorbed).
func (a *groupAcc) merge(b *groupAcc) error {
	for _, k := range b.order {
		bg := b.groups[k]
		ag, ok := a.groups[k]
		if !ok {
			a.groups[k] = bg
			a.order = append(a.order, k)
			continue
		}
		for i, st := range ag.states {
			m, ok := st.(MergeableAggState)
			if !ok {
				return fmt.Errorf("sql: aggregate %s cannot merge partial results", a.p.aggs[i].call.Name)
			}
			if err := m.Merge(bg.states[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalizeGroups renders accumulated groups through HAVING, the
// output expressions, ORDER BY and LIMIT.
func (en *Engine) finalizeGroups(p *groupPlan, acc *groupAcc, sp *obs.Span) (*Result, error) {
	ps := sp.Child("project")
	ps.SetAttr("grouped", "true")
	stmt := p.stmt
	groups, order := acc.groups, acc.order
	// Aggregate query with no GROUP BY over zero rows still yields one
	// group (COUNT(*) = 0).
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		g := &group{states: make([]AggState, len(p.aggs))}
		for i, ab := range p.aggs {
			g.states[i] = ab.mk()
		}
		groups[""] = g
		order = append(order, "")
	}

	// Rewrite output expressions against the group layout.
	rewrite := func(e Expr) Expr { return rewriteAggs(e, p.aggSlot, stmt.GroupBy, p.groupLayout) }

	var evals []evalFunc
	var cols []string
	for _, it := range stmt.Select {
		fn, err := en.compileExpr(rewrite(it.Expr), p.groupLayout)
		if err != nil {
			return nil, err
		}
		evals = append(evals, fn)
		cols = append(cols, selectItemName(it, len(cols)))
	}
	var havingFn evalFunc
	if stmt.Having != nil {
		var err error
		if havingFn, err = en.compileExpr(rewrite(stmt.Having), p.groupLayout); err != nil {
			return nil, err
		}
	}
	orderFns := make([]evalFunc, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		fn, err := en.compileExpr(rewrite(o.Expr), p.groupLayout)
		if err != nil {
			return nil, err
		}
		orderFns[i] = fn
	}

	var outs []outRow
	groupRow := make(relstore.Row, len(p.groupLayout.cols))
	for _, k := range order {
		g := groups[k]
		copy(groupRow, g.keys)
		for i, st := range g.states {
			groupRow[len(stmt.GroupBy)+i] = st.Result()
		}
		if ok, err := havingFn.holds(groupRow); !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		o, err := evalOut(groupRow, evals, orderFns)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	res := render(stmt, cols, outs)
	ps.AddRows(int64(len(order)), int64(len(res.Rows)))
	ps.End()
	return res, nil
}

// rewriteAggs replaces aggregate calls with references to their slots
// and group-by expressions with references to their key columns.
func rewriteAggs(e Expr, aggSlot map[*FuncCall]int, groupBy []Expr, groupLayout *rowLayout) Expr {
	if e == nil {
		return nil
	}
	if fc, ok := e.(*FuncCall); ok {
		if slot, isAgg := aggSlot[fc]; isAgg {
			return &ColRef{Name: groupLayout.cols[slot].name, Qual: groupLayout.cols[slot].qual}
		}
	}
	// Group-by key match (structural for ColRefs).
	if ref, ok := e.(*ColRef); ok {
		for i, g := range groupBy {
			if gref, ok := g.(*ColRef); ok &&
				strings.EqualFold(gref.Name, ref.Name) &&
				(ref.Qual == "" || strings.EqualFold(gref.Qual, ref.Qual)) {
				return &ColRef{Qual: groupLayout.cols[i].qual, Name: groupLayout.cols[i].name}
			}
		}
		return ref
	}
	switch x := e.(type) {
	case *Literal:
		return x
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op,
			L: rewriteAggs(x.L, aggSlot, groupBy, groupLayout),
			R: rewriteAggs(x.R, aggSlot, groupBy, groupLayout)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: rewriteAggs(x.X, aggSlot, groupBy, groupLayout)}
	case *IsNullExpr:
		return &IsNullExpr{X: rewriteAggs(x.X, aggSlot, groupBy, groupLayout), Negate: x.Negate}
	case *InExpr:
		out := &InExpr{X: rewriteAggs(x.X, aggSlot, groupBy, groupLayout), Negate: x.Negate}
		for _, it := range x.List {
			out.List = append(out.List, rewriteAggs(it, aggSlot, groupBy, groupLayout))
		}
		return out
	case *BetweenExpr:
		return &BetweenExpr{
			X:  rewriteAggs(x.X, aggSlot, groupBy, groupLayout),
			Lo: rewriteAggs(x.Lo, aggSlot, groupBy, groupLayout),
			Hi: rewriteAggs(x.Hi, aggSlot, groupBy, groupLayout)}
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, rewriteAggs(a, aggSlot, groupBy, groupLayout))
		}
		return out
	case *XMLElementExpr:
		out := &XMLElementExpr{Tag: x.Tag}
		for _, a := range x.Attrs {
			out.Attrs = append(out.Attrs, XMLAttr{Expr: rewriteAggs(a.Expr, aggSlot, groupBy, groupLayout), Name: a.Name})
		}
		for _, c := range x.Children {
			out.Children = append(out.Children, rewriteAggs(c, aggSlot, groupBy, groupLayout))
		}
		return out
	case *XMLForestExpr:
		out := &XMLForestExpr{}
		for _, a := range x.Items {
			out.Items = append(out.Items, XMLAttr{Expr: rewriteAggs(a.Expr, aggSlot, groupBy, groupLayout), Name: a.Name})
		}
		return out
	case *CaseExpr:
		out := &CaseExpr{Else: rewriteAggs(x.Else, aggSlot, groupBy, groupLayout)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, CaseWhen{
				Cond:   rewriteAggs(w.Cond, aggSlot, groupBy, groupLayout),
				Result: rewriteAggs(w.Result, aggSlot, groupBy, groupLayout)})
		}
		return out
	}
	return e
}
