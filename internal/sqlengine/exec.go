package sqlengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/temporal"
)

// indexJoinThreshold: below this many outer rows, an index
// nested-loop join beats building a hash table over the (possibly
// huge) inner table — the Q1/Q3 "single object" shape.
const indexJoinThreshold = 4096

// source abstracts base and virtual tables for scanning.
type source struct {
	alias   string
	schema  relstore.Schema
	base    *relstore.Table // nil for virtual
	virtual VirtualTable
	// needed marks the columns the statement reads from this source
	// (markNeeded); nil means all. Batch reads decode only these.
	needed []bool
}

func (s *source) scan(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	if s.base != nil {
		return s.base.Scan(bounds, func(_ relstore.RID, row relstore.Row) bool { return fn(row) })
	}
	return s.virtual.Scan(bounds, fn)
}

// scanBorrow is scan on the zero-copy path: rows may alias shared
// immutable storage and must be treated as read-only (virtual tables
// already hand out borrowed rows; see VirtualTable).
func (s *source) scanBorrow(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	if s.base != nil {
		return s.base.ScanBorrow(bounds, func(_ relstore.RID, row relstore.Row) bool { return fn(row) })
	}
	return s.virtual.Scan(bounds, fn)
}

// morselSource returns the storage behind s as a morsel provider, if
// it supports one (base tables always do; virtual tables opt in).
func (s *source) morselSource() (relstore.MorselSource, bool) {
	if s.base != nil {
		return s.base, true
	}
	ms, ok := s.virtual.(relstore.MorselSource)
	return ms, ok
}

// SnapshotBinder is implemented by virtual tables that can rebind
// themselves onto a pinned relstore snapshot (segment and BlockZIP
// stores). resolveSource uses it so a SELECT sees one consistent
// version of the backing tables AND the store's own metadata.
type SnapshotBinder interface {
	BindSnapshot(sn *relstore.Snapshot) VirtualTable
}

// resolveSource binds a FROM reference to storage. With a snapshot the
// read runs against the pinned version: base tables come from the
// snapshot (frozen copies), and virtual tables that implement
// SnapshotBinder are rebound onto it. A nil snapshot (DML target
// resolution, legacy callers) reads the live tables.
func (en *Engine) resolveSource(ref TableRef, sn *relstore.Snapshot) (*source, error) {
	if vt, ok := en.lookupVirtual(ref.Table); ok {
		if sn != nil {
			if sb, ok := vt.(SnapshotBinder); ok {
				vt = sb.BindSnapshot(sn)
			}
		}
		return &source{alias: ref.Alias, schema: vt.Schema(), virtual: vt}, nil
	}
	if sn != nil {
		if tbl, ok := sn.Table(ref.Table); ok {
			return &source{alias: ref.Alias, schema: tbl.Schema(), base: tbl}, nil
		}
	}
	tbl, err := en.DB.MustTable(ref.Table)
	if err != nil {
		return nil, err
	}
	return &source{alias: ref.Alias, schema: tbl.Schema(), base: tbl}, nil
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
	switch x := e.(type) {
	case nil, *Literal:
	case *ColRef:
		if x.Qual != "" {
			out[strings.ToLower(x.Qual)] = true
			return nil
		}
		matches := 0
		var owner string
		for _, s := range sources {
			if s.schema.ColumnIndex(x.Name) >= 0 {
				matches++
				owner = s.alias
			}
		}
		if matches > 1 {
			return fmt.Errorf("sql: ambiguous column %s", x.Name)
		}
		if matches == 1 {
			out[strings.ToLower(owner)] = true
		}
	case *BinaryExpr:
		if err := exprAliases(x.L, sources, out); err != nil {
			return err
		}
		return exprAliases(x.R, sources, out)
	case *UnaryExpr:
		return exprAliases(x.X, sources, out)
	case *IsNullExpr:
		return exprAliases(x.X, sources, out)
	case *InExpr:
		if err := exprAliases(x.X, sources, out); err != nil {
			return err
		}
		for _, it := range x.List {
			if err := exprAliases(it, sources, out); err != nil {
				return err
			}
		}
	case *BetweenExpr:
		for _, sub := range []Expr{x.X, x.Lo, x.Hi} {
			if err := exprAliases(sub, sources, out); err != nil {
				return err
			}
		}
	case *FuncCall:
		for _, a := range x.Args {
			if err := exprAliases(a, sources, out); err != nil {
				return err
			}
		}
	case *XMLElementExpr:
		for _, a := range x.Attrs {
			if err := exprAliases(a.Expr, sources, out); err != nil {
				return err
			}
		}
		for _, c := range x.Children {
			if err := exprAliases(c, sources, out); err != nil {
				return err
			}
		}
	case *XMLForestExpr:
		for _, a := range x.Items {
			if err := exprAliases(a.Expr, sources, out); err != nil {
				return err
			}
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			if err := exprAliases(w.Cond, sources, out); err != nil {
				return err
			}
			if err := exprAliases(w.Result, sources, out); err != nil {
				return err
			}
		}
		if x.Else != nil {
			return exprAliases(x.Else, sources, out)
		}
	}
	return nil
}

// constValue evaluates an expression with no column references.
func (en *Engine) constValue(e Expr) (relstore.Value, bool) {
	fn, err := en.compileExpr(e, &rowLayout{})
	if err != nil {
		return relstore.Null, false
	}
	v, err := fn(nil)
	if err != nil {
		return relstore.Null, false
	}
	return v, true
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
		if ref.Qual != "" && !strings.EqualFold(ref.Qual, s.alias) {
			return 0, "", relstore.Null, false
		}
		if ref.Qual == "" {
			// Must resolve uniquely to this source.
			owners := map[string]bool{}
			if err := exprAliases(ref, sources, owners); err != nil || len(owners) != 1 || !owners[strings.ToLower(s.alias)] {
				return 0, "", relstore.Null, false
			}
		}
		pos := s.schema.ColumnIndex(ref.Name)
		if pos < 0 {
			return 0, "", relstore.Null, false
		}
		cv, okc := en.constOf(constSide, sources)
		if !okc || cv.IsNull() {
			return 0, "", relstore.Null, false
		}
		return pos, op, cv, true
	}
	if c, o, cv, okc := try(b.L, b.R, b.Op); okc {
		return c, o, cv, true
	}
	flip := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
	if c, o, cv, okc := try(b.R, b.L, flip[b.Op]); okc {
		return c, o, cv, true
	}
	return 0, "", relstore.Null, false
}

// scanPlan is the compiled single-table access plan: pushed-down zone
// bounds, an optional equality-index probe, the residual filter, and
// (planner on) the cardinality estimates behind the choice.
type scanPlan struct {
	bounds  []relstore.ZoneBound
	eqVal   relstore.Value
	eqIndex *relstore.Index
	filter  evalFunc
	est     planEstimate
}

// planScan builds the access plan for one source: index selection,
// zone-bound pushdown, residual filter compilation. With the planner
// on, the eq-index probe is taken only when the cost model prefers it
// over the bounded scan and the most selective candidate wins; with
// the planner off, the first eq conjunct with an index wins
// unconditionally (the legacy heuristic).
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
	if en.Planner {
		en.chooseAccess(s, p, cands, conj)
	} else if len(cands) > 0 {
		p.eqVal, p.eqIndex = cands[0].val, cands[0].ix
	}

	// Compile the full residual predicate (reapplying pushed bounds is
	// harmless and keeps correctness independent of pruning).
	if len(conjuncts) > 0 {
		var pred Expr = conjuncts[0]
		for _, c := range conjuncts[1:] {
			pred = &BinaryExpr{Op: "AND", L: pred, R: c}
		}
		var err error
		if p.filter, err = en.compileExpr(pred, layout); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runScanPlan drives a compiled plan (index probe or bounded borrow
// scan) and streams each row surviving the residual filter into emit.
// Rows are borrowed. The context is polled at row granularity so a
// cancelled query stops mid-scan.
func (en *Engine) runScanPlan(ctx context.Context, s *source, p *scanPlan, emit func(relstore.Row) error) error {
	cc := newCancelProbe(ctx)
	pass := func(row relstore.Row) error {
		if cc.tick() {
			return cc.err()
		}
		if p.filter != nil {
			v, err := p.filter(row)
			if err != nil {
				return err
			}
			if !v.AsBool() {
				return nil
			}
		}
		return emit(row)
	}

	if p.eqIndex != nil {
		// Probed rows ride the zero-copy path like scans do: GetBorrow
		// hands out rows aliasing immutable page-cache storage, so the
		// probe loop allocates nothing per row.
		for _, rid := range p.eqIndex.Lookup([]relstore.Value{p.eqVal}) {
			row, live, err := s.base.GetBorrow(rid)
			if err != nil {
				return err
			}
			if !live {
				continue
			}
			if err := pass(row); err != nil {
				return err
			}
		}
		return nil
	}

	var scanErr error
	err := s.scanBorrow(p.bounds, func(row relstore.Row) bool {
		if err := pass(row); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	return err
}

// equiJoinCond recognizes `a.x = b.y` between a bound alias set and a
// new alias.
type equiJoin struct {
	boundPos int // column position in the joined layout
	newPos   int // column position in the new source's schema
}

func (en *Engine) equiJoinConds(conjuncts []Expr, joined *rowLayout, joinedAliases map[string]bool, s *source, sources []*source) ([]equiJoin, []Expr) {
	var joins []equiJoin
	var rest []Expr
	for _, c := range conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			rest = append(rest, c)
			continue
		}
		lref, lok := b.L.(*ColRef)
		rref, rok := b.R.(*ColRef)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		side := func(ref *ColRef) (onNew bool, onBound bool) {
			if ref.Qual != "" {
				q := strings.ToLower(ref.Qual)
				return q == strings.ToLower(s.alias), joinedAliases[q]
			}
			owners := map[string]bool{}
			if err := exprAliases(ref, sources, owners); err != nil || len(owners) != 1 {
				return false, false
			}
			for o := range owners {
				return o == strings.ToLower(s.alias), joinedAliases[o]
			}
			return false, false
		}
		lNew, lBound := side(lref)
		rNew, rBound := side(rref)
		var newRef, boundRef *ColRef
		switch {
		case lNew && rBound:
			newRef, boundRef = lref, rref
		case rNew && lBound:
			newRef, boundRef = rref, lref
		default:
			rest = append(rest, c)
			continue
		}
		np := s.schema.ColumnIndex(newRef.Name)
		bp, err := joined.resolve(boundRef.Qual, boundRef.Name)
		if np < 0 || err != nil {
			rest = append(rest, c)
			continue
		}
		joins = append(joins, equiJoin{boundPos: bp, newPos: np})
	}
	return joins, rest
}

// foldConds splits the pending multi-source conjuncts for folding s
// into the joined aliases: the equi-join keys, and, when the planner
// chose a build-on-inner hash join, a band on s (bandConds). rest is
// what the joins leave for later folds or the final filter.
func (en *Engine) foldConds(pending []Expr, joined *rowLayout, joinedAliases map[string]bool, s *source, sources []*source, fp *foldPlan) ([]equiJoin, *joinBand, []Expr, error) {
	joins, rest := en.equiJoinConds(pending, joined, joinedAliases, s, sources)
	if fp == nil || fp.strategy != stratHashBuildInner || len(joins) == 0 {
		return joins, nil, rest, nil
	}
	band, rest, err := en.bandConds(rest, joined, joinedAliases, s, sources)
	return joins, band, rest, err
}

// appendKey appends a self-delimiting, collision-proof encoding of
// vals to dst — the shared scratch-buffer key builder for hash joins,
// GROUP BY and DISTINCT. Every value starts with its kind tag and
// carries a fixed-width payload (floats, bools), a varint (ints,
// dates) or a uvarint length prefix (text, blobs), so no two distinct
// value lists can share an encoding. The previous terminator-based
// scheme collided whenever a payload embedded the terminator:
// ("a\x00\x03b","c") and ("a","b\x00\x03c") encoded identically.
func appendKey(dst []byte, vals []relstore.Value) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vals {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case relstore.TypeNull:
			// The kind tag alone identifies NULL.
		case relstore.TypeInt, relstore.TypeDate:
			n := binary.PutVarint(tmp[:], v.I)
			dst = append(dst, tmp[:n]...)
		case relstore.TypeFloat:
			binary.LittleEndian.PutUint64(tmp[:8], math.Float64bits(v.F))
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

func (en *Engine) execSelect(ctx context.Context, stmt *SelectStmt, sp *obs.Span, sn *relstore.Snapshot) (*Result, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	if sn != nil {
		sp.SetInt("snapshot_lsn", int64(sn.LSN()))
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
		sources[i] = s
	}

	perAlias := map[string][]Expr{}
	split, err := en.splitConjuncts(ctx, stmt, sources, perAlias)
	if err != nil {
		return nil, err
	}
	conjuncts, multi := split.all, split.multi

	// Batch reads decode only the columns the statement touches.
	en.markNeeded(stmt, conjuncts, sources)

	// Single-table statements with no usable point index take the
	// vectorized path when the storage streams column batches, else
	// fan out over row morsels when the engine is configured for
	// parallel scans.
	if len(sources) == 1 {
		if res, handled, err := en.execSingleBatch(ctx, stmt, sources[0], conjuncts, sources, sp); handled {
			return res, err
		}
		if res, handled, err := en.execSingleParallel(ctx, stmt, sources[0], conjuncts, sources, sp); handled {
			return res, err
		}
	}

	// Plan the fold order. With the planner on, sources are reordered
	// greedily by estimated cardinality and each fold gets a static,
	// estimate-driven strategy; with it off, FROM order and the legacy
	// runtime heuristics apply.
	ordered := sources
	var jplan *joinPlan
	if en.Planner && len(sources) > 1 {
		if jplan, err = en.planJoins(sources, perAlias, multi); err != nil {
			return nil, err
		}
		ordered = make([]*source, len(sources))
		for i, idx := range jplan.order {
			ordered[i] = sources[idx]
		}
	}

	// Scan the first source, then fold in the rest. When the first fold
	// is a build-on-inner hash join, the initial scan is fused into the
	// probe (hashJoinFirst), which streams the outer side and can fan
	// it out over morsels. Every source is read once, through its
	// compiled read (compileRead / readParts).
	first := ordered[0]
	firstConjuncts := perAlias[strings.ToLower(first.alias)]
	layout := layoutFor(first.alias, first.schema)
	joinedAliases := map[string]bool{strings.ToLower(first.alias): true}
	pendingMulti := multi
	var rows []relstore.Row
	scanned := false

	// scanFirst reads the leading source under a "scan" span.
	scanFirst := func() error {
		ss := sp.Child("scan")
		ss.SetAttr("table", first.alias)
		rd, err := en.compileRead(first, firstConjuncts, sources)
		if err != nil {
			ss.End()
			return err
		}
		est := rd.plan.est
		if rd.batch != nil {
			rd.label(ss)
		} else if est.Planned {
			ss.SetAttr("access", est.Access)
		}
		if est.Planned {
			ss.SetInt("est_rows", int64(est.OutRows))
		}
		rows, err = en.readRows(ctx, rd, ss)
		ss.AddRows(0, int64(len(rows)))
		ss.End()
		return err
	}

	foldProbe := newCancelProbe(ctx)
	for fi, s := range ordered[1:] {
		if foldProbe.check() {
			return nil, foldProbe.err()
		}
		var fp *foldPlan
		if jplan != nil {
			fp = &jplan.folds[fi]
		}
		joins, band, rest, err := en.foldConds(pendingMulti, layout, joinedAliases, s, sources, fp)
		if err != nil {
			return nil, err
		}
		pendingMulti = rest
		newLayout := layout.concat(layoutFor(s.alias, s.schema))

		singles := perAlias[strings.ToLower(s.alias)]
		if !scanned {
			scanned = true
			fuse := len(joins) > 0
			if fp != nil {
				fuse = fuse && fp.strategy == stratHashBuildInner
			} else {
				// Legacy rule: fuse only when the index-join plan is
				// off the table regardless of outer cardinality.
				fuse = fuse && !(s.base != nil && s.base.IndexOn(joins[0].newPos) != nil)
			}
			if fuse {
				rows, err = en.hashJoinFirst(ctx, first, firstConjuncts, s, joins, band, singles, sources, fp, sp)
				if err != nil {
					return nil, err
				}
				layout = newLayout
				joinedAliases[strings.ToLower(s.alias)] = true
				continue
			}
			if err := scanFirst(); err != nil {
				return nil, err
			}
		}
		in := int64(len(rows))
		strat := stratNested
		switch {
		case fp != nil:
			strat = fp.strategy
		case len(joins) > 0 && s.base != nil && len(rows) <= indexJoinThreshold && s.base.IndexOn(joins[0].newPos) != nil:
			// Legacy rule: index nested-loop join on the first equi key
			// below the fixed outer-row threshold.
			strat = stratIndex
		case len(joins) > 0:
			strat = stratHashBuildInner
		}
		switch strat {
		case stratIndex:
			// Index nested-loop join on the first equi key; remaining
			// keys and single-table predicates filter after the probe.
			js := sp.Child("join:index")
			js.SetAttr("table", s.alias)
			rows, err = en.indexJoin(ctx, rows, s, joins, singles, sources, newLayout)
			js.AddRows(in, int64(len(rows)))
			js.End()
		case stratHashBuildInner:
			rows, err = en.hashJoin(ctx, rows, s, joins, band, singles, sources, fp, sp)
		case stratHashBuildOuter:
			rows, err = en.hashJoinBuildOuter(ctx, rows, s, joins, singles, sources, fp, sp)
		default:
			js := sp.Child("join:nested-loop")
			js.SetAttr("table", s.alias)
			rows, err = en.nestedLoopJoin(ctx, rows, s, singles, sources, js)
			js.AddRows(in, int64(len(rows)))
			js.End()
		}
		if err != nil {
			return nil, err
		}
		layout = newLayout
		joinedAliases[strings.ToLower(s.alias)] = true
	}
	if !scanned {
		if err := scanFirst(); err != nil {
			return nil, err
		}
	}

	// Residual predicates.
	if len(pendingMulti) > 0 {
		fs := sp.Child("filter")
		fs.AddRows(int64(len(rows)), 0)
		var pred Expr = pendingMulti[0]
		for _, c := range pendingMulti[1:] {
			pred = &BinaryExpr{Op: "AND", L: pred, R: c}
		}
		fn, err := en.compileExpr(pred, layout)
		if err != nil {
			return nil, err
		}
		fcc := newCancelProbe(ctx)
		kept := rows[:0]
		for _, r := range rows {
			if fcc.tick() {
				return nil, fcc.err()
			}
			v, err := fn(r)
			if err != nil {
				return nil, err
			}
			if v.AsBool() {
				kept = append(kept, r)
			}
		}
		rows = kept
		fs.AddRows(0, int64(len(rows)))
		fs.End()
	}

	return en.project(stmt, rows, layout, sources, sp)
}

func (en *Engine) indexJoin(ctx context.Context, outer []relstore.Row, s *source, joins []equiJoin, singles []Expr, sources []*source, newLayout *rowLayout) ([]relstore.Row, error) {
	cc := newCancelProbe(ctx)
	ix := s.base.IndexOn(joins[0].newPos)
	// Compile the inner-side residual (single-table predicates).
	var filter evalFunc
	if len(singles) > 0 {
		var pred Expr = singles[0]
		for _, c := range singles[1:] {
			pred = &BinaryExpr{Op: "AND", L: pred, R: c}
		}
		var err error
		if filter, err = en.compileExpr(pred, layoutFor(s.alias, s.schema)); err != nil {
			return nil, err
		}
	}
	var out []relstore.Row
	for _, o := range outer {
		if cc.tick() {
			return nil, cc.err()
		}
		probe := o[joins[0].boundPos]
		if probe.IsNull() {
			continue
		}
		pv, err := coerce(probe, s.schema.Columns[joins[0].newPos].Type)
		if err != nil {
			continue
		}
		for _, rid := range ix.Lookup([]relstore.Value{pv}) {
			row, live, err := s.base.GetBorrow(rid)
			if err != nil {
				return nil, err
			}
			if !live {
				continue
			}
			match := true
			for _, j := range joins[1:] {
				if compareValues(o[j.boundPos], row[j.newPos]) != 0 || row[j.newPos].IsNull() {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if filter != nil {
				v, err := filter(row)
				if err != nil {
					return nil, err
				}
				if !v.AsBool() {
					continue
				}
			}
			combined := make(relstore.Row, 0, len(o)+len(row))
			combined = append(combined, o...)
			combined = append(combined, row...)
			out = append(out, combined)
		}
	}
	return out, nil
}

func (en *Engine) nestedLoopJoin(ctx context.Context, outer []relstore.Row, s *source, singles []Expr, sources []*source, sp *obs.Span) ([]relstore.Row, error) {
	rd, err := en.compileRead(s, singles, sources)
	if err != nil {
		return nil, err
	}
	rd.label(sp)
	inner, err := en.readRows(ctx, rd, sp)
	if err != nil {
		return nil, err
	}
	cc := newCancelProbe(ctx)
	// Cap the up-front allocation: a cross product's full extent can
	// be enormous, and reserving it all before the first probe would
	// delay cancellation by the whole (possibly huge) zeroing.
	capHint := len(outer) * len(inner)
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]relstore.Row, 0, capHint)
	for _, o := range outer {
		for _, m := range inner {
			if cc.tick() {
				return nil, cc.err()
			}
			combined := make(relstore.Row, 0, len(o)+len(m))
			combined = append(combined, o...)
			combined = append(combined, m...)
			out = append(out, combined)
		}
	}
	return out, nil
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

func (en *Engine) project(stmt *SelectStmt, rows []relstore.Row, layout *rowLayout, sources []*source, sp *obs.Span) (*Result, error) {
	if en.isGrouped(stmt) {
		return en.projectGrouped(stmt, rows, layout, sp)
	}
	ps := sp.Child("project")

	// Expand stars.
	var cols []string
	var evals []evalFunc
	var orderFns []evalFunc
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
					cols = append(cols, col.Name)
					evals = append(evals, func(row relstore.Row) (relstore.Value, error) { return row[pos], nil })
				}
			}
			continue
		}
		fn, err := en.compileExpr(it.Expr, layout)
		if err != nil {
			return nil, err
		}
		evals = append(evals, fn)
		cols = append(cols, selectItemName(it, len(cols)))
	}
	for _, o := range stmt.OrderBy {
		fn, err := en.compileExpr(o.Expr, layout)
		if err != nil {
			return nil, err
		}
		orderFns = append(orderFns, fn)
	}

	type outRow struct {
		vals relstore.Row
		keys relstore.Row
	}
	outs := make([]outRow, 0, len(rows))
	for _, r := range rows {
		vals := make(relstore.Row, len(evals))
		for i, fn := range evals {
			v, err := fn(r)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		keys := make(relstore.Row, len(orderFns))
		for i, fn := range orderFns {
			v, err := fn(r)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		outs = append(outs, outRow{vals, keys})
	}
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
	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			for k, o := range stmt.OrderBy {
				c := compareValues(outs[i].keys[k], outs[j].keys[k])
				if c != 0 {
					if o.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	res := &Result{Columns: cols}
	for _, o := range outs {
		res.Rows = append(res.Rows, o.vals)
		if stmt.Limit >= 0 && len(res.Rows) >= stmt.Limit {
			break
		}
	}
	ps.AddRows(int64(len(rows)), int64(len(res.Rows)))
	ps.End()
	return res, nil
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

// mergeable reports whether every aggregate in the plan supports
// partial-result merging — the precondition for parallel execution.
func (p *groupPlan) mergeable() bool {
	for _, ab := range p.aggs {
		if _, ok := ab.mk().(MergeableAggState); !ok {
			return false
		}
	}
	return true
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

	type outRow struct {
		vals relstore.Row
		keys relstore.Row
	}
	var outs []outRow
	for _, k := range order {
		g := groups[k]
		groupRow := make(relstore.Row, len(p.groupLayout.cols))
		copy(groupRow, g.keys)
		for i, st := range g.states {
			groupRow[len(stmt.GroupBy)+i] = st.Result()
		}
		if havingFn != nil {
			v, err := havingFn(groupRow)
			if err != nil {
				return nil, err
			}
			if !v.AsBool() {
				continue
			}
		}
		vals := make(relstore.Row, len(evals))
		for i, fn := range evals {
			v, err := fn(groupRow)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		keys := make(relstore.Row, len(orderFns))
		for i, fn := range orderFns {
			v, err := fn(groupRow)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		outs = append(outs, outRow{vals, keys})
	}
	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			for k, o := range stmt.OrderBy {
				c := compareValues(outs[i].keys[k], outs[j].keys[k])
				if c != 0 {
					if o.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	res := &Result{Columns: cols}
	for _, o := range outs {
		res.Rows = append(res.Rows, o.vals)
		if stmt.Limit >= 0 && len(res.Rows) >= stmt.Limit {
			break
		}
	}
	ps.AddRows(int64(len(order)), int64(len(res.Rows)))
	ps.End()
	return res, nil
}

func (en *Engine) projectGrouped(stmt *SelectStmt, rows []relstore.Row, layout *rowLayout, sp *obs.Span) (*Result, error) {
	p, err := en.compileGrouping(stmt, layout)
	if err != nil {
		return nil, err
	}
	as := sp.Child("aggregate")
	acc := p.newAcc()
	for _, r := range rows {
		if err := acc.add(r); err != nil {
			return nil, err
		}
	}
	as.AddRows(int64(len(rows)), int64(len(acc.order)))
	as.End()
	return en.finalizeGroups(p, acc, sp)
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
