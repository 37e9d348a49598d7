package sqlengine

// Conjunct partitioning and bound inference (DESIGN.md §12). A
// multi-source WHERE clause often bounds one source only through
// another: in `S1.id = S2.id AND S1.tstart >= c AND S2.tstart >=
// S1.tstart` nothing limits the S2 read, although every answer row
// has S2.tstart >= c. inferBounds closes the top-level conjuncts under
// two rules and hands each source the single-source bounds that
// follow:
//
//   - equality chains: A.x = B.y ∧ B.y = k ⇒ A.x = k;
//   - comparisons with constant offsets: B.c <= A.c + n ∧ A.c <= k ⇒
//     B.c <= k + n (and the mirror for >=); a derived bound is strict
//     when any bound or comparison it came from is.
//
// Every derived conjunct is implied by the WHERE clause: the engine
// has no outer joins, only top-level ANDs are read, and a NULL operand
// already rejects the row. So a derived conjunct can prune and narrow
// a read but never change an answer.

import (
	"context"
	"math"
	"strings"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// conjunctSplit is a SELECT's WHERE clause partitioned for planning;
// the single-source conjuncts go to the perAlias map splitConjuncts
// fills.
type conjunctSplit struct {
	// all holds the statement's conjuncts (valid-time scope included),
	// without derived ones.
	all []Expr
	// multi holds the conjuncts that span sources or reference none.
	multi []Expr
	// derived counts the conjuncts inference appended per alias.
	derived map[string]int
}

// splitConjuncts flattens the WHERE clause, adds the valid-time scope
// and partitions the conjuncts by the aliases they touch: each
// single-source conjunct goes to perAlias under its lower-case alias,
// which the caller allocates so the map can stay on its stack. With
// more than one source, inferred bounds are appended to perAlias last,
// unless a forced plan (f) turns them off.
func (en *Engine) splitConjuncts(ctx context.Context, stmt *SelectStmt, sources []*source, perAlias map[string][]Expr, f *planForce) (conjunctSplit, error) {
	var sp conjunctSplit
	if stmt.Where != nil {
		sp.all = splitAnd(stmt.Where, nil)
	}
	// Valid-time scope (validtime.go): rewritten to plain conjuncts
	// here, before partitioning, so pushdown and planning see them as
	// ordinary predicates.
	if d, ok := ValidAsOf(ctx); ok {
		sp.all = append(sp.all, validConjuncts(sources, d)...)
	}
	for _, c := range sp.all {
		aliases := map[string]bool{}
		if err := exprAliases(c, sources, aliases); err != nil {
			return sp, err
		}
		if len(aliases) == 1 {
			for a := range aliases {
				perAlias[a] = append(perAlias[a], c)
			}
		} else {
			// Spans sources, or is a constant predicate applied at the end.
			sp.multi = append(sp.multi, c)
		}
	}
	if len(sources) > 1 && !f.noDerived {
		for _, d := range en.inferBounds(sp.all, sources) {
			if sp.derived == nil {
				sp.derived = map[string]int{}
			}
			perAlias[d.alias] = append(perAlias[d.alias], d.expr)
			sp.derived[d.alias]++
		}
	}
	return sp, nil
}

// colNode identifies one column of one source.
type colNode struct {
	src *source
	col int
}

// typ is the declared type of the column.
func (n colNode) typ() relstore.Type { return n.src.schema.Columns[n.col].Type }

// colTerm is `alias.col`, optionally plus a constant integer offset.
type colTerm struct {
	node colNode
	off  int64
}

// resolveColRef binds a column reference to its source and position:
// by qualifier, or by the one source that has the column.
func resolveColRef(ref *ColRef, sources []*source) (colNode, bool) {
	var n colNode
	for _, s := range sources {
		if ref.Qual != "" && !strings.EqualFold(ref.Qual, s.alias) {
			continue
		}
		if pos := s.schema.ColumnIndex(ref.Name); pos >= 0 {
			if n.src != nil {
				return colNode{}, false // ambiguous
			}
			n = colNode{s, pos}
		}
	}
	return n, n.src != nil
}

// constOf folds e when it references no column.
func (en *Engine) constOf(e Expr, sources []*source) (relstore.Value, bool) {
	if lit, ok := e.(*Literal); ok {
		return lit.Value, true
	}
	aliases := map[string]bool{}
	if exprAliases(e, sources, aliases) != nil || len(aliases) > 0 {
		return relstore.Null, false
	}
	fn, err := en.compileExpr(e, &rowLayout{})
	if err != nil {
		return relstore.Null, false
	}
	v, err := fn(nil)
	return v, err == nil
}

// termOf parses e as `col`, `col + n` or `col - n` with n an integer
// constant. Offsets apply only to INT and DATE columns.
func (en *Engine) termOf(e Expr, sources []*source) (colTerm, bool) {
	var off int64
	if b, ok := e.(*BinaryExpr); ok && (b.Op == "+" || b.Op == "-") {
		v, ok := en.constOf(b.R, sources)
		if !ok || v.Kind != relstore.TypeInt || v.I == math.MinInt64 {
			return colTerm{}, false
		}
		off = v.I
		if b.Op == "-" {
			off = -off
		}
		e = b.L
	}
	ref, ok := e.(*ColRef)
	if !ok {
		return colTerm{}, false
	}
	n, ok := resolveColRef(ref, sources)
	if !ok || (off != 0 && !numericCol(n.typ())) {
		return colTerm{}, false
	}
	// Date arithmetic runs on 32-bit day counts: an offset beyond
	// Forever's day count could wrap, so it makes no term.
	if n.typ() == relstore.TypeDate && (off > int64(temporal.Forever) || off < -int64(temporal.Forever)) {
		return colTerm{}, false
	}
	return colTerm{node: n, off: off}, true
}

// numericCol reports whether offsets and bands apply to a column type.
func numericCol(t relstore.Type) bool { return t == relstore.TypeInt || t == relstore.TypeDate }

// inferable reports whether inference reads comparisons on a column
// type: INT and DATE (with offsets) and STRING (without); FLOAT is left
// out because NaN does not order.
func inferable(t relstore.Type) bool { return numericCol(t) || t == relstore.TypeString }

// flipOp mirrors a comparison so its operands can swap sides.
var flipOp = map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// addOffset folds k + n with the engine's own arithmetic. It fails
// when the sum overflows int64, when the engine's date arithmetic would
// not produce it exactly, or when a date passes Forever either way.
func addOffset(k relstore.Value, n int64) (relstore.Value, bool) {
	if n == 0 {
		return k, true
	}
	if (n > 0 && k.I > math.MaxInt64-n) || (n < 0 && k.I < math.MinInt64-n) {
		return relstore.Null, false
	}
	sum := k.I + n
	v, err := arith("+", k, relstore.Int(n))
	if err != nil || v.Kind != k.Kind || v.I != sum {
		return relstore.Null, false
	}
	if v.Kind == relstore.TypeDate && (sum > int64(temporal.Forever) || sum < -int64(temporal.Forever)) {
		return relstore.Null, false
	}
	return v, true
}

// limit is one side of a column's known range.
type limit struct {
	v      relstore.Value
	strict bool
	set    bool
}

// tighter reports whether a narrows the range more than b on the lower
// (lower=true) or upper side.
func (a limit) tighter(b limit, lower bool) bool {
	if !a.set {
		return false
	}
	if !b.set {
		return true
	}
	c := compareValues(a.v, b.v)
	if !lower {
		c = -c
	}
	return c > 0 || (c == 0 && a.strict && !b.strict)
}

// rangeOf is what the conjuncts say about one column: its tightest
// bounds, whether a conjunct states an equality on it, and whether
// the closure tightened a side beyond what the conjuncts state.
type rangeOf struct {
	node                 colNode
	lo, hi               limit
	eq                   bool
	loDerived, hiDerived bool
}

// diffEdge is the difference constraint u <= v + off (u < v + off when
// strict).
type diffEdge struct {
	u, v   colNode
	off    int64
	strict bool
}

// derivedConj is one inferred single-source conjunct.
type derivedConj struct {
	alias string // lower-case
	expr  Expr
}

// inferBounds returns the single-source bounds implied by conjuncts
// that no conjunct already states, in a deterministic order. It reads
// `col op const` bounds and `col [± n] op col [± n]` comparisons
// between columns of one type (offsets on INT and DATE only) and
// derives nothing from any other shape: OR, IN, functions, mixed
// types, NULL constants. A fold that overflows derives nothing.
func (en *Engine) inferBounds(conjuncts []Expr, sources []*source) []derivedConj {
	index := map[colNode]int{}
	var ranges []rangeOf // in first-seen order
	node := func(t colTerm) {
		if _, ok := index[t.node]; !ok {
			index[t.node] = len(ranges)
			ranges = append(ranges, rangeOf{node: t.node})
		}
	}
	var edges []diffEdge
	type constBound struct {
		node colNode
		op   string
		k    Expr
	}
	var consts []constBound
	for _, c := range conjuncts {
		b, ok := c.(*BinaryExpr)
		if !ok || flipOp[b.Op] == "" {
			continue
		}
		lt, lok := en.termOf(b.L, sources)
		rt, rok := en.termOf(b.R, sources)
		switch {
		case lok && rok:
			if lt.node == rt.node || lt.node.typ() != rt.node.typ() || !inferable(lt.node.typ()) {
				continue
			}
			// u + a op v + b  ⇔  u op v + (b - a).
			if (rt.off < 0 && lt.off > math.MaxInt64+rt.off) || (rt.off > 0 && lt.off < math.MinInt64+rt.off) {
				continue
			}
			off := rt.off - lt.off
			if off == math.MinInt64 {
				continue
			}
			u, v := lt.node, rt.node
			node(lt)
			node(rt)
			switch b.Op {
			case "<=", "<":
				edges = append(edges, diffEdge{u, v, off, b.Op == "<"})
			case ">=", ">":
				edges = append(edges, diffEdge{v, u, -off, b.Op == ">"})
			case "=":
				edges = append(edges, diffEdge{u, v, off, false}, diffEdge{v, u, -off, false})
			}
		case lok && lt.off == 0:
			consts = append(consts, constBound{lt.node, b.Op, b.R})
		case rok && rt.off == 0:
			consts = append(consts, constBound{rt.node, flipOp[b.Op], b.L})
		}
	}
	if len(edges) == 0 {
		return nil
	}
	// Only a column some comparison links can gain a bound.
	for _, cb := range consts {
		if i, ok := index[cb.node]; ok {
			if v, ok := en.constOf(cb.k, sources); ok {
				ranges[i].noteBound(cb.op, v)
			}
		}
	}
	// Bellman-Ford style relaxation: without a contradictory cycle the
	// bounds settle within len(ranges) rounds; with one, every bound
	// reached so far is still implied, so stopping is safe.
	for round := 0; round <= len(ranges); round++ {
		changed := false
		for _, e := range edges {
			u, v := &ranges[index[e.u]], &ranges[index[e.v]]
			if v.hi.set {
				if k, ok := addOffset(v.hi.v, e.off); ok {
					cand := limit{v: k, strict: v.hi.strict || e.strict, set: true}
					if cand.tighter(u.hi, false) {
						u.hi, u.hiDerived, changed = cand, true, true
					}
				}
			}
			if u.lo.set {
				if k, ok := addOffset(u.lo.v, -e.off); ok {
					cand := limit{v: k, strict: u.lo.strict || e.strict, set: true}
					if cand.tighter(v.lo, true) {
						v.lo, v.loDerived, changed = cand, true, true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	var out []derivedConj
	for _, r := range ranges {
		if !r.loDerived && !r.hiDerived {
			continue
		}
		n := r.node
		col := &ColRef{Qual: n.src.alias, Name: n.src.schema.Columns[n.col].Name}
		alias := strings.ToLower(n.src.alias)
		conj := func(op string, l limit) {
			out = append(out, derivedConj{alias: alias, expr: &BinaryExpr{Op: op, L: col, R: &Literal{Value: l.v}}})
		}
		if !r.eq && r.lo.set && r.hi.set && !r.lo.strict && !r.hi.strict && compareValues(r.lo.v, r.hi.v) == 0 {
			conj("=", r.lo)
			continue
		}
		if r.loDerived {
			op := ">="
			if r.lo.strict {
				op = ">"
			}
			conj(op, r.lo)
		}
		if r.hiDerived {
			op := "<="
			if r.hi.strict {
				op = "<"
			}
			conj(op, r.hi)
		}
	}
	return out
}

// noteBound records a conjunct's bound `col op v` on r. v must be a
// non-NULL value of the column's own type (a DATE column also takes a
// string that parses as a date, as compareValues does); any other
// constant is a mixed-type comparison and records nothing.
func (r *rangeOf) noteBound(op string, v relstore.Value) {
	if v.IsNull() {
		return
	}
	typ := r.node.typ()
	if typ == relstore.TypeDate && v.Kind == relstore.TypeString {
		d, err := temporal.ParseDate(strings.TrimSpace(v.S))
		if err != nil {
			return
		}
		v = relstore.DateV(d)
	}
	if v.Kind != typ || !inferable(typ) {
		return
	}
	l := limit{v: v, set: true, strict: op == "<" || op == ">"}
	r.eq = r.eq || op == "="
	if op != "<" && op != "<=" && l.tighter(r.lo, true) {
		r.lo = l
	}
	if op != ">" && op != ">=" && l.tighter(r.hi, false) {
		r.hi = l
	}
}
