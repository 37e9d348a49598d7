package sqlengine

// Cost-based access-path and join planning (DESIGN.md §12). The
// planner is fed by cheap storage statistics — table row counts,
// per-index distinct-key counts from the B+tree, zone-map page-prune
// estimates — and decides three things the executor used to hard-code:
//
//   1. eq-index probe vs. (morsel-parallel) scan for each table
//      reference, by estimated rows touched;
//   2. the hash-join build side, as the smaller estimated input;
//   3. the fold order of multi-join chains, greedily by estimated
//      cardinality (equi-connected sources before Cartesian ones).
//
// Every decision is deterministic: estimates derive only from table
// state, ties break toward declaration/FROM order, and EXPLAIN renders
// plans from the same code paths the executor runs. No decision may
// change an answer: the forced-plan oracle (forcedplan.go) runs every
// alternative the planner passed over and compares the results.

import (
	"strings"

	"archis/internal/relstore"
)

// ScanEstimator is implemented by storage that can cheaply predict the
// footprint of a bounded scan. Base tables implement it natively
// (relstore zone maps); virtual tables opt in (segment and blockzip
// stores do). Sources without an estimator get defaultVirtualRows.
type ScanEstimator interface {
	EstimateScan(bounds []relstore.ZoneBound) relstore.ScanEstimate
}

// Cost-model constants. Units are "row visits": scanning one cached
// row costs rowCost, touching one page costs pageCost (decode +
// cache), and one index probe costs probeCost per fetched row (random
// page access beats sequential only at low selectivity).
const (
	rowCost   = 1
	pageCost  = 8
	probeCost = 4

	// defaultVirtualRows is the assumed size of a virtual table that
	// exposes no statistics.
	defaultVirtualRows = 1024

	// Default selectivities for conjuncts the statistics cannot
	// resolve: equality on an unindexed column, range predicates, and
	// opaque expressions.
	eqSelectivity     = 0.1
	rangeSelectivity  = 0.3
	opaqueSelectivity = 0.5

	// estCap keeps join cardinality products inside int range.
	estCap = 1 << 40
)

// planEstimate carries the planner's cardinality estimates for one
// table access.
type planEstimate struct {
	Access     string // "scan" or "index"
	AccessRows int    // rows the chosen access path touches
	OutRows    int    // rows surviving all conjuncts (>= 1)
}

// sourceEstimate resolves scan statistics for a source.
func (en *Engine) sourceEstimate(s *source, bounds []relstore.ZoneBound) relstore.ScanEstimate {
	if s.base != nil {
		return s.base.EstimateScan(bounds)
	}
	if se, ok := s.virtual.(ScanEstimator); ok {
		return se.EstimateScan(bounds)
	}
	return relstore.ScanEstimate{
		Rows: defaultVirtualRows, Pages: 1,
		TotalRows: defaultVirtualRows, TotalPages: 1,
	}
}

// indexMatches estimates how many rows an equality probe on ix
// fetches: total rows over distinct keys, at least one.
func indexMatches(totalRows int, ix *relstore.Index) int {
	n := ix.Len()
	if n <= 0 || totalRows <= 0 {
		return 1
	}
	return (totalRows + n - 1) / n
}

// indexDeclPos returns the declaration position of ix on t (used as
// the deterministic tie-break: first-declared wins).
func indexDeclPos(t *relstore.Table, ix *relstore.Index) int {
	for i, cand := range t.Indexes() {
		if cand == ix {
			return i
		}
	}
	return int(^uint(0) >> 1)
}

// eqCandidate is one `col = const` conjunct with a usable index.
type eqCandidate struct {
	col int
	val relstore.Value
	ix  *relstore.Index
}

// chooseAccess runs the single-table cost model: it compares the
// bounded scan against the most selective eq-index candidate and
// fills p.eqVal/p.eqIndex plus p.est. conjStats describes the
// recognized conjunct mix for the output-cardinality estimate.
func (en *Engine) chooseAccess(s *source, p *scanPlan, cands []eqCandidate, conj conjunctStats) {
	est := en.sourceEstimate(s, p.bounds)

	// Most selective candidate; ties break toward the first-declared
	// index (and then toward conjunct order, since the iteration is
	// stable).
	best := -1
	bestMatches := 0
	for i, c := range cands {
		m := indexMatches(est.TotalRows, c.ix)
		switch {
		case best < 0, m < bestMatches:
			best, bestMatches = i, m
		case m == bestMatches &&
			indexDeclPos(s.base, c.ix) < indexDeclPos(s.base, cands[best].ix):
			best, bestMatches = i, m
		}
	}

	scanCost := est.Pages*pageCost + est.Rows*rowCost
	access, accessRows := "scan", est.Rows
	if best >= 0 && bestMatches*probeCost < scanCost {
		access, accessRows = "index", bestMatches
		p.eqVal, p.eqIndex = cands[best].val, cands[best].ix
	}

	// Output cardinality: apply every conjunct's selectivity to the
	// pruned scan estimate, clamped to what the access path touches.
	// An indexed eq conjunct keeps one key of the index's distinct keys.
	sel := 1.0
	for _, c := range cands {
		sel *= 1.0 / float64(max(c.ix.Len(), 1))
	}
	for i := 0; i < conj.eqUnindexed; i++ {
		sel *= eqSelectivity
	}
	for i := 0; i < conj.ranges; i++ {
		sel *= rangeSelectivity
	}
	for i := 0; i < conj.opaque; i++ {
		sel *= opaqueSelectivity
	}
	out := int(float64(est.Rows) * sel)
	if out > accessRows {
		out = accessRows
	}
	if out < 1 {
		out = 1
	}
	p.est = planEstimate{
		Access:     access,
		AccessRows: accessRows,
		OutRows:    out,
	}
}

// conjunctStats counts the predicate shapes planScan recognized, for
// selectivity estimation.
type conjunctStats struct {
	eqUnindexed int // col = const without a usable index
	ranges      int // col <op> const range comparisons
	opaque      int // conjuncts the planner cannot see through
}

// ---- join planning ----

type joinStrategy uint8

const (
	stratIndex joinStrategy = iota
	stratHashBuildInner
	stratHashBuildOuter
	// stratNested takes no join keys: every equi-join conjunct stays a
	// residual filter (foldConds).
	stratNested
)

// foldPlan is the planned strategy for folding one source into the
// accumulated join result.
type foldPlan struct {
	strategy joinStrategy
	keys     int             // equi-join keys the fold can hash or probe on
	index    *relstore.Index // the inner's index on the leading key, if any
	estOuter int             // estimated rows entering the fold
	estInner int             // estimated rows of the folded source
	estOut   int             // estimated rows leaving the fold
}

// joinPlan is the planned multi-source execution: the fold order
// (indices into the FROM-order source list) and a strategy per fold.
type joinPlan struct {
	order []int
	folds []foldPlan
}

func capEst(v int64) int {
	if v > estCap {
		return estCap
	}
	if v < 1 {
		return 1
	}
	return int(v)
}

// planJoins orders the sources greedily by estimated cardinality —
// smallest filtered source first, then the smallest equi-connected
// source, Cartesian folds last — and picks a strategy per fold. All
// ties break toward FROM order, so the plan is deterministic. A forced
// plan (f) may pin FROM order and any fold's strategy the fold can run.
func (en *Engine) planJoins(sources []*source, perAlias map[string][]Expr, multi []Expr, f *planForce) (*joinPlan, error) {
	n := len(sources)
	ests := make([]planEstimate, n)
	for i, s := range sources {
		p, err := en.planScan(s, perAlias[strings.ToLower(s.alias)], sources)
		if err != nil {
			return nil, err
		}
		ests[i] = p.est
	}

	// Equi-join connectivity between aliases, from the multi-alias
	// conjuncts.
	edges := make(map[string]map[string]bool)
	addEdge := func(a, b string) {
		if edges[a] == nil {
			edges[a] = map[string]bool{}
		}
		edges[a][b] = true
	}
	for _, c := range multi {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		la := singleAlias(b.L, sources)
		ra := singleAlias(b.R, sources)
		if la == "" || ra == "" || la == ra {
			continue
		}
		addEdge(la, ra)
		addEdge(ra, la)
	}

	// Greedy ordering.
	used := make([]bool, n)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if ests[i].OutRows < ests[start].OutRows {
			start = i
		}
	}
	order = append(order, start)
	used[start] = true
	bound := map[string]bool{strings.ToLower(sources[start].alias): true}
	connected := func(i int) bool {
		for a := range edges[strings.ToLower(sources[i].alias)] {
			if bound[a] {
				return true
			}
		}
		return false
	}
	for len(order) < n {
		best, bestConn := -1, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			conn := connected(i)
			switch {
			case best < 0,
				conn && !bestConn,
				conn == bestConn && ests[i].OutRows < ests[best].OutRows:
				best, bestConn = i, conn
			}
		}
		order = append(order, best)
		used[best] = true
		bound[strings.ToLower(sources[best].alias)] = true
	}
	if f.fromOrder {
		for i := range order {
			order[i] = i
		}
		start = 0
	}

	// Simulate the folds in the planned order to pick strategies.
	plan := &joinPlan{order: order}
	first := sources[start]
	layout := layoutFor(first.alias, first.schema)
	joinedAliases := map[string]bool{strings.ToLower(first.alias): true}
	pending := multi
	estOuter := ests[start].OutRows
	for _, idx := range order[1:] {
		s := sources[idx]
		joins, rest := en.equiJoinConds(pending, layout, joinedAliases, s, sources)
		estInner := ests[idx].OutRows
		fp := foldPlan{keys: len(joins), estOuter: estOuter, estInner: estInner}
		switch {
		case len(joins) == 0:
			fp.strategy = stratNested
			fp.estOut = capEst(int64(estOuter) * int64(estInner))
		default:
			// Join cardinality: outer x inner over the join key's
			// distinct count (inner index when available, a fixed
			// guess otherwise).
			distinct := estInner / 10
			if s.base != nil {
				fp.index = s.base.IndexOn(joins[0].newPos)
			}
			if fp.index != nil && fp.index.Len() > 0 {
				distinct = fp.index.Len()
			}
			if distinct < 1 {
				distinct = 1
			}
			fp.estOut = capEst(int64(estOuter) * int64(estInner) / int64(distinct))

			innerScan := ests[idx].AccessRows
			switch {
			case fp.index != nil && int64(estOuter)*probeCost < int64(innerScan)+int64(estOuter):
				// Index nested-loop beats building a hash table over
				// the inner side when the outer input is small.
				fp.strategy = stratIndex
			case estInner <= estOuter:
				fp.strategy = stratHashBuildInner
			default:
				fp.strategy = stratHashBuildOuter
			}
		}
		if st, ok := f.folds[len(plan.folds)]; ok && fp.can(st) {
			fp.strategy = st
		}
		if fp.strategy != stratNested {
			pending = rest
		}
		plan.folds = append(plan.folds, fp)
		layout = layout.concat(layoutFor(s.alias, s.schema))
		joinedAliases[strings.ToLower(s.alias)] = true
		estOuter = fp.estOut
	}
	return plan, nil
}

// can reports whether the fold can run strategy st: a nested loop
// always can, a hash join needs a key, an index join an index on the
// leading key.
func (fp *foldPlan) can(st joinStrategy) bool {
	switch st {
	case stratNested:
		return true
	case stratIndex:
		return fp.index != nil
	}
	return fp.keys > 0
}

// singleAlias resolves e to the one alias it references, or "".
func singleAlias(e Expr, sources []*source) string {
	out := map[string]bool{}
	if err := exprAliases(e, sources, out); err != nil || len(out) != 1 {
		return ""
	}
	for a := range out {
		return a
	}
	return ""
}
