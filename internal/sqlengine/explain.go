package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// EXPLAIN [ANALYZE] rendering. Plain EXPLAIN walks the same planner
// decisions execSelect makes — index selection, zone-bound pushdown,
// morsel eligibility, join strategy — without executing, so it is
// deterministic and cheap. EXPLAIN ANALYZE executes the statement
// under a fresh tracer and renders the finished span tree, so every
// node carries measured timings and cardinalities.

func (en *Engine) execExplain(ctx context.Context, st *ExplainStmt, sn *relstore.Snapshot) (*Result, error) {
	if st.Analyze {
		tr := obs.NewTracer("query")
		res, err := en.execSelect(ctx, st.Inner, tr.Root(), sn)
		if err != nil {
			return nil, err
		}
		tr.Root().AddRows(0, int64(len(res.Rows)))
		return planResult(tr.Finish("").Tree()), nil
	}
	lines, err := en.explainSelect(ctx, st.Inner, sn)
	if err != nil {
		return nil, err
	}
	return planResult(strings.Join(lines, "\n")), nil
}

// planResult wraps rendered plan text as a one-column result set.
func planResult(text string) *Result {
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, relstore.Row{relstore.String_(line)})
	}
	return res
}

// explainSelect renders the static access plan, mirroring the
// decision order of execSelect. Cardinality-dependent runtime choices
// (index vs hash join under indexJoinThreshold outer rows) are shown
// as the rule the executor applies.
func (en *Engine) explainSelect(ctx context.Context, stmt *SelectStmt, sn *relstore.Snapshot) ([]string, error) {
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
		sources[i] = s
	}

	perAlias := map[string][]Expr{}
	split, err := en.splitConjuncts(ctx, stmt, sources, perAlias)
	if err != nil {
		return nil, err
	}
	conjuncts, multi := split.all, split.multi
	validAt, hasValidAt := ValidAsOf(ctx)

	var lines []string
	add := func(depth int, format string, args ...any) {
		lines = append(lines, strings.Repeat("  ", depth)+fmt.Sprintf(format, args...))
	}

	// derivedNote counts the conjuncts inference handed a source.
	derivedNote := func(s *source) string {
		if n := split.derived[strings.ToLower(s.alias)]; n > 0 {
			return fmt.Sprintf(" derived=%d", n)
		}
		return ""
	}
	describeScan := func(s *source, cs []Expr) (string, *scanPlan, error) {
		p, err := en.planScan(s, cs, sources)
		if err != nil {
			return "", nil, err
		}
		kind := "table"
		if s.base == nil {
			kind = "virtual"
		}
		d := fmt.Sprintf("scan %s (%s)", s.alias, kind)
		if p.eqIndex != nil {
			d = fmt.Sprintf("index scan %s (index %s)", s.alias, p.eqIndex.Name)
		}
		if len(p.bounds) > 0 {
			d += fmt.Sprintf(" bounds=%d", len(p.bounds))
		}
		if p.filter != nil {
			d += fmt.Sprintf(" filter=%d conjuncts", len(cs))
		}
		d += derivedNote(s)
		if p.est.Planned {
			d += fmt.Sprintf(" est=%d", p.est.OutRows)
		}
		return d, p, nil
	}
	// batchRead mirrors compileRead's rule: columnar mode on, a batch
	// source, no index probe.
	batchRead := func(s *source, p *scanPlan) bool {
		_, ok := s.virtual.(BatchSource)
		return ok && en.Columnar && p.eqIndex == nil
	}
	// readNote labels a multi-source input read through the batch
	// drain, with the worker count when the read fans out.
	readNote := func(s *source, p *scanPlan) string {
		if !batchRead(s, p) {
			return ""
		}
		if w := en.scanWorkers(); w > 1 {
			return fmt.Sprintf(" access=colscan workers=%d", w)
		}
		return " access=colscan"
	}
	describeRead := func(s *source, cs []Expr) (string, error) {
		d, p, err := describeScan(s, cs)
		if err != nil {
			return "", err
		}
		return d + readNote(s, p), nil
	}

	add(0, "select")
	if hasValidAt {
		// Surfaced so bitemporal plans are distinguishable from
		// transaction-time ones; the rewritten conjuncts themselves are
		// already counted in the filter/bounds figures below.
		add(1, "valid_pred=vstart<=%s<=vend", validAt)
	}

	if len(sources) == 1 {
		s := sources[0]
		d, p, err := describeScan(s, conjuncts)
		if err != nil {
			return nil, err
		}
		// Vectorized path first, mirroring execSelect's decision order.
		if batchRead(s, p) {
			d += " access=colscan"
			workers := en.scanWorkers()
			grouped := en.isGrouped(stmt)
			if grouped {
				p, err := en.compileGrouping(stmt, layoutFor(s.alias, s.schema))
				if err != nil {
					return nil, err
				}
				if !p.mergeable() {
					workers = 1
				}
			}
			if workers > 1 {
				add(1, "morsel-fanout workers=%d", workers)
				add(2, "%s", d)
				if grouped {
					add(1, "agg-merge")
				}
			} else {
				add(1, "%s", d)
			}
			explainProject(stmt, add)
			return lines, nil
		}
		parallel := false
		if workers := en.scanWorkers(); workers > 1 && p.eqIndex == nil {
			if _, ok := s.morselSource(); ok {
				if en.isGrouped(stmt) {
					p, err := en.compileGrouping(stmt, layoutFor(s.alias, s.schema))
					if err != nil {
						return nil, err
					}
					parallel = p.mergeable()
				} else {
					parallel = true
				}
			}
		}
		if parallel {
			add(1, "morsel-fanout workers=%d", en.scanWorkers())
			add(2, "%s", d)
			if en.isGrouped(stmt) {
				add(1, "agg-merge")
			}
		} else {
			add(1, "%s", d)
		}
		explainProject(stmt, add)
		return lines, nil
	}

	// Multi-source: describe the fold order of execSelect. With the
	// planner on, the folds follow planJoins (greedy reordering plus
	// static build-side/strategy choices); with it off, FROM order and
	// the legacy runtime rules are rendered.
	ordered := sources
	var jplan *joinPlan
	if en.Planner {
		if jplan, err = en.planJoins(sources, perAlias, multi); err != nil {
			return nil, err
		}
		ordered = make([]*source, len(sources))
		for i, idx := range jplan.order {
			ordered[i] = sources[idx]
		}
	}
	first := ordered[0]
	layout := layoutFor(first.alias, first.schema)
	joinedAliases := map[string]bool{strings.ToLower(first.alias): true}
	pendingMulti := multi
	scanned := false
	for fi, s := range ordered[1:] {
		var fp *foldPlan
		if jplan != nil {
			fp = &jplan.folds[fi]
		}
		joins, band, rest, err := en.foldConds(pendingMulti, layout, joinedAliases, s, sources, fp)
		if err != nil {
			return nil, err
		}
		pendingMulti = rest
		keys := fmt.Sprintf("keys=%d", len(joins))
		if band != nil {
			keys += " band=" + band.name
		}
		singles := perAlias[strings.ToLower(s.alias)]
		innerIndexed := s.base != nil && len(joins) > 0 && s.base.IndexOn(joins[0].newPos) != nil
		if !scanned {
			scanned = true
			fd, err := describeRead(first, perAlias[strings.ToLower(first.alias)])
			if err != nil {
				return nil, err
			}
			fuse := len(joins) > 0
			if fp != nil {
				fuse = fuse && fp.strategy == stratHashBuildInner
			} else {
				fuse = fuse && !innerIndexed
			}
			if fuse {
				// Fused first fold: scan streams into the probe
				// (hashJoinFirst), exactly like execSelect's continue.
				id, err := describeRead(s, singles)
				if err != nil {
					return nil, err
				}
				if fp != nil {
					add(1, "hash join %s build=%s est outer=%d inner=%d out=%d",
						keys, s.alias, fp.estOuter, fp.estInner, fp.estOut)
				} else {
					add(1, "hash join keys=%d", len(joins))
				}
				add(2, "build: %s", id)
				add(2, "probe: %s (streamed)", fd)
				layout = layout.concat(layoutFor(s.alias, s.schema))
				joinedAliases[strings.ToLower(s.alias)] = true
				continue
			}
			add(1, "%s", fd)
		}
		// The fold reads s through compileRead unless it probes an index.
		note := derivedNote(s)
		if _, ok := s.virtual.(BatchSource); ok {
			p, err := en.planScan(s, singles, sources)
			if err != nil {
				return nil, err
			}
			note += readNote(s, p)
		}
		switch {
		case fp != nil:
			switch fp.strategy {
			case stratIndex:
				add(1, "index join %s keys=%d (index %s) est outer=%d out=%d%s",
					s.alias, len(joins), fp.index.Name, fp.estOuter, fp.estOut, derivedNote(s))
			case stratHashBuildInner:
				add(1, "hash join %s %s build=%s est outer=%d inner=%d out=%d%s",
					s.alias, keys, s.alias, fp.estOuter, fp.estInner, fp.estOut, note)
			case stratHashBuildOuter:
				add(1, "hash join %s keys=%d build=outer est outer=%d inner=%d out=%d%s",
					s.alias, len(joins), fp.estOuter, fp.estInner, fp.estOut, note)
			default:
				add(1, "nested-loop join %s est out=%d%s", s.alias, fp.estOut, note)
			}
		case len(joins) > 0 && innerIndexed:
			add(1, "join %s keys=%d: index join (index %s) if outer rows <= %d, else hash join",
				s.alias, len(joins), s.base.IndexOn(joins[0].newPos).Name, indexJoinThreshold)
		case len(joins) > 0:
			add(1, "hash join %s keys=%d%s", s.alias, len(joins), note)
		default:
			add(1, "nested-loop join %s%s", s.alias, note)
		}
		layout = layout.concat(layoutFor(s.alias, s.schema))
		joinedAliases[strings.ToLower(s.alias)] = true
	}
	if len(pendingMulti) > 0 {
		add(1, "filter residual=%d conjuncts", len(pendingMulti))
	}
	explainProject(stmt, add)
	return lines, nil
}

func explainProject(stmt *SelectStmt, add func(int, string, ...any)) {
	d := fmt.Sprintf("project cols=%d", len(stmt.Select))
	if len(stmt.GroupBy) > 0 {
		d += fmt.Sprintf(" group-by=%d", len(stmt.GroupBy))
	}
	if stmt.Having != nil {
		d += " having"
	}
	if stmt.Distinct {
		d += " distinct"
	}
	if len(stmt.OrderBy) > 0 {
		d += fmt.Sprintf(" order-by=%d", len(stmt.OrderBy))
	}
	if stmt.Limit >= 0 {
		d += fmt.Sprintf(" limit=%d", stmt.Limit)
	}
	add(1, "%s", d)
}
