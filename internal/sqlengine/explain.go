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
// each read's fan-out (fanWorkers over its listed morsels), join
// strategy — without executing, so it is deterministic and cheap. EXPLAIN ANALYZE executes the statement
// under a fresh tracer and renders the finished span tree, so every
// node carries measured timings and cardinalities.

func (en *Engine) execExplain(ctx context.Context, st *ExplainStmt, sn *relstore.Snapshot) (*Result, error) {
	if st.Analyze {
		tr := obs.NewTracer("query")
		res, err := en.execSelect(ctx, st.Inner, tr.Root(), sn, planned)
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
// decision order of execSelect.
func (en *Engine) explainSelect(ctx context.Context, stmt *SelectStmt, sn *relstore.Snapshot) ([]string, error) {
	sources, err := en.bindSources(stmt, sn)
	if err != nil {
		return nil, err
	}
	perAlias := map[string][]Expr{}
	split, err := en.splitConjuncts(ctx, stmt, sources, perAlias, planned)
	if err != nil {
		return nil, err
	}
	conjuncts, multi := split.all, split.multi
	validAt, hasValidAt := ValidAsOf(ctx)

	// An aggregate that cannot merge partials drains serially.
	serialAgg := en.isGrouped(stmt) && !en.mergeableAggs(stmt)

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
	// readNote labels a read through the batch drain and, when
	// fanWorkers fans it out (rows and merge as its executor passes
	// them), its worker count.
	readNote := func(rd *sourceRead, rows, merge bool) (string, error) {
		n, _, err := rd.morsels()
		if err != nil {
			return "", err
		}
		note := ""
		if rd.batch != nil {
			note = " access=colscan"
		}
		if w := rd.fanWorkers(n, rows, merge); w > 1 {
			note += fmt.Sprintf(" workers=%d", w)
		}
		return note, nil
	}
	// describeScan renders one read.
	describeScan := func(s *source, cs []Expr, rows, merge bool) (string, error) {
		rd, err := en.compileRead(s, cs, sources)
		if err != nil {
			return "", err
		}
		p := rd.plan
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
		d += fmt.Sprintf(" est=%d", p.est.OutRows)
		note, err := readNote(rd, rows, merge)
		return d + note, err
	}

	add(0, "select")
	if hasValidAt {
		// Surfaced so bitemporal plans are distinguishable from
		// transaction-time ones; the rewritten conjuncts themselves are
		// already counted in the filter/bounds figures below.
		add(1, "valid_pred=vstart<=%s<=vend", validAt)
	}

	if len(sources) == 1 {
		d, err := describeScan(sources[0], conjuncts, true, !serialAgg)
		if err != nil {
			return nil, err
		}
		add(1, "%s", d)
		explainProject(stmt, add)
		return lines, nil
	}

	// Multi-source: describe the fold order of execSelect, which
	// follows planJoins (greedy reordering plus static
	// build-side/strategy choices).
	jplan, err := en.planJoins(sources, perAlias, multi, planned)
	if err != nil {
		return nil, err
	}
	ordered := make([]*source, len(sources))
	for i, idx := range jplan.order {
		ordered[i] = sources[idx]
	}
	first := ordered[0]
	layout := layoutFor(first.alias, first.schema)
	joinedAliases := map[string]bool{strings.ToLower(first.alias): true}
	pendingMulti := multi
	var probe string // the leading read, streamed into a fused first fold
	for fi, s := range ordered[1:] {
		fp := &jplan.folds[fi]
		joins, band, rest, err := en.foldConds(pendingMulti, layout, joinedAliases, s, sources, fp, planned)
		if err != nil {
			return nil, err
		}
		pendingMulti = rest
		keys := fmt.Sprintf("keys=%d", len(joins))
		if band != nil {
			keys += " band=" + band.name
		}
		singles := perAlias[strings.ToLower(s.alias)]
		fuse := fi == 0 && fp.strategy == stratHashBuildInner
		if fi == 0 {
			// A fused probe that is the last fold streams into the
			// consumer, so it fans out only when the consumer can merge.
			merge := !(fuse && serialAgg && fi == len(ordered)-2)
			if probe, err = describeScan(first, perAlias[strings.ToLower(first.alias)], fuse, merge); err != nil {
				return nil, err
			}
			if !fuse {
				add(1, "%s", probe)
			}
		}
		// The fold reads s through compileRead unless it probes an index.
		note := derivedNote(s)
		if fp.strategy != stratIndex && !fuse {
			rd, err := en.compileRead(s, singles, sources)
			if err != nil {
				return nil, err
			}
			rn, err := readNote(rd, false, true)
			if err != nil {
				return nil, err
			}
			note += rn
		}
		switch {
		case fuse:
			// Fused first fold: scan streams into the probe
			// (hashJoinFirst), exactly like execSelect's.
			build, err := describeScan(s, singles, false, true)
			if err != nil {
				return nil, err
			}
			add(1, "hash join %s build=%s est outer=%d inner=%d out=%d",
				keys, s.alias, fp.estOuter, fp.estInner, fp.estOut)
			add(2, "build: %s", build)
			add(2, "probe: %s (streamed)", probe)
		case fp.strategy == stratIndex:
			add(1, "index join %s keys=%d (index %s) est outer=%d out=%d%s",
				s.alias, len(joins), fp.index.Name, fp.estOuter, fp.estOut, derivedNote(s))
		case fp.strategy == stratHashBuildInner:
			add(1, "hash join %s %s build=%s est outer=%d inner=%d out=%d%s",
				s.alias, keys, s.alias, fp.estOuter, fp.estInner, fp.estOut, note)
		case fp.strategy == stratHashBuildOuter:
			add(1, "hash join %s keys=%d build=outer est outer=%d inner=%d out=%d%s",
				s.alias, len(joins), fp.estOuter, fp.estInner, fp.estOut, note)
		default:
			add(1, "nested-loop join %s est out=%d%s", s.alias, fp.estOut, note)
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
