package sqlengine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"archis/internal/relstore"
)

// insertBatched issues multi-row INSERTs so large test tables do not
// pay per-row parse overhead.
func insertBatched(en *Engine, table string, rows []string) {
	const batch = 200
	for i := 0; i < len(rows); i += batch {
		j := i + batch
		if j > len(rows) {
			j = len(rows)
		}
		en.MustExec("insert into " + table + " values " + strings.Join(rows[i:j], ","))
	}
}

// comparePlans is the forced-plan oracle: it runs every plan of sql
// (ForEachPlan) and returns an error naming the first alternative
// whose answer differs from the planned run's. Answers compare as
// multisets of rows, or row for row when ORDER BY covers every output
// column; a LIMIT without such an ORDER BY fixes only the row count.
// Floats compare to 12 significant digits: plans may add them in
// different orders.
func comparePlans(en *Engine, sql string) error {
	stmt, err := Parse(sql)
	if err != nil {
		return err
	}
	sel := stmt.(*SelectStmt)
	ordered := len(sel.OrderBy) > 0
	for _, it := range sel.Select {
		ref, ok := it.Expr.(*ColRef)
		ordered = ordered && ok && slices.ContainsFunc(sel.OrderBy, func(o OrderItem) bool {
			key, ok := o.Expr.(*ColRef)
			return ok && strings.EqualFold(key.Name, ref.Name) && strings.EqualFold(key.Qual, ref.Qual)
		})
	}
	var want []string
	return ForEachPlan(en, nil, sql, func(plan string, run func() (*Result, error)) error {
		res, err := run()
		if err != nil {
			return fmt.Errorf("plan %s: %w", plan, err)
		}
		got := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			got[i] = answerRow(row)
		}
		if !ordered {
			sort.Strings(got)
		}
		if want == nil {
			want = got
			return nil
		}
		same := slices.Equal(got, want)
		if sel.Limit >= 0 && !ordered {
			same = len(got) == len(want)
		}
		if !same {
			return fmt.Errorf("plan %s answers differently from the planned run\n  sql:     %s\n  planned: %q\n  forced:  %q", plan, sql, want, got)
		}
		return nil
	})
}

// answerRow renders a result row for comparison.
func answerRow(row relstore.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		if v.Kind == relstore.TypeFloat {
			parts[i] = strconv.FormatFloat(v.F, 'g', 12, 64)
		} else {
			parts[i] = v.Text()
		}
	}
	return strings.Join(parts, "|")
}

// checkPlans fails t when any forced plan answers sql differently from
// the planned run (comparePlans).
func checkPlans(t *testing.T, en *Engine, sql string) {
	t.Helper()
	if err := comparePlans(en, sql); err != nil {
		t.Error(err)
	}
}

// forcedRows runs sql under the forced plan whose name contains name
// and renders its rows as queryStrings does.
func forcedRows(t *testing.T, en *Engine, sql, name string) []string {
	t.Helper()
	var out []string
	found := false
	err := ForEachPlan(en, nil, sql, func(plan string, run func() (*Result, error)) error {
		if found || !strings.Contains(plan, name) {
			return nil
		}
		found = true
		res, err := run()
		if err != nil {
			return err
		}
		for _, r := range res.Rows {
			out = append(out, answerRow(r))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if !found {
		t.Fatalf("%s: no forced plan named %q", sql, name)
	}
	return out
}

func explainText(t *testing.T, en *Engine, sql string) string {
	t.Helper()
	res, err := en.Exec("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// newSelectivityDB builds a table where index quality varies per
// column: a has 2 distinct values, b has 100, c and d both have 50.
// Index declaration order is a, b, c, d.
func newSelectivityDB(t *testing.T) *Engine {
	t.Helper()
	en := New(relstore.NewDatabase())
	en.MustExec(`create table t (a INT, b INT, c INT, d INT, v INT)`)
	en.MustExec(`create index ix_a on t (a)`)
	en.MustExec(`create index ix_b on t (b)`)
	en.MustExec(`create index ix_c on t (c)`)
	en.MustExec(`create index ix_d on t (d)`)
	rows := make([]string, 400)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, %d, %d, %d)", i%2, i%100, i%50, i%50, i)
	}
	insertBatched(en, "t", rows)
	return en
}

// TestPlannerPicksMostSelectiveIndex pins the multi-index regression:
// with eq conjuncts on both a (2 distinct keys) and b (100 distinct
// keys), taking whichever indexed conjunct comes first in the WHERE
// clause probes ix_a; the cost-based planner must take the most
// selective index regardless of conjunct order.
func TestPlannerPicksMostSelectiveIndex(t *testing.T) {
	en := newSelectivityDB(t)
	const q = `select v from t where a = 1 and b = 7`

	plan := explainText(t, en, q)
	if !strings.Contains(plan, "(index ix_b)") {
		t.Errorf("planner did not pick the most selective index:\n%s", plan)
	}

	// The first-conjunct probe — the misplan the cost model fixes — is
	// a forced alternative, and every plan must agree on the answer.
	want := queryStrings(t, en, q+` order by v`)
	if got := forcedRows(t, en, q+` order by v`, "index ix_a"); strings.Join(want, ";") != strings.Join(got, ";") {
		t.Errorf("forced ix_a probe answers differ: %v vs %v", want, got)
	}
	checkPlans(t, en, q+` order by v`)
	if len(want) != 4 {
		t.Errorf("query returned %d rows, want 4", len(want))
	}
}

// TestPlannerIndexTieBreak: c and d are equally selective (50 distinct
// keys each). The tie must go to the first-declared index (ix_c) even
// when the conjunct on d comes first, so plans are deterministic.
func TestPlannerIndexTieBreak(t *testing.T) {
	en := newSelectivityDB(t)
	plan := explainText(t, en, `select v from t where d = 3 and c = 3`)
	if !strings.Contains(plan, "(index ix_c)") {
		t.Errorf("tie did not break to first-declared index:\n%s", plan)
	}
}

// TestPlannerPrefersScanOnPermissiveFilter: an eq predicate matching
// ~50% of rows must run as a scan under the cost model; the forced
// ix_flag probe, which an always-index rule would take, must agree.
func TestPlannerPrefersScanOnPermissiveFilter(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table perm (flag INT, v INT)`)
	en.MustExec(`create index ix_flag on perm (flag)`)
	rows := make([]string, 1000)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d)", i%2, i)
	}
	insertBatched(en, "perm", rows)

	const q = `select count(*) from perm where flag = 1`
	plan := explainText(t, en, q)
	if strings.Contains(plan, "index scan") {
		t.Errorf("planner chose an index probe for a 50%%-selective predicate:\n%s", plan)
	}
	if got := queryStrings(t, en, q); len(got) != 1 || got[0] != "500" {
		t.Errorf("count = %v, want 500", got)
	}
	if got := forcedRows(t, en, q, "index ix_flag"); len(got) != 1 || got[0] != "500" {
		t.Errorf("forced ix_flag probe count = %v, want 500", got)
	}
	checkPlans(t, en, q)
}

// TestIndexProbeBorrowsRows asserts the index-probe path reads rows
// zero-copy: allocations per query must not scale with the number of
// probed rows (the old path copied every fetched row).
func TestIndexProbeBorrowsRows(t *testing.T) {
	build := func(dups int) *Engine {
		en := New(relstore.NewDatabase())
		en.MustExec(`create table t (id INT, v INT)`)
		en.MustExec(`create index ix_id on t (id)`)
		rows := make([]string, 0, 64*dups)
		for id := 0; id < 64; id++ {
			for d := 0; d < dups; d++ {
				rows = append(rows, fmt.Sprintf("(%d, %d)", id, d))
			}
		}
		insertBatched(en, "t", rows)
		return en
	}
	allocsAt := func(dups int) float64 {
		en := build(dups)
		const q = `select count(*) from t where id = 7`
		if plan := explainText(t, en, q); !strings.Contains(plan, "index scan") {
			t.Fatalf("expected an index probe at %d dups:\n%s", dups, plan)
		}
		if got := queryStrings(t, en, q); got[0] != fmt.Sprint(dups) {
			t.Fatalf("count = %v, want %d", got, dups)
		}
		return testing.AllocsPerRun(20, func() { en.MustExec(q) })
	}
	small := allocsAt(8)
	large := allocsAt(256)
	// 248 extra matched rows; the copying path cost >= 1 alloc per row.
	if large-small > 64 {
		t.Errorf("index probe allocates per row: %.0f allocs at 8 dups, %.0f at 256", small, large)
	}
}

// newJoinDB builds tables of known sizes for build-side and strategy
// tests: jsmall (4 rows), jmed (600 rows, unindexed), jbig (1000 rows,
// index on the join key).
func newJoinDB(t *testing.T) *Engine {
	t.Helper()
	en := New(relstore.NewDatabase())
	en.MustExec(`create table jsmall (k INT, x INT)`)
	en.MustExec(`create table jmed (k INT, y INT)`)
	en.MustExec(`create table jbig (k INT, z INT)`)
	en.MustExec(`create index ix_jbig_k on jbig (k)`)
	small := make([]string, 4)
	for i := range small {
		small[i] = fmt.Sprintf("(%d, %d)", i, i*10)
	}
	med := make([]string, 600)
	for i := range med {
		med[i] = fmt.Sprintf("(%d, %d)", i%8, i)
	}
	big := make([]string, 1000)
	for i := range big {
		big[i] = fmt.Sprintf("(%d, %d)", i%16, i)
	}
	insertBatched(en, "jsmall", small)
	insertBatched(en, "jmed", med)
	insertBatched(en, "jbig", big)
	return en
}

// TestPlannerBuildSide: the hash-join build side must be the smaller
// estimated input regardless of FROM order, and both FROM orders must
// produce the same plan and the same answer.
func TestPlannerBuildSide(t *testing.T) {
	en := newJoinDB(t)
	qa := `select count(*) from jmed m, jsmall s where m.k = s.k`
	qb := `select count(*) from jsmall s, jmed m where m.k = s.k`

	pa, pb := explainText(t, en, qa), explainText(t, en, qb)
	if pa != pb {
		t.Errorf("FROM order changed the plan:\n--- m,s ---\n%s--- s,m ---\n%s", pa, pb)
	}
	if !strings.Contains(pa, "build=outer") {
		t.Errorf("join did not build on the smaller (outer) side:\n%s", pa)
	}
	if !strings.Contains(pa, "scan s (table)") {
		t.Errorf("join was not driven from the smaller source:\n%s", pa)
	}

	want := queryStrings(t, en, qa)
	if got := queryStrings(t, en, qb); got[0] != want[0] {
		t.Errorf("FROM order changed the answer: %v vs %v", want, got)
	}
	checkPlans(t, en, qa)
}

// TestPlannerIndexJoin: a tiny outer input probing a large indexed
// inner must plan an index join, not a hash join.
func TestPlannerIndexJoin(t *testing.T) {
	en := newJoinDB(t)
	q := `select count(*) from jsmall s, jbig b where s.k = b.k`
	plan := explainText(t, en, q)
	if !strings.Contains(plan, "index join b") || !strings.Contains(plan, "(index ix_jbig_k)") {
		t.Errorf("want an index join through ix_jbig_k:\n%s", plan)
	}
	checkPlans(t, en, q)
}

// TestPlannerFusedBuildInner: equal-sized inputs tie toward FROM
// order, the inner side is built, and the driving scan streams into
// the probe (the fused first fold).
func TestPlannerFusedBuildInner(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table jx (k INT, x INT)`)
	en.MustExec(`create table jy (k INT, y INT)`)
	rows := make([]string, 200)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d)", i%10, i)
	}
	insertBatched(en, "jx", rows)
	insertBatched(en, "jy", rows)
	plan := explainText(t, en, `select count(*) from jx x, jy y where x.k = y.k`)
	if !strings.Contains(plan, "build=y") || !strings.Contains(plan, "probe:") {
		t.Errorf("equal inputs should fuse with build on the inner side:\n%s", plan)
	}
}

// TestPlannerDifferentialRandomized runs seeded random queries over
// up to four of four tables — some grouped by a column of the first
// source under count(*) and sum — under every forced plan (CheckPlans)
// and requires the planned run's answer from each, so build-outer
// folds mid-chain, index and nested-loop stages after a streamed read
// and merged partial aggregates all meet the oracle. Queries carrying an ORDER BY over
// every projected column must match byte for byte; the rest as
// multisets. A second phase draws interval-shaped joins (equi key plus
// lo <= w.c <= hi over the outer row, strict variants, NULLs in w.c,
// equality chains through a constant), the shapes bound inference and
// the band probe rewrite; the no-band and no-derived-bounds
// alternatives apply neither.
func TestPlannerDifferentialRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	build := func() *Engine {
		rr := rand.New(rand.NewSource(7))
		en := New(relstore.NewDatabase())
		en.MustExec(`create table p1 (k INT, a INT, s VARCHAR)`)
		en.MustExec(`create table p2 (k INT, b INT)`)
		en.MustExec(`create table p3 (k INT, c INT)`)
		en.MustExec(`create index ix_p1_k on p1 (k)`)
		en.MustExec(`create index ix_p2_k on p2 (k)`)
		var rows []string
		for i := 0; i < 60; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, 's%d')", rr.Intn(20), rr.Intn(10), rr.Intn(5)))
		}
		insertBatched(en, "p1", rows)
		rows = rows[:0]
		for i := 0; i < 45; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d)", rr.Intn(20), rr.Intn(12)))
		}
		insertBatched(en, "p2", rows)
		rows = rows[:0]
		for i := 0; i < 30; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d)", rr.Intn(20), rr.Intn(6)))
		}
		insertBatched(en, "p3", rows)
		en.MustExec(`create table p4 (k INT, c INT)`)
		rows = rows[:0]
		for i := 0; i < 50; i++ {
			k, c := fmt.Sprint(rr.Intn(20)), fmt.Sprint(rr.Intn(15))
			if rr.Intn(6) == 0 {
				c = "NULL"
			}
			if rr.Intn(10) == 0 {
				k = "NULL"
			}
			rows = append(rows, fmt.Sprintf("(%s, %s)", k, c))
		}
		insertBatched(en, "p4", rows)
		return en
	}
	on := build()

	type tbl struct {
		name  string
		alias string
		cols  []string
	}
	all := []tbl{
		{"p1", "x", []string{"k", "a", "s"}},
		{"p2", "y", []string{"k", "b"}},
		{"p3", "z", []string{"k", "c"}},
		{"p4", "u", []string{"k", "c"}},
	}
	ops := []string{"=", ">", "<", ">=", "<="}

	for qi := 0; qi < 80; qi++ {
		n := 1 + r.Intn(4)
		perm := r.Perm(4)[:n]
		sort.Ints(perm) // stable FROM order per pick
		tabs := make([]tbl, n)
		for i, p := range perm {
			tabs[i] = all[p]
		}

		var from, conds, cols []string
		for _, tb := range tabs {
			from = append(from, tb.name+" "+tb.alias)
			for _, col := range tb.cols {
				if col != "s" {
					cols = append(cols, tb.alias+"."+col)
				}
			}
		}
		for i := 1; i < n; i++ {
			// Four sources always chain, so no Cartesian fold runs long.
			if r.Intn(10) < 9 || n == 4 {
				conds = append(conds, fmt.Sprintf("%s.k = %s.k", tabs[i-1].alias, tabs[i].alias))
			}
		}
		for _, tb := range tabs {
			if r.Intn(2) == 0 {
				col := tb.cols[r.Intn(len(tb.cols))]
				if col == "s" {
					conds = append(conds, fmt.Sprintf("%s.s = 's%d'", tb.alias, r.Intn(5)))
				} else {
					conds = append(conds, fmt.Sprintf("%s.%s %s %d",
						tb.alias, col, ops[r.Intn(len(ops))], r.Intn(20)))
				}
			}
		}

		counting := r.Intn(3) == 0
		grouping := !counting && r.Intn(4) == 0
		sel := strings.Join(cols, ", ")
		switch {
		case counting:
			sel = "count(*)"
		case grouping:
			// Partial aggregates merge across the parts of a fanned-out
			// pipeline.
			sel = fmt.Sprintf("%s.k, count(*), sum(%s)", tabs[0].alias, cols[r.Intn(len(cols))])
		}
		q := "select " + sel + " from " + strings.Join(from, ", ")
		if len(conds) > 0 {
			q += " where " + strings.Join(conds, " and ")
		}
		if grouping {
			q += " group by " + tabs[0].alias + ".k"
		}
		ordered := !counting && !grouping && r.Intn(2) == 0
		if ordered {
			q += " order by " + strings.Join(cols, ", ")
		}

		if err := comparePlans(on, q); err != nil {
			t.Errorf("query %d: %v", qi, err)
		}
	}

	// Interval-shaped joins of an outer v and w (p4). v is p4 itself
	// (the Q6 self-join shape, whose equal estimates build on w) or p1;
	// y (p2) sometimes joins on the key too.
	r = rand.New(rand.NewSource(43))
	lower := []string{">=", ">"}
	upper := []string{"<=", "<"}
	banded := 0
	for qi := 0; qi < 120; qi++ {
		from, vc := "p4 v, p4 w", "v.c"
		if r.Intn(3) == 0 {
			from, vc = "p1 v, p4 w", "v.a"
		}
		cols := "v.k, " + vc + ", w.k, w.c"
		conds := []string{"v.k = w.k"}
		if r.Intn(4) == 0 {
			from += ", p2 y"
			cols += ", y.b"
			conds = append(conds, "y.k = v.k")
		}
		if r.Intn(4) > 0 {
			if r.Intn(2) == 0 {
				conds = append(conds, fmt.Sprintf("w.c %s %s", lower[r.Intn(2)], vc))
			} else {
				conds = append(conds, fmt.Sprintf("%s %s w.c", vc, upper[r.Intn(2)]))
			}
		}
		if r.Intn(4) > 0 {
			conds = append(conds, fmt.Sprintf("w.c %s %s + %d", upper[r.Intn(2)], vc, r.Intn(8)))
		}
		switch r.Intn(4) {
		case 0:
			conds = append(conds, fmt.Sprintf("%s %s %d", vc, ops[r.Intn(len(ops))], r.Intn(10)))
		case 1:
			conds = append(conds, fmt.Sprintf("w.k = %d", r.Intn(20)))
		case 2:
			conds = append(conds, fmt.Sprintf("v.k %s %d", ops[r.Intn(len(ops))], r.Intn(20)))
		}
		r.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
		q := "select " + cols + " from " + from + " where " + strings.Join(conds, " and ")
		ordered := r.Intn(3) == 0
		if ordered {
			q += " order by " + cols
		}
		if strings.Contains(explainText(t, on, q), "band=") {
			banded++
		}
		if err := comparePlans(on, q); err != nil {
			t.Errorf("interval query %d: %v", qi, err)
		}
	}
	if banded < 40 {
		t.Errorf("only %d of 120 interval queries ran a band probe", banded)
	}
}
