package sqlengine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"archis/internal/relstore"
)

// newInferDB builds three small tables for the inference tests; ia and
// ib carry INT, DATE and text columns.
func newInferDB(t *testing.T) *Engine {
	t.Helper()
	en := New(relstore.NewDatabase())
	en.MustExec(`create table ia (k INT, c INT, d DATE, s VARCHAR)`)
	en.MustExec(`create table ib (k INT, c INT, d DATE, s VARCHAR)`)
	en.MustExec(`create table ic (k INT, c INT)`)
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, DATE '1990-01-%02d', 's%d')", i%7, i%11, 1+i%28, i%3))
	}
	insertBatched(en, "ia", rows)
	insertBatched(en, "ib", rows)
	rows = rows[:0]
	for i := 0; i < 20; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i%7, i%5))
	}
	insertBatched(en, "ic", rows)
	return en
}

// derivedOf runs the conjunct split of sql under f and renders the
// conjuncts inference added, sorted.
func derivedOf(t *testing.T, en *Engine, sql string, f *planForce) []string {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	sel := st.(*SelectStmt)
	sources, err := en.bindSources(sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	perAlias := map[string][]Expr{}
	split, err := en.splitConjuncts(context.Background(), sel, sources, perAlias, f)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	n := 0
	for alias, cs := range perAlias {
		k := split.derived[alias]
		n += k
		for _, c := range cs[len(cs)-k:] {
			b := c.(*BinaryExpr)
			ref, lit := b.L.(*ColRef), b.R.(*Literal)
			out = append(out, fmt.Sprintf("%s.%s %s %s", ref.Qual, ref.Name, b.Op, lit.Value.Text()))
		}
	}
	if n != len(out) {
		t.Fatalf("derived counts %d conjuncts, perAlias holds %d", n, len(out))
	}
	sort.Strings(out)
	return out
}

// TestInferBounds checks each inference rule on a small statement,
// the cases that must derive nothing, and that every statement keeps
// its answer under every forced plan, the uninferred one (no derived
// bounds) included.
func TestInferBounds(t *testing.T) {
	en := newInferDB(t)
	for _, tc := range []struct {
		name, where string
		want        []string
	}{
		{"the Q6 self-join bound",
			`a.k = b.k and a.d >= DATE '1990-01-10' and b.d >= a.d and b.d <= a.d + 730`,
			[]string{"b.d >= 1990-01-10"}},
		{"equality chain",
			`a.k = b.k and b.k = 5`,
			[]string{"a.k = 5"}},
		{"equality chain, constant on the left",
			`a.k = b.k and 5 = b.k`,
			[]string{"a.k = 5"}},
		{"text equality chain",
			`a.s = b.s and b.s = 's1'`,
			[]string{"a.s = s1"}},
		{"upper bound with an offset",
			`b.c <= a.c + 10 and a.c <= 20`,
			[]string{"b.c <= 30"}},
		{"lower bound with a negative offset",
			`b.c >= a.c - 3 and a.c > 4`,
			[]string{"b.c > 1"}},
		{"strict comparison makes the bound strict",
			`b.c > a.c and a.c >= 5`,
			[]string{"b.c > 5"}},
		{"mirrored comparison",
			`a.c < b.c and b.c <= 8`,
			[]string{"a.c < 8"}},
		{"a looser existing bound does not block a tighter one",
			`b.c >= a.c and a.c >= 5 and b.c >= 2`,
			[]string{"b.c >= 5"}},
		{"both sides of a band collapse into an equality",
			`a.k = b.k and b.k >= 3 and b.k <= 3`,
			[]string{"a.k = 3"}},
		{"date bound crosses an equality",
			`a.d = b.d and b.d <= DATE '1990-01-20'`,
			[]string{"a.d <= 1990-01-20"}},
		{"a date string bound is read as a date",
			`b.d >= a.d and a.d >= '1990-01-15'`,
			[]string{"b.d >= 1990-01-15"}},

		{"date overflow past Forever", `b.d <= a.d + 730 and a.d <= DATE '9999-12-31'`, nil},
		{"integer overflow", `b.c <= a.c + 9223372036854775807 and a.c <= 5`, nil},
		{"mixed column types", `a.c = b.d and b.d = DATE '1990-01-05'`, nil},
		{"int column against text column", `a.c = b.s and b.s = 's1'`, nil},
		{"text constant on an int column", `a.k = b.k and b.k = '5'`, nil},
		{"OR is opaque", `(a.k = b.k or a.k = 1) and b.k = 5`, nil},
		{"OR bound is opaque", `a.k = b.k and (b.k = 5 or b.k = 6)`, nil},
		{"the conjunct already exists", `a.k = b.k and b.k = 5 and a.k = 5`, nil},
		{"a tighter bound already exists", `b.c >= a.c and a.c >= 5 and b.c >= 7`, nil},
		{"a weaker bound is not derived", `b.c >= a.c - 3 and a.c >= 5 and b.c >= 5`, nil},
		{"NULL constant", `a.k = b.k and b.k = NULL`, nil},
		{"no single-source bound to carry", `a.k = b.k and b.c >= a.c`, nil},
		{"function of a column", `a.k = abs(b.k) and b.k = 5`, nil},
		{"inequality", `a.k = b.k and b.k != 5`, nil},
	} {
		sql := `select a.k, a.c, b.k, b.c from ia a, ib b where ` + tc.where
		got := derivedOf(t, en, sql, planned)
		if strings.Join(got, "; ") != strings.Join(tc.want, "; ") {
			t.Errorf("%s: derived %q, want %q\n  sql: %s", tc.name, got, tc.want, sql)
		}
		if err := comparePlans(en, sql); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}

	// A chain through three sources reaches every member, and EXPLAIN
	// counts each source's derived conjuncts.
	three := `select count(*) from ia a, ib b, ic c where a.k = b.k and b.k = c.k and c.k = 3`
	if got := derivedOf(t, en, three, planned); strings.Join(got, "; ") != "a.k = 3; b.k = 3" {
		t.Errorf("three-way chain derived %q", got)
	}
	if plan := explainText(t, en, three); strings.Count(plan, "derived=1") != 2 {
		t.Errorf("EXPLAIN does not mark both derived reads:\n%s", plan)
	}

	// Single-source statements and the no-derived-bounds plan never
	// infer.
	if got := derivedOf(t, en, `select k from ia a where a.k = a.c and a.c = 3`, planned); got != nil {
		t.Errorf("single-source statement derived %q", got)
	}
	if got := derivedOf(t, en, `select a.k from ia a, ib b where a.k = b.k and b.k = 5`, &planForce{noDerived: true}); got != nil {
		t.Errorf("the no-derived-bounds plan derived %q", got)
	}
}

// TestBandProbe checks the band probe's plan and edges: NULL band
// columns, strict and inclusive sides, one-sided bands, and that a
// band replaces the residual filter rather than sitting beside it.
// Every forced plan, the residual-filter one (no band) included, must
// answer as the band probe does.
func TestBandProbe(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table bo (k INT, c INT)`)
	en.MustExec(`create table bi (k INT, c INT, v INT)`)
	var rows []string
	for i := 0; i < 30; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i%3, i))
	}
	insertBatched(en, "bo", rows)
	rows = rows[:0]
	for i := 0; i < 30; i++ {
		c := fmt.Sprint(29 - i)
		if i%5 == 0 {
			c = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%d, %s, %d)", i%3, c, i))
	}
	insertBatched(en, "bi", rows)

	for _, where := range []string{
		`o.k = i.k and i.c >= o.c and i.c <= o.c + 4`,
		`o.k = i.k and i.c > o.c and i.c < o.c + 4`,
		`o.k = i.k and o.c <= i.c and o.c + 4 >= i.c`,
		`o.k = i.k and i.c >= o.c`,
		`o.k = i.k and i.c < o.c - 20`,
		`o.k = i.k and i.c >= o.c and i.c >= o.c + 2 and i.c <= o.c + 9`,
	} {
		sql := `select o.c, i.c, i.v from bo o, bi i where ` + where
		plan := explainText(t, en, sql)
		if !strings.Contains(plan, "band=c") {
			t.Errorf("no band probe for %s:\n%s", where, plan)
		}
		checkPlans(t, en, sql)
	}
	// The band consumes both sides; a second lower bound stays
	// residual.
	if plan := explainText(t, en, `select o.c from bo o, bi i where o.k = i.k and i.c >= o.c and i.c <= o.c + 4`); strings.Contains(plan, "filter residual") {
		t.Errorf("band left a residual filter:\n%s", plan)
	}
	if plan := explainText(t, en, `select o.c from bo o, bi i where o.k = i.k and i.c >= o.c and i.c >= o.c + 2`); !strings.Contains(plan, "filter residual=1") {
		t.Errorf("second lower bound should stay residual:\n%s", plan)
	}
	// Within one outer row (o.c is unique), matches come out in
	// band-column order although bi holds them in descending order.
	const ordered = `select o.c, i.c from bo o, bi i where o.k = i.k and i.c >= o.c`
	if plan := explainText(t, en, ordered); !strings.Contains(plan, "band=c") {
		t.Fatalf("no band probe:\n%s", plan)
	}
	res, err := en.Exec(ordered)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(res.Rows); j++ {
		prev, cur := res.Rows[j-1], res.Rows[j]
		if prev[0].I == cur[0].I && prev[1].I > cur[1].I {
			t.Fatalf("band output not in column order: %v", res.Rows)
		}
	}
}
