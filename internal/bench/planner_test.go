package bench

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"archis/internal/core"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
)

// TestPlannerDifferentialLayouts runs the full Table 3 suite, the
// self-join and the translated XQuery forms of Q1 and Q3 (x1, x3) on
// every physical layout under every forced plan (sqlengine.ForEachPlan)
// and requires the planned run's answer from each — a plan may only
// change how a query runs, never what it returns. The translated SQL
// carries the id constant on the key table only, so the planned run
// reads the history through the id bound inference derives, and the
// no-derived-bounds plan reads it whole. CI runs this under -race.
func TestPlannerDifferentialLayouts(t *testing.T) {
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Layout: core.LayoutPlain}},
		{"clustered", Options{Layout: core.LayoutClustered}},
		{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
	} {
		e := buildExplainEnv(t, lay.opts)
		check := func(name, sql string) {
			t.Helper()
			if err := comparePlans(e, sql); err != nil {
				t.Errorf("%s %s: %v", lay.name, name, err)
			}
		}
		for _, q := range AllQueries {
			check(Describe(q), e.SQL(q))
		}
		check("join", e.JoinSQL())
		translated, err := e.TranslatedSQL()
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range translated {
			if len(rowTexts(t, e, sql)) == 0 {
				t.Errorf("%s x%d: no rows", lay.name, 2*i+1)
			}
			check(fmt.Sprintf("x%d", 2*i+1), sql)
			if plan := explain(t, e, sql); !strings.Contains(plan, "derived=1") {
				t.Errorf("%s x%d: the history read carries no derived id bound:\n%s", lay.name, 2*i+1, plan)
			}
		}
	}
}

// comparePlans runs sql under every plan (sqlengine.ForEachPlan) and
// returns an error naming the first whose rows, as a multiset, differ
// from the planned run's. Floats compare to 12 significant digits:
// plans may add them in different orders.
func comparePlans(e *Env, sql string) error {
	var want []string
	return sqlengine.ForEachPlan(e.Sys.Engine, nil, sql, func(plan string, run func() (*sqlengine.Result, error)) error {
		res, err := run()
		if err != nil {
			return fmt.Errorf("plan %s: %w", plan, err)
		}
		got := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			for _, v := range row {
				if v.Kind == relstore.TypeFloat {
					got[i] += strconv.FormatFloat(v.F, 'g', 12, 64) + "|"
				} else {
					got[i] += v.Text() + "|"
				}
			}
		}
		sort.Strings(got)
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			return fmt.Errorf("plan %s answers differently from the planned run\n  sql: %s\n  planned: %q\n  forced:  %q", plan, sql, want, got)
		}
		return nil
	})
}

// rowTexts runs sql and returns its rows as sorted text lines.
func rowTexts(t *testing.T, e *Env, sql string) []string {
	t.Helper()
	res, err := e.Sys.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Text()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestPlannerAdversarialAccess pins the access-path decisions of the
// adversarial benchmark without timing anything: on the permissive
// (75%-match) predicate the planner must scan, at 1/n selectivity it
// must probe the index, and the other path, forced, must agree on the
// answer in every cell.
func TestPlannerAdversarialAccess(t *testing.T) {
	recs, err := PlannerAdversarial(20000)
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[string]PlannerRecord{}
	for _, r := range recs {
		key := r.Case + "/planned"
		if r.Forced != "" {
			key = r.Case + "/forced"
		}
		byCell[key] = r
	}
	for cell, want := range map[string]string{
		"permissive-eq/planned": "scan",
		"permissive-eq/forced":  "index",
		"selective-eq/planned":  "index",
		"selective-eq/forced":   "scan",
	} {
		if got := byCell[cell].Access; got != want {
			t.Errorf("%s took %q, want %s", cell, got, want)
		}
	}
	if p, f := byCell["permissive-eq/planned"].Rows, byCell["permissive-eq/forced"].Rows; p != f || p != 15000 {
		t.Errorf("permissive-eq matched %d (planned) vs %d (forced) rows, want 15000", p, f)
	}
	if p, f := byCell["selective-eq/planned"].Rows, byCell["selective-eq/forced"].Rows; p != f || p != 1 {
		t.Errorf("selective-eq matched %d (planned) vs %d (forced) rows, want 1", p, f)
	}
}
