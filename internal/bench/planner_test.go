package bench

import (
	"sort"
	"strings"
	"testing"

	"archis/internal/core"
)

// TestPlannerDifferentialLayouts runs the full Table 3 suite, the
// self-join and the translated XQuery forms of Q1 and Q3 (x1, x3) on
// every physical layout with the cost-based planner on and off and
// requires identical answers — the planner may only change how a query
// runs, never what it returns. The translated SQL carries the id
// constant on the key table only, so planner on reads the history
// through the id bound inference derives. CI runs this under -race.
func TestPlannerDifferentialLayouts(t *testing.T) {
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Layout: core.LayoutPlain}},
		{"clustered", Options{Layout: core.LayoutClustered}},
		{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
	} {
		on := buildExplainEnv(t, lay.opts)
		offOpts := lay.opts
		offOpts.Planner = core.PlannerOff
		off := buildExplainEnv(t, offOpts)
		for _, q := range AllQueries {
			got, err := on.Run(q)
			if err != nil {
				t.Fatalf("%s Q%d planner on: %v", lay.name, q, err)
			}
			want, err := off.Run(q)
			if err != nil {
				t.Fatalf("%s Q%d planner off: %v", lay.name, q, err)
			}
			if got != want {
				t.Errorf("%s Q%d: planner changed the answer: %+v vs %+v", lay.name, q, got, want)
			}
		}
		gj, err := on.Sys.Exec(on.JoinSQL())
		if err != nil {
			t.Fatalf("%s join planner on: %v", lay.name, err)
		}
		wj, err := off.Sys.Exec(off.JoinSQL())
		if err != nil {
			t.Fatalf("%s join planner off: %v", lay.name, err)
		}
		if resultOf(gj) != resultOf(wj) || len(gj.Rows) != len(wj.Rows) {
			t.Errorf("%s join: planner changed the answer: %+v vs %+v",
				lay.name, resultOf(gj), resultOf(wj))
		}
		translated, err := on.TranslatedSQL()
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range translated {
			got, want := rowTexts(t, on, sql), rowTexts(t, off, sql)
			if len(got) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s x%d: planner changed the answer:\n%v\nvs\n%v", lay.name, 2*i+1, got, want)
			}
			if plan := explain(t, on, sql); !strings.Contains(plan, "derived=1") {
				t.Errorf("%s x%d: the history read carries no derived id bound:\n%s", lay.name, 2*i+1, plan)
			}
		}
	}
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
// (75%-match) predicate the planner must scan where the legacy
// heuristic probes the index, at 1/n selectivity both must probe, and
// every cell must agree on the answer.
func TestPlannerAdversarialAccess(t *testing.T) {
	recs, err := PlannerAdversarial(20000)
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[string]PlannerRecord{}
	for _, r := range recs {
		key := r.Case
		if r.Planner {
			key += "/on"
		} else {
			key += "/off"
		}
		byCell[key] = r
	}
	if got := byCell["permissive-eq/on"].Access; got != "scan" {
		t.Errorf("planner chose %q for the permissive predicate, want scan", got)
	}
	if got := byCell["permissive-eq/off"].Access; got != "index" {
		t.Errorf("legacy heuristic chose %q for the permissive predicate, want index", got)
	}
	for _, cell := range []string{"selective-eq/on", "selective-eq/off"} {
		if got := byCell[cell].Access; got != "index" {
			t.Errorf("%s chose %q, want index", cell, got)
		}
	}
	if on, off := byCell["permissive-eq/on"].Rows, byCell["permissive-eq/off"].Rows; on != off || on != 15000 {
		t.Errorf("permissive-eq matched %d (on) vs %d (off) rows, want 15000", on, off)
	}
	if on, off := byCell["selective-eq/on"].Rows, byCell["selective-eq/off"].Rows; on != off || on != 1 {
		t.Errorf("selective-eq matched %d (on) vs %d (off) rows, want 1", on, off)
	}
}
