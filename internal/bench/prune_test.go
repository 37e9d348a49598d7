package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"archis/internal/core"
	"archis/internal/temporal"
)

// pruneLayouts are the three physical layouts of the time-pruning
// tests, each read with intra-query workers.
var pruneLayouts = []struct {
	name string
	opts Options
}{
	{"plain", Options{Layout: core.LayoutPlain}},
	{"clustered", Options{Layout: core.LayoutClustered}},
	{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
}

// opaque hides every time bound of sql from pushdown and inference:
// `S.tstart + 0` is the same value as `S.tstart`, but no zone bound or
// derived conjunct comes from it, so the rewritten query reads every
// segment. Its answer is the oracle for the pruned read.
func opaque(sql string) string {
	sel, where, _ := strings.Cut(sql, " where ")
	for _, col := range []string{"tstart", "tend"} {
		for _, alias := range []string{"S", "S1", "S2"} {
			where = strings.ReplaceAll(where, alias+"."+col+" ", alias+"."+col+" + 0 ")
		}
	}
	return sel + " where " + where
}

// TestTimePruningDifferential checks that the time-derived segment
// scope (segment.Store.scope) never changes an answer. Lower bounds on
// tstart and tend (>=, >, =, a string date literal, and bounds that
// inference derives in the self-join), each alone, with segno bounds
// and with an id equality, at the days End(k)−1, End(k) and End(k)+1 of
// every frozen segment, must answer alike under every plan of
// sqlengine.ForEachPlan, alike on every layout, and alike with the
// bound hidden from pushdown. On the compressed layout a cold read
// with the bound must also inflate fewer blocks than the hidden-bound
// read: the pruning fired.
func TestTimePruningDifferential(t *testing.T) {
	envs := make([]*Env, len(pruneLayouts))
	for i, lay := range pruneLayouts {
		envs[i] = buildExplainEnv(t, lay.opts)
	}
	st, ok := envs[1].Sys.SegmentStore("employee_salary")
	if !ok {
		t.Fatal("clustered layout has no segment store")
	}
	segs, err := st.Segments()
	if err != nil || len(segs) < 2 {
		t.Fatalf("want at least two frozen segments, have %v: %v", segs, err)
	}
	id := envs[0].SingleID

	// answer runs sql under every plan on e and returns the planned
	// run's rows.
	answer := func(lay string, e *Env, sql string) []string {
		t.Helper()
		if err := comparePlans(e, sql); err != nil {
			t.Errorf("%s: %v", lay, err)
		}
		return rowTexts(t, e, sql)
	}
	check := func(sql string, segno bool) {
		t.Helper()
		var want []string
		for i, e := range envs {
			if segno && pruneLayouts[i].opts.Layout == core.LayoutPlain {
				continue // no segno column
			}
			got := answer(pruneLayouts[i].name, e, sql)
			if oracle := rowTexts(t, e, opaque(sql)); !slices.Equal(got, oracle) {
				t.Errorf("%s: pruned read answers %d rows, hidden bound %d\n  sql: %s",
					pruneLayouts[i].name, len(got), len(oracle), sql)
			}
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Errorf("%s answers %d rows, %s %d\n  sql: %s",
					pruneLayouts[i].name, len(got), pruneLayouts[0].name, len(want), sql)
			}
		}
	}

	for _, sg := range segs {
		for _, day := range []temporal.Date{sg.End.AddDays(-1), sg.End, sg.End.AddDays(1)} {
			for _, pred := range []string{
				`S.tstart >= DATE '%s'`, `S.tstart > DATE '%s'`, `S.tstart = DATE '%s'`, `S.tstart >= '%s'`,
				`S.tend >= DATE '%s'`, `S.tend > DATE '%s'`, `S.tend = DATE '%s'`, `S.tend > '%s'`,
			} {
				base := `select S.id, S.salary, S.tstart, S.tend from employee_salary S where ` + fmt.Sprintf(pred, day)
				check(base, false)
				check(fmt.Sprintf(`%s and S.id = %d`, base, id), false)
				check(fmt.Sprintf(`%s and S.segno <= %d`, base, sg.SegNo), true)
				check(fmt.Sprintf(`%s and S.segno = %d`, base, sg.SegNo), true)
				check(fmt.Sprintf(`%s and S.segno >= %d and S.id = %d`, base, sg.SegNo, id), true)
			}
			// Inference hands S2 the bound S1 carries: >= through >=,
			// and a strict bound through a strict comparison.
			for _, join := range []string{
				`S1.tstart >= DATE '%s' and S2.tstart >= S1.tstart and S2.tstart <= S1.tstart + 60`,
				`S1.tstart >= '%s' and S2.tstart > S1.tstart and S2.tstart <= S1.tstart + 60`,
				`S1.tend >= DATE '%s' and S2.tend >= S1.tend and S2.tstart <= S1.tend`,
			} {
				check(fmt.Sprintf(`select S1.id, S1.tstart, S2.tstart, S2.salary from employee_salary S1, employee_salary S2 where S1.id = S2.id and `+join, day), false)
			}
		}
	}

	// The bound reaches storage: a cold compressed read past the first
	// frozen segment inflates fewer blocks than the same read with the
	// bound hidden.
	c := envs[2]
	cs, ok := c.Sys.CompressedStore("employee_salary")
	if !ok {
		t.Fatal("compressed layout has no compressed store")
	}
	inflates := func(sql string) int64 {
		t.Helper()
		c.Cold()
		before := cs.DecompressionCount()
		rowTexts(t, c, sql)
		return cs.DecompressionCount() - before
	}
	sql := fmt.Sprintf(`select S.id, S.salary from employee_salary S where S.tstart >= DATE '%s'`, segs[0].End.AddDays(1))
	if pruned, full := inflates(sql), inflates(opaque(sql)); pruned >= full {
		t.Errorf("a tstart bound past segment 1 inflated %d blocks, the hidden bound %d: no segment was pruned", pruned, full)
	}
}

// TestClockBackArchive moves the clock back across an archive. The
// versions written before the move have tstart and tend later than the
// archive day, so the frozen segment's End must cover them, or a read
// bounded below by their tstart would skip the segment that holds
// them. Every layout answers such a read as the plain layout does.
func TestClockBackArchive(t *testing.T) {
	var want []string
	for _, lay := range pruneLayouts {
		opts := lay.opts
		opts.Workers, opts.MinSegmentRows = 4, 160
		e, err := Build(smallCfg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		start := e.Sys.Clock()
		late := start.AddDays(30)
		e.Sys.SetClock(late)
		ids, err := e.liveIDs(3)
		if err != nil || len(ids) < 3 {
			t.Fatalf("%s: live ids %v: %v", lay.name, ids, err)
		}
		exec := func(sql string) {
			t.Helper()
			if _, err := e.Sys.Exec(sql); err != nil {
				t.Fatalf("%s: %s: %v", lay.name, sql, err)
			}
		}
		// Versions that begin and end on the late day: only the frozen
		// segment keeps them once it is archived.
		exec(fmt.Sprintf(`update employee set salary = salary + 1000 where id = %d`, ids[0]))
		exec(fmt.Sprintf(`update employee set salary = salary + 1000 where id = %d`, ids[0]))
		exec(`insert into employee values (900001, 'brief', 50000, 'Engineer', 'd01')`)
		exec(`delete from employee where id = 900001`)
		exec(fmt.Sprintf(`delete from employee where id = %d`, ids[1]))

		e.Sys.SetClock(start.AddDays(1))
		if n, err := e.Sys.Compact(); err != nil {
			t.Fatal(err)
		} else if lay.opts.Layout != core.LayoutPlain && n == 0 {
			t.Fatalf("%s: nothing archived", lay.name)
		}
		if lay.opts.Compress {
			if err := e.Sys.CompressFrozen(); err != nil {
				t.Fatal(err)
			}
		}
		exec(fmt.Sprintf(`update employee set salary = salary + 1000 where id = %d`, ids[2]))

		var got []string
		for _, sql := range []string{
			fmt.Sprintf(`select S.id, S.salary, S.tstart, S.tend from employee_salary S where S.tstart >= DATE '%s'`, late),
			fmt.Sprintf(`select S.id, S.salary, S.tstart, S.tend from employee_salary S where S.tend >= DATE '%s'`, late),
			fmt.Sprintf(`select S.id, S.tstart, S.tend from employee_name S where S.tstart >= DATE '%s'`, late),
		} {
			rows := rowTexts(t, e, sql)
			if err := comparePlans(e, sql); err != nil {
				t.Errorf("%s: %v", lay.name, err)
			}
			got = append(got, fmt.Sprintf("%d rows %v", len(rows), rows))
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: after moving the clock back across an archive:\n got  %.300s\n want %.300s", lay.name, got[i], want[i])
			}
		}
	}
}
