package bench

import (
	"fmt"
	"sort"
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/htable"
)

func smallCfg() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Employees = 80
	cfg.Years = 6
	return cfg
}

func buildAll(t *testing.T) (plain, clustered, compressed *Env, xdb *XMLEnv) {
	t.Helper()
	var err error
	plain, err = Build(smallCfg(), Options{Layout: core.LayoutPlain})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err = Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160})
	if err != nil {
		t.Fatal(err)
	}
	compressed, err = Build(smallCfg(), Options{Layout: core.LayoutCompressed, MinSegmentRows: 160, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	xdb, err = BuildXMLBaseline(plain, true)
	if err != nil {
		t.Fatal(err)
	}
	return
}

// The central evaluation invariant: every backend and layout answers
// the Table 3 suite identically.
func TestAllBackendsAgree(t *testing.T) {
	plain, clustered, compressed, xdb := buildAll(t)

	seg, ok := clustered.Sys.SegmentStore("employee_salary")
	if !ok || seg.Archives() == 0 {
		t.Fatalf("clustered env did not archive (archives=%v)", ok)
	}
	cs, ok := compressed.Sys.CompressedStore("employee_salary")
	if !ok {
		t.Fatal("no compressed store")
	}
	if n, _ := cs.BlockCount(); n == 0 {
		t.Fatal("compressed env has no blocks")
	}

	for _, q := range AllQueries {
		base, err := plain.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if base.Rows == 0 {
			t.Errorf("%s: empty result on plain layout", Describe(q))
		}
		for name, env := range map[string]*Env{"clustered": clustered, "compressed": compressed} {
			got, err := env.Run(q)
			if err != nil {
				t.Fatalf("%s on %s: %v", Describe(q), name, err)
			}
			if got != base {
				t.Errorf("%s: %s = %+v, plain = %+v\nsql: %s", Describe(q), name, got, base, env.SQL(q))
			}
		}
		xres, err := xdb.Run(q)
		if err != nil {
			t.Fatalf("%s on xmldb: %v", Describe(q), err)
		}
		switch q {
		case Q1, Q3, Q4:
			if xres.Rows != base.Rows {
				t.Errorf("%s: xmldb rows = %d, sql rows = %d", Describe(q), xres.Rows, base.Rows)
			}
		case Q2, Q5, Q6:
			if xres.Value != base.Value {
				t.Errorf("%s: xmldb value = %q, sql value = %q", Describe(q), xres.Value, base.Value)
			}
		}
	}
}

func TestColdRunsPayPhysicalReads(t *testing.T) {
	clustered, err := Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160})
	if err != nil {
		t.Fatal(err)
	}
	clustered.Cold()
	clustered.Sys.DB.ResetStats()
	if _, err := clustered.Run(Q2); err != nil {
		t.Fatal(err)
	}
	cold := clustered.Sys.DB.Stats().BlockReads
	if cold == 0 {
		t.Fatal("cold Q2 read no blocks")
	}
	clustered.Sys.DB.ResetStats()
	if _, err := clustered.Run(Q2); err != nil {
		t.Fatal(err)
	}
	if warm := clustered.Sys.DB.Stats().BlockReads; warm >= cold {
		t.Errorf("warm run not cheaper: %d vs %d", warm, cold)
	}
}

func TestSegmentPruningBeatsFullScanOnSnapshot(t *testing.T) {
	// Needs enough history that the salary table spans many pages.
	cfg := dataset.DefaultConfig()
	cfg.Employees = 250
	cfg.Years = 10
	plain, err := Build(cfg, Options{Layout: core.LayoutPlain})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := Build(cfg, Options{Layout: core.LayoutClustered, MinSegmentRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	readCount := func(e *Env, q QueryID) int64 {
		e.Cold()
		e.Sys.DB.ResetStats()
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
		return e.Sys.DB.Stats().BlockReads
	}
	p := readCount(plain, Q2)
	c := readCount(clustered, Q2)
	if c >= p {
		t.Errorf("clustered snapshot reads %d blocks, plain %d", c, p)
	}
}

func TestUpdateHelpers(t *testing.T) {
	env, err := Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := env.Run(Q4)
	if err := env.UpdateOne(); err != nil {
		t.Fatal(err)
	}
	if err := env.DailyBatch(10); err != nil {
		t.Fatal(err)
	}
	after, _ := env.Run(Q4)
	if after.Rows != before.Rows && after.Value == before.Value {
		t.Errorf("updates not visible: %+v -> %+v", before, after)
	}
	xdb, err := BuildXMLBaseline(env, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := xdb.XMLUpdateOne(); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveDaySnapshot pins the §6.3 query mapping on the day a
// segment is archived. Versions closed, inserted and hired after the
// archive on that day live in the next segment, so a snapshot on the
// day must read both segments: every layout must give the plain
// layout's answer, through the hand-tuned SQL and through translated
// XQuery.
func TestArchiveDaySnapshot(t *testing.T) {
	var want []string
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Layout: core.LayoutPlain}},
		{"clustered", Options{Layout: core.LayoutClustered, MinSegmentRows: 160}},
		{"compressed", Options{Layout: core.LayoutCompressed, MinSegmentRows: 160, Compress: true}},
	} {
		e, err := Build(smallCfg(), lay.opts)
		if err != nil {
			t.Fatal(err)
		}
		day := e.Sys.Clock().AddDays(1)
		e.Sys.SetClock(day)
		ids, err := e.liveIDs(4)
		if err != nil || len(ids) < 4 {
			t.Fatalf("%s: live ids %v: %v", lay.name, ids, err)
		}
		exec := func(sql string) {
			t.Helper()
			if _, err := e.Sys.Exec(sql); err != nil {
				t.Fatalf("%s: %s: %v", lay.name, sql, err)
			}
		}
		writes := func(update, fire, hire int64) {
			t.Helper()
			exec(fmt.Sprintf(`update employee set salary = salary + 1000 where id = %d`, update))
			exec(fmt.Sprintf(`delete from employee where id = %d`, fire))
			exec(fmt.Sprintf(`insert into employee values (%d, 'new%d', 77000, 'Engineer', 'd01')`, hire, hire))
		}
		writes(ids[0], ids[1], 900001)
		n, err := e.Sys.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if lay.opts.Layout != core.LayoutPlain && n == 0 {
			t.Fatalf("%s: nothing archived", lay.name)
		}
		if lay.opts.Compress {
			if err := e.Sys.CompressFrozen(); err != nil {
				t.Fatal(err)
			}
		}
		writes(ids[2], ids[3], 900002)

		e.SnapshotDay, e.SingleID = day, ids[2]
		var got []string
		for _, q := range []QueryID{Q1, Q2} {
			r, err := e.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s rows=%d value=%s", Describe(q), r.Rows, r.Value))
		}
		for _, xq := range []string{
			fmt.Sprintf(`for $s in doc("employees.xml")/employees/employee[id=%d]/salary[tstart(.) <= xs:date("%s") and tend(.) >= xs:date("%s")] return string($s)`, ids[2], day, day),
			fmt.Sprintf(`for $s in doc("employees.xml")/employees/employee/salary[tstart(.) <= xs:date("%s") and tend(.) >= xs:date("%s")] return string($s)`, day, day),
		} {
			res, err := e.Sys.Query(xq)
			if err != nil {
				t.Fatal(err)
			}
			if res.Path != core.PathSQL {
				t.Fatalf("%s: %s was not translated (path %s)", lay.name, xq, res.Path)
			}
			vals := make([]string, len(res.Items))
			for i, it := range res.Items {
				vals[i] = it.StringValue()
			}
			sort.Strings(vals)
			got = append(got, fmt.Sprintf("xquery %d items %v", len(vals), vals))
		}

		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: snapshot on archive day %s:\n got  %.200s\n want %.200s", lay.name, day, got[i], want[i])
			}
		}
	}
}

func TestLogCaptureEnvEquivalent(t *testing.T) {
	trig, err := Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160, Capture: htable.CaptureTrigger})
	if err != nil {
		t.Fatal(err)
	}
	logged, err := Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160, Capture: htable.CaptureLog})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range AllQueries {
		a, err := trig.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := logged.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: trigger %+v vs log %+v", Describe(q), a, b)
		}
	}
}
