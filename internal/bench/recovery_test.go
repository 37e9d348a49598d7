package bench

import (
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/htable"
	"archis/internal/temporal"
	"archis/internal/xmltree"
)

// The differential durability test: a system recovered from its
// snapshot + WAL must be indistinguishable from one that never went
// down — byte-identical H-documents and identical Table 3 answers —
// on every layout and capture mode.

func walCfg() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Employees = 30
	cfg.Years = 3
	cfg.Seed = 17
	return cfg
}

// postLoadActions is extra write traffic applied after the generated
// history, exercising the durable commit path on both systems. Days
// sit past the generated span so the clock only moves forward.
type clockedSQL struct {
	day string
	sql string
}

func postLoadActions() []clockedSQL {
	return []clockedSQL{
		{"1999-01-10", `insert into employee values (900001, 'Walden', 52000, 'Engineer', 'd01')`},
		{"1999-02-15", `insert into employee values (900002, 'Reyes', 61000, 'Analyst', 'd02')`},
		{"1999-04-01", `update employee set salary = 58000 where id = 900001`},
		{"1999-06-20", `update employee set title = 'Sr Engineer', deptno = 'd02' where id = 900001`},
		{"1999-08-05", `update employee set salary = 66000 where id = 900002`},
		{"1999-11-30", `delete from employee where id = 900002`},
	}
}

func applyActions(t *testing.T, sys *core.System, acts []clockedSQL) {
	t.Helper()
	for _, a := range acts {
		sys.SetClock(temporal.MustParseDate(a.day))
		if _, err := sys.ExecDurable(a.sql); err != nil {
			t.Fatalf("%s: %q: %v", a.day, a.sql, err)
		}
	}
}

// hdocBytes serializes a table's published H-document.
func hdocBytes(t *testing.T, sys *core.System, table string) string {
	t.Helper()
	if err := sys.FlushLog(); err != nil {
		t.Fatal(err)
	}
	doc, err := sys.PublishHDoc(table)
	if err != nil {
		t.Fatal(err)
	}
	return xmltree.String(doc)
}

// recoveredEnv wraps a recovered system with the live env's workload
// parameters so both render the suite from the same question set.
func recoveredEnv(sys *core.System, like *Env) *Env {
	// Recovery rebuilds the system, not the bench harness: the suite's
	// user-defined aggregate must be re-registered like Build does.
	RegisterMaxRaise(sys.Engine)
	e := &Env{Sys: sys, Cfg: like.Cfg, Gen: like.Gen}
	e.deriveParams()
	return e
}

func TestRecoveredEqualsContinuous(t *testing.T) {
	for _, tc := range []struct {
		name    string
		layout  core.Layout
		capture htable.CaptureMode
	}{
		{"plain", core.LayoutPlain, htable.CaptureTrigger},
		{"clustered", core.LayoutClustered, htable.CaptureTrigger},
		{"compressed", core.LayoutCompressed, htable.CaptureTrigger},
		{"clustered-logcapture", core.LayoutClustered, htable.CaptureLog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := walCfg()
			base := Options{
				Layout:         tc.layout,
				Capture:        tc.capture,
				MinSegmentRows: 40,
				Compress:       tc.layout == core.LayoutCompressed,
			}

			// The continuously-running reference.
			live, err := Build(cfg, base)
			if err != nil {
				t.Fatal(err)
			}

			// The durable twin: same workload, every post-load action
			// acknowledged through the WAL, then recovered from disk.
			durableOpts := base
			durableOpts.WALDir = t.TempDir()
			durableOpts.WALSegmentBytes = 4096 // force segment rotations
			durable, err := Build(cfg, durableOpts)
			if err != nil {
				t.Fatal(err)
			}

			acts := postLoadActions()
			applyActions(t, live.Sys, acts)
			applyActions(t, durable.Sys, acts[:len(acts)/2])
			// A checkpoint mid-traffic: recovery must replay only the
			// tail past the snapshot, to the same final state.
			if err := durable.Sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			applyActions(t, durable.Sys, acts[len(acts)/2:])
			if err := durable.Sys.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			if err := durable.Sys.Close(); err != nil {
				t.Fatal(err)
			}

			recSys, err := core.Recover(durableOpts.WALDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer recSys.Close()
			st := recSys.Stats()
			if st.WALReplayedRecords == 0 {
				t.Fatal("recovery replayed nothing; the mid-traffic checkpoint should leave a tail")
			}

			// Byte-identical H-documents.
			for _, table := range []string{"employee", "dept"} {
				lv := hdocBytes(t, live.Sys, table)
				rv := hdocBytes(t, recSys, table)
				if lv != rv {
					t.Fatalf("%s H-document differs after recovery (live %d bytes, recovered %d bytes)",
						table, len(lv), len(rv))
				}
			}

			// Identical Table 3 answers (each env renders its own SQL —
			// segment restrictions may differ textually, answers may not).
			rec := recoveredEnv(recSys, live)
			want, err := live.RunBatch(live.SuiteQueries(1), 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rec.RunBatch(rec.SuiteQueries(1), 1)
			if err != nil {
				t.Fatal(err)
			}
			if !SameAnswers(got, want) {
				t.Fatal("recovered system answers the Table 3 suite differently from the continuous one")
			}

			// And the recovered system keeps accepting durable writes.
			recSys.SetClock(temporal.MustParseDate("2000-01-01"))
			if _, err := recSys.ExecDurable(
				`insert into employee values (900003, 'PostRecovery', 48000, 'Intern', 'd01')`); err != nil {
				t.Fatal(err)
			}
		})
	}
}
