package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/temporal"
	"archis/internal/wal"
	"archis/internal/xmltree"
)

// The crash matrix: a scripted durable workload is run once to count
// every fsync it issues, then re-run once per fsync with the file
// layer configured to kill the process at exactly that boundary (with
// and without torn unsynced bytes surviving). Each survivor is
// recovered and must answer the Table 3 suite — and publish H-docs —
// exactly like some statement prefix at least as long as what was
// acknowledged: durability for acked statements, atomicity always.

// crashStep is one scripted action, applied to the durable system
// under test and to the in-memory reference twin.
type crashStep struct {
	name    string
	durable func(*core.System) error
	twin    func(*core.System) error
}

func crashScript() []crashStep {
	ddl := func(spec string) crashStep {
		emp := spec == "employee"
		return crashStep{
			name: "register " + spec,
			durable: func(s *core.System) error {
				if emp {
					return s.Register(dataset.EmployeeSpec())
				}
				return s.Register(dataset.DeptSpec())
			},
			twin: func(s *core.System) error {
				if emp {
					return s.Register(dataset.EmployeeSpec())
				}
				return s.Register(dataset.DeptSpec())
			},
		}
	}
	dml := func(day, sql string) crashStep {
		at := temporal.MustParseDate(day)
		return crashStep{
			name: day + " " + sql,
			durable: func(s *core.System) error {
				s.SetClock(at)
				_, err := s.ExecDurable(sql)
				return err
			},
			twin: func(s *core.System) error {
				s.SetClock(at)
				_, err := s.Exec(sql)
				return err
			},
		}
	}
	return []crashStep{
		ddl("employee"),
		ddl("dept"),
		dml("1992-01-01", `insert into dept values ('d02', 'RD', 3402)`),
		dml("1994-01-01", `insert into dept values ('d01', 'QA', 2501)`),
		dml("1995-01-01", `insert into employee values (1001, 'Bob', 60000, 'Engineer', 'd01')`),
		dml("1995-03-01", `insert into employee values (1002, 'Alice', 50000, 'Engineer', 'd01')`),
		dml("1995-06-01", `update employee set salary = 70000 where id = 1001`),
		{
			name:    "checkpoint",
			durable: func(s *core.System) error { return s.Checkpoint() },
			twin:    func(s *core.System) error { return nil },
		},
		dml("1995-10-01", `update employee set title = 'Sr Engineer', deptno = 'd02' where id = 1001`),
		dml("1996-01-01", `update employee set salary = 65000 where id = 1002`),
		dml("1996-07-01", `update dept set mgrno = 1009 where deptno = 'd02'`),
		dml("1997-01-01", `delete from employee where id = 1001`),
	}
}

// crashEnv wraps a system with fixed workload parameters so the Table
// 3 suite renders against the scripted micro-history.
func crashEnv(sys *core.System) *Env {
	RegisterMaxRaise(sys.Engine)
	return &Env{
		Sys:         sys,
		SingleID:    1001,
		SnapshotDay: temporal.MustParseDate("1996-01-15"),
		SliceLo:     temporal.MustParseDate("1995-06-01"),
		SliceHi:     temporal.MustParseDate("1996-06-01"),
		JoinStart:   temporal.MustParseDate("1995-01-01"),
	}
}

// crashFingerprint captures everything the matrix compares: the H-docs
// of both tables and the six suite answers. Defined (and distinct) at
// every script prefix, including before the tables exist.
func crashFingerprint(sys *core.System) (string, error) {
	if err := sys.FlushLog(); err != nil {
		return "", err
	}
	var b strings.Builder
	tables := 0
	for _, table := range []string{"employee", "dept"} {
		if _, ok := sys.Archive.Spec(table); !ok {
			fmt.Fprintf(&b, "%s:absent\n", table)
			continue
		}
		tables++
		doc, err := sys.PublishHDoc(table)
		if err != nil {
			return "", err
		}
		b.WriteString(xmltree.String(doc))
		b.WriteString("\n")
	}
	if tables < 2 {
		return b.String(), nil
	}
	e := crashEnv(sys)
	for _, q := range AllQueries {
		r, err := e.Run(q)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "Q%d:%+v\n", q, r)
	}
	return b.String(), nil
}

func crashOpts(dir string, fsys wal.FS) core.Options {
	return core.Options{
		Layout:         core.LayoutClustered,
		MinSegmentRows: 4,
		WALDir:         dir,
		WALFS:          fsys,
		// Tiny segments so the matrix crosses rotation boundaries too.
		WALSegmentBytes: 256,
	}
}

// TestCrashUnderConcurrentReaders kills the WAL at selected fsync
// boundaries while reader goroutines are mid-scan against the same
// system. Readers run on pinned snapshots, so even as the writer dies
// mid-statement each must only ever observe complete statement
// prefixes — checked by requiring every reader's history row count to
// be monotone. The survivor must recover to an acked-or-later prefix
// exactly as in the plain matrix, and ReadAsOf must serve the
// recovered tail from the replayed version ring.
func TestCrashUnderConcurrentReaders(t *testing.T) {
	script := crashScript()

	// Reference run for the fsync budget and per-prefix fingerprints.
	refFS := wal.NewFaultFS()
	refSys, err := core.New(crashOpts(t.TempDir(), refFS))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range script {
		if err := st.durable(refSys); err != nil {
			t.Fatalf("reference run, %s: %v", st.name, err)
		}
	}
	totalSyncs := refFS.SyncCount()

	expected := make([]string, 0, len(script)+1)
	twin, err := core.New(core.Options{Layout: core.LayoutClustered, MinSegmentRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := crashFingerprint(twin)
	if err != nil {
		t.Fatal(err)
	}
	expected = append(expected, fp)
	for _, st := range script {
		if err := st.twin(twin); err != nil {
			t.Fatalf("twin, %s: %v", st.name, err)
		}
		if fp, err = crashFingerprint(twin); err != nil {
			t.Fatalf("twin fingerprint after %s: %v", st.name, err)
		}
		expected = append(expected, fp)
	}

	// A spread of kill points rather than the full matrix: the reader
	// interaction is identical at every boundary, the recovery logic is
	// covered exhaustively by TestCrashMatrix.
	kills := []int{totalSyncs / 4, totalSyncs / 2, 3 * totalSyncs / 4, totalSyncs}
	for _, k := range kills {
		if k < 1 {
			k = 1
		}
		t.Run(fmt.Sprintf("sync%02d", k), func(t *testing.T) {
			fault := wal.NewFaultFS()
			fault.StopAfterSyncs = k
			fault.TornTailBytes = 5
			dir := t.TempDir()

			acked := 0
			sys, err := core.New(crashOpts(dir, fault))
			if err != nil {
				t.Skipf("crash before the system came up: %v", err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			readerErrs := make(chan error, 4)
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					last := int64(-1)
					for {
						select {
						case <-stop:
							return
						default:
						}
						// History rows only ever accumulate; a smaller count
						// than previously seen means a torn or rolled-back
						// write leaked into a snapshot.
						res, err := sys.Exec(`select count(*) from employee_salary S`)
						if err != nil || len(res.Rows) != 1 {
							continue // table not registered yet, or mid-crash
						}
						n, _ := res.Rows[0][0].AsInt()
						if n < last {
							readerErrs <- fmt.Errorf("reader %d: history count went backwards: %d -> %d", g, last, n)
							return
						}
						last = n
					}
				}(g)
			}
			for _, st := range script {
				if err := st.durable(sys); err != nil {
					break
				}
				acked++
			}
			close(stop)
			wg.Wait()
			close(readerErrs)
			for err := range readerErrs {
				t.Error(err)
			}
			if !fault.Crashed() && acked < len(script) {
				t.Fatalf("run stopped after %d/%d steps without a crash", acked, len(script))
			}

			rec, err := core.Recover(dir, fault.Survivor())
			if err != nil {
				if acked == 0 {
					t.Skipf("crash before the system came up: %v", err)
				}
				t.Fatalf("recover after %d acked steps: %v", acked, err)
			}
			defer rec.Close()
			got, err := crashFingerprint(rec)
			if err != nil {
				t.Fatalf("fingerprint of recovered system: %v", err)
			}
			match := -1
			for j := acked; j < len(expected); j++ {
				if got == expected[j] {
					match = j
					break
				}
			}
			if match < 0 {
				t.Fatalf("recovered state matches no acked-or-later script prefix (acked %d)", acked)
			}

			// ReadAsOf against the recovered system: the replay publishes
			// one version per WAL record, so the newest retained version at
			// the appended LSN must answer exactly like a live read, and a
			// pre-checkpoint LSN resolves to the recovered base state
			// rather than erroring.
			if _, ok := rec.Archive.Spec("employee"); ok {
				live, err := rec.Exec(`select count(*) from employee_salary S`)
				if err != nil {
					t.Fatal(err)
				}
				lsn := rec.WALStats().AppendedLSN
				asOf, err := rec.ReadAsOf(lsn, `select count(*) from employee_salary S`)
				if err != nil {
					t.Fatalf("ReadAsOf(%d): %v", lsn, err)
				}
				if a, b := live.Rows[0][0].Text(), asOf.Rows[0][0].Text(); a != b {
					t.Errorf("ReadAsOf(%d) = %s rows, live read = %s", lsn, b, a)
				}
				early, err := rec.ReadAsOf(0, `select count(*) from employee_salary S`)
				base, serr := rec.DB.SnapshotAt(0)
				if serr != nil {
					t.Fatalf("SnapshotAt(0): %v", serr)
				}
				_, had := base.Table("employee_salary")
				base.Release()
				if !had {
					// The base state predates the archive: a read pinned
					// there fails as that version says, never answering
					// from the live tables.
					if err == nil || !strings.Contains(err.Error(), "no such table") {
						t.Fatalf("ReadAsOf(0) before employee_salary existed: %v, want no such table", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("ReadAsOf(0): %v", err)
				}
				n, _ := early.Rows[0][0].AsInt()
				m, _ := live.Rows[0][0].AsInt()
				if n > m {
					t.Errorf("ReadAsOf(0) sees %d rows, newer than the live read's %d", n, m)
				}
			}
		})
	}
}

func TestCrashMatrix(t *testing.T) {
	script := crashScript()

	// Reference run: count every fsync the full script issues.
	refFS := wal.NewFaultFS()
	refSys, err := core.New(crashOpts(t.TempDir(), refFS))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range script {
		if err := st.durable(refSys); err != nil {
			t.Fatalf("reference run, %s: %v", st.name, err)
		}
	}
	totalSyncs := refFS.SyncCount()
	if totalSyncs < len(script) {
		t.Fatalf("reference run issued %d fsyncs for %d steps; the commit path is not syncing", totalSyncs, len(script))
	}

	// Expected states: the fingerprint after every prefix of the script,
	// from an in-memory twin that never crashes.
	expected := make([]string, 0, len(script)+1)
	twin, err := core.New(core.Options{Layout: core.LayoutClustered, MinSegmentRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := crashFingerprint(twin)
	if err != nil {
		t.Fatal(err)
	}
	expected = append(expected, fp)
	for _, st := range script {
		if err := st.twin(twin); err != nil {
			t.Fatalf("twin, %s: %v", st.name, err)
		}
		if fp, err = crashFingerprint(twin); err != nil {
			t.Fatalf("twin fingerprint after %s: %v", st.name, err)
		}
		expected = append(expected, fp)
	}

	// The matrix: kill at every fsync boundary, with and without torn
	// unsynced bytes surviving past the cut.
	for k := 1; k <= totalSyncs; k++ {
		for _, torn := range []int{0, 7} {
			t.Run(fmt.Sprintf("sync%02d-torn%d", k, torn), func(t *testing.T) {
				fault := wal.NewFaultFS()
				fault.StopAfterSyncs = k
				fault.TornTailBytes = torn
				dir := t.TempDir()

				acked := 0
				sys, err := core.New(crashOpts(dir, fault))
				if err == nil {
					for _, st := range script {
						if err := st.durable(sys); err != nil {
							break
						}
						acked++
					}
				}
				if !fault.Crashed() && acked < len(script) {
					t.Fatalf("run stopped after %d/%d steps without a crash", acked, len(script))
				}

				rec, err := core.Recover(dir, fault.Survivor())
				if err != nil {
					// Only a crash before the birth checkpoint finished may
					// leave nothing to recover — and then nothing was acked.
					if acked == 0 {
						t.Skipf("crash before the system came up: %v", err)
					}
					t.Fatalf("recover after %d acked steps: %v", acked, err)
				}
				defer rec.Close()
				got, err := crashFingerprint(rec)
				if err != nil {
					t.Fatalf("fingerprint of recovered system: %v", err)
				}
				match := -1
				for j := acked; j < len(expected); j++ {
					if got == expected[j] {
						match = j
						break
					}
				}
				if match < 0 {
					// Either a shorter prefix (lost an acked statement) or no
					// prefix at all (partial statement survived).
					for j := 0; j < acked; j++ {
						if got == expected[j] {
							t.Fatalf("recovered state is prefix %d but %d statements were acknowledged", j, acked)
						}
					}
					t.Fatalf("recovered state matches no script prefix (acked %d)", acked)
				}
			})
		}
	}
}
