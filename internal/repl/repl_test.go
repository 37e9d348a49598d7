package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"archis/internal/bench"
	"archis/internal/core"
	"archis/internal/dataset"
)

// The replica differential: a follower bootstrapped over HTTP and fed
// the live WAL stream must answer every benchmark query identically
// to the primary — at the current state and at any shipped
// point-in-time LSN — on all three storage layouts.

func diffConfig() dataset.Config {
	return dataset.Config{
		Employees:         48,
		Years:             2,
		Departments:       4,
		Seed:              7,
		MonthlyUpdateFrac: 0.25,
		TurnoverFrac:      0.05,
	}
}

// startPrimary checkpoints (so the snapshot covers the generated
// history) and serves the replication endpoints.
func startPrimary(t *testing.T, sys *core.System) (*Primary, *httptest.Server) {
	t.Helper()
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	p, err := NewPrimary(sys)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	p.Attach(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return p, srv
}

func waitCaughtUp(t *testing.T, f *Follower, target uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for f.Sys.AppliedLSN() < target {
		if err := f.Err(); err != nil {
			t.Fatalf("follower stopped: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, want %d", f.Sys.AppliedLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFollowerDifferential(t *testing.T) {
	cases := []struct {
		name string
		opts bench.Options
	}{
		{"plain", bench.Options{Layout: core.LayoutPlain}},
		{"clustered", bench.Options{Layout: core.LayoutClustered}},
		{"compressed", bench.Options{Layout: core.LayoutCompressed, Compress: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.WALDir = t.TempDir()
			env, err := bench.Build(diffConfig(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Sys.Close()
			_, srv := startPrimary(t, env.Sys)

			f, err := Bootstrap(srv.URL, t.TempDir(), FollowerOptions{PollInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Sys.Close()
			// Q6's UDA lives in the bench env, not the snapshot.
			bench.RegisterMaxRaise(f.Sys.Engine)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runDone := make(chan error, 1)
			go func() { runDone <- f.Run(ctx) }()

			// Live mixed-style ingest while the follower is pulling.
			clock := env.Sys.Clock()
			if _, err := env.Sys.ExecDurable(
				"insert into employee values (999001, 'live', 50000, 'Engineer', 'd01')"); err != nil {
				t.Fatal(err)
			}
			var samples []uint64
			for i := 0; i < 12; i++ {
				env.Sys.SetClock(clock.AddDays(i + 1))
				if _, err := env.Sys.ExecDurable(
					"update employee set salary = salary + 7 where id = 999001"); err != nil {
					t.Fatal(err)
				}
				samples = append(samples, env.Sys.Stats().WALAppendedLSN)
			}
			if err := env.Sys.SyncWAL(); err != nil {
				t.Fatal(err)
			}
			waitCaughtUp(t, f, env.Sys.Stats().WALAppendedLSN)
			if lsns, _ := f.Lag(); lsns != 0 {
				t.Errorf("lag = %d lsns after catch-up, want 0", lsns)
			}

			// The full Table 3 suite plus probes every live update moves.
			var queries []string
			for _, q := range bench.AllQueries {
				queries = append(queries, env.SQL(q))
			}
			queries = append(queries,
				"select count(*), sum(S.salary) from employee_salary S",
				"select id, name, salary, title, deptno from employee order by id")
			for _, sql := range queries {
				for _, lsn := range samples {
					pres, perr := env.Sys.ReadAsOf(lsn, sql)
					fres, ferr := f.Sys.ReadAsOf(lsn, sql)
					if perr != nil || ferr != nil {
						t.Fatalf("ReadAsOf(%d, %q): primary err %v, follower err %v", lsn, sql, perr, ferr)
					}
					pg, fg := fmt.Sprintf("%v", pres.Rows), fmt.Sprintf("%v", fres.Rows)
					if pg != fg {
						t.Errorf("ReadAsOf(%d, %q) diverged:\n primary:  %s\n follower: %s", lsn, sql, pg, fg)
					}
				}
			}

			// DML belongs on the primary.
			if _, err := f.Sys.Exec("insert into employee values (1, 'x', 1, 't', 'd01')"); !errors.Is(err, core.ErrReadOnly) {
				t.Errorf("follower accepted DML: %v", err)
			}

			cancel()
			if err := <-runDone; err != nil {
				t.Fatalf("follower run loop: %v", err)
			}
		})
	}
}

// TestAppliedLSNIsVisible pins AppliedLSN to publication: while a
// follower pulls, a reader hammers ReadAsOf(AppliedLSN()) and every
// answer must equal the primary's ledger at that LSN. An AppliedLSN
// that counted a record before its version was published would read
// the previous version. Run with -race.
func TestAppliedLSNIsVisible(t *testing.T) {
	prim, _, srv := newFaultPrimary(t, 0, core.Options{})
	ledger := map[uint64]int64{prim.AppliedLSN(): 0}
	for i := 0; i < 300; i++ {
		if _, err := prim.ExecDurable(fmt.Sprintf(
			"insert into employee values (%d, 'e%d', 40000, 'Engineer', 'd01')", 1000+i, i)); err != nil {
			t.Fatal(err)
		}
		ledger[prim.AppliedLSN()] = int64(i + 1)
	}
	if err := prim.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	target := prim.AppliedLSN()

	f, err := Bootstrap(srv.URL, t.TempDir(), FollowerOptions{MaxPullBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Sys.Close()

	done := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		for reads := 0; ; reads++ {
			select {
			case <-done:
				if reads == 0 {
					readerErr <- fmt.Errorf("reader never ran")
				}
				return
			default:
			}
			lsn := f.Sys.AppliedLSN()
			want, ok := ledger[lsn]
			if !ok {
				continue // before the primary's first statement
			}
			res, err := f.Sys.ReadAsOf(lsn, "select count(*) from employee")
			if err != nil {
				readerErr <- fmt.Errorf("ReadAsOf(%d): %w", lsn, err)
				return
			}
			if got := res.Rows[0][0].I; got != want {
				readerErr <- fmt.Errorf("ReadAsOf(AppliedLSN()=%d) counts %d employees, the primary had %d", lsn, got, want)
				return
			}
		}
	}()
	ctx := context.Background()
	for f.Sys.AppliedLSN() < target {
		if _, err := f.PullOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if lsns, _ := f.Lag(); lsns != 0 {
		t.Errorf("lag = %d lsns after catch-up, want 0", lsns)
	}
}
