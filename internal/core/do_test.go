package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// TestDoOptionRules calls Do with every option combination it must
// reject while a writer runs beside it. Each call must fail, publish
// no version of its own and leave no snapshot pinned.
func TestDoOptionRules(t *testing.T) {
	s := newLoadedSystem(t, Options{WALDir: t.TempDir()})
	t.Cleanup(func() { s.Close() })

	// The writer counts its own publishes under mu, so the epoch delta
	// it owes can be told apart from one a rejected call caused.
	var mu sync.Mutex
	writes := int64(0)
	stop, started := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if i == 1 {
				close(started)
			}
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			mu.Lock()
			_, err := s.ExecDurable("update employee set salary = salary + 1 where id = 1002")
			writes++
			mu.Unlock()
			if err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("writer: %v", err)
	}
	state := func() (epoch, owed int64) {
		mu.Lock()
		defer mu.Unlock()
		return s.DB.Stats().Epoch, writes
	}

	const (
		sel     = "select name from employee where id = 1001"
		explain = "explain select name from employee"
		xq      = `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`
	)
	d := temporal.MustParseDate("1995-06-01")
	iv := temporal.Interval{Start: d, End: temporal.Forever}
	lsn := s.AppliedLSN()
	var pins []*relstore.Snapshot
	pinned := func() ExecOpt {
		sn, err := s.DB.SnapshotAt(lsn)
		if err != nil {
			t.Fatal(err)
		}
		pins = append(pins, sn)
		return AtSnapshot(sn)
	}
	for _, c := range []struct {
		name string
		stmt string
		opts []ExecOpt
	}{
		{"WithValidTime on select", sel, []ExecOpt{WithValidTime(iv)}},
		{"WithValidTime on explain", explain, []ExecOpt{WithValidTime(iv)}},
		{"AsOfValidTime on update", "update employee set salary = 1 where id = 1001", []ExecOpt{AsOfValidTime(d)}},
		{"AsOfTransactionTime on insert", "insert into employee values (7, 'x', 1, 't', 'd01')", []ExecOpt{AsOfTransactionTime(lsn)}},
		{"AtSnapshot on delete", "delete from employee where id = 1002", []ExecOpt{pinned()}},
		{"AsOfValidTime on create", "create table t_rule (a int)", []ExecOpt{AsOfValidTime(d)}},
		{"empty WithValidTime on update", "update employee set salary = 1 where id = 1001",
			[]ExecOpt{WithValidTime(temporal.Interval{Start: d, End: d.AddDays(-1)})}},
		{"AsOfValidTime on xquery", xq, []ExecOpt{AsOfValidTime(d)}},
		{"AsOfTransactionTime on xquery", xq, []ExecOpt{AsOfTransactionTime(lsn)}},
		{"AtSnapshot on xquery", xq, []ExecOpt{pinned()}},
		{"WithValidTime on xquery", xq, []ExecOpt{WithValidTime(iv)}},
		{"Durable on xquery", xq, []ExecOpt{Durable()}},
		{"AsOfTransactionTime via ViaXML", sel, []ExecOpt{ViaXML(), AsOfTransactionTime(lsn)}},
		{"ReadOnly with insert", "insert into employee values (8, 'y', 1, 't', 'd01')", []ExecOpt{ReadOnly()}},
		{"ReadOnly with update", "update employee set salary = 1 where id = 1001", []ExecOpt{ReadOnly()}},
		{"ReadOnly with delete", "-- hidden\ndelete from employee", []ExecOpt{ReadOnly()}},
		{"ReadOnly with create", "create table t_rule (a int)", []ExecOpt{ReadOnly(), Durable()}},
		{"ReadOnly with drop", "(drop table dept)", []ExecOpt{ReadOnly()}},
	} {
		e0, w0 := state()
		_, err := s.Do(context.Background(), c.stmt, c.opts...)
		e1, w1 := state()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if got, want := e1-e0, w1-w0; got != want {
			t.Errorf("%s: epoch moved %d, the writer published %d: the rejected call published", c.name, got, want)
		}
		if n := s.DB.Stats().PinnedReaders; n != int64(len(pins)) {
			t.Errorf("%s: %d pinned readers, want the test's own %d", c.name, n, len(pins))
		}
		if strings.HasPrefix(c.name, "ReadOnly") && !errors.Is(err, ErrWriteStatement) {
			t.Errorf("%s: %v, want ErrWriteStatement", c.name, err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if res, err := s.Exec("select count(*) from employee where id = 7 or id = 8"); err != nil || res.Rows[0][0].I != 0 {
		t.Errorf("rejected inserts: %v %v", res, err)
	}
	if _, err := s.Exec("select count(*) from t_rule"); err == nil {
		t.Error("a rejected CREATE TABLE ran")
	}
	if _, err := s.Exec("select count(*) from dept"); err != nil {
		t.Errorf("dept after a rejected DROP: %v", err)
	}
	for _, sn := range pins {
		sn.Release()
	}
	if n := s.DB.Stats().PinnedReaders; n != 0 {
		t.Errorf("%d pinned readers at the end, want 0", n)
	}
}
