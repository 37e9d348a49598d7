package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/relstore"
	"archis/internal/repl"
	"archis/internal/temporal"
)

func newServedSystem(t *testing.T, cfg Config, rows int) (*core.System, *Server, *httptest.Server) {
	t.Helper()
	sys, err := core.New(core.Options{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.Register(dataset.EmployeeSpec()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AliasDoc("emp.xml", "employee"); err != nil {
		t.Fatal(err)
	}
	clock := temporal.MustParseDate("1995-01-01")
	for i := 0; i < rows; i++ {
		sys.SetClock(clock.AddDays(i))
		if _, err := sys.ExecDurable(fmt.Sprintf(
			"insert into employee values (%d, 'e%d', %d, 'Engineer', 'd01')", 1000+i, i, 40000+i)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(sys, nil, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return sys, s, srv
}

func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestServeQueryExecRoundTrip(t *testing.T) {
	_, _, srv := newServedSystem(t, Config{}, 3)

	// A durable write through /exec.
	code, body := post(t, srv.URL+"/exec", request{SQL: "insert into employee values (2000, 'net', 70000, 'Architect', 'd01')"})
	if code != http.StatusOK {
		t.Fatalf("/exec: status %d (%s)", code, body)
	}
	var er response
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.LSN == 0 {
		t.Error("/exec response carries no LSN")
	}

	// Read it back over GET (interactive form).
	code, body = get(t, srv.URL+"/query?sql="+
		"select+id,+name,+salary+from+employee+where+id+=+2000")
	if code != http.StatusOK {
		t.Fatalf("/query: status %d (%s)", code, body)
	}
	var qr response
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][1] != "net" || qr.Rows[0][2] != float64(70000) {
		t.Errorf("/query rows = %v, want one row (2000, net, 70000)", qr.Rows)
	}
	if len(qr.Columns) != 3 {
		t.Errorf("/query columns = %v", qr.Columns)
	}

	// Point-in-time read before the insert sees the old state.
	code, body = get(t, srv.URL+fmt.Sprintf(
		"/query?as_of_lsn=%d&sql=select+count(*)+from+employee", er.LSN-1))
	if code != http.StatusOK {
		t.Fatalf("/query as-of: status %d (%s)", code, body)
	}
	var ar response
	json.Unmarshal(body, &ar)
	if len(ar.Rows) != 1 || ar.Rows[0][0] != float64(3) {
		t.Errorf("as-of count = %v, want 3 (pre-insert)", ar.Rows)
	}

	// A temporal XQuery routes through the H-views.
	code, body = post(t, srv.URL+"/query", request{
		SQL: `for $e in doc("emp.xml")/employees/employee[id=2000] return $e/name`})
	if code != http.StatusOK {
		t.Fatalf("/query xquery: status %d (%s)", code, body)
	}
	var xr response
	json.Unmarshal(body, &xr)
	if len(xr.Items) != 1 || !strings.Contains(xr.Items[0], "net") {
		t.Errorf("xquery items = %v", xr.Items)
	}
}

func TestServeQueryRejectsDML(t *testing.T) {
	_, _, srv := newServedSystem(t, Config{}, 1)
	code, body := post(t, srv.URL+"/query", request{SQL: "update employee set salary = 1 where id = 1000"})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "/exec") {
		t.Fatalf("/query DML: status %d (%s), want 400 pointing at /exec", code, body)
	}
}

func TestServeAdmissionControl(t *testing.T) {
	_, s, srv := newServedSystem(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Millisecond}, 1)

	// Occupy the only execution slot.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	// One request fits in the queue and times out waiting: 503 after
	// ~QueueWait.
	start := time.Now()
	code, body := get(t, srv.URL+"/query?sql=select+count(*)+from+employee")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d (%s), want 503", code, body)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("queue-wait rejection came after %s, want ~30ms of waiting", d)
	}

	// With the queue already full, the next request is rejected
	// immediately.
	done := make(chan struct{})
	go func() {
		defer close(done)
		get(t, srv.URL+"/query?sql=select+count(*)+from+employee")
	}()
	deadline := time.Now().Add(time.Second)
	for s.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never showed up")
		}
		time.Sleep(time.Millisecond)
	}
	start = time.Now()
	code, body = get(t, srv.URL+"/query?sql=select+count(*)+from+employee")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "queue full") {
		t.Fatalf("over-queue request: status %d (%s), want immediate 503 queue full", code, body)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("queue-full rejection took %s, want immediate", d)
	}
	<-done

	if s.rejected.Load() < 2 {
		t.Errorf("rejected counter = %d, want >= 2", s.rejected.Load())
	}
}

// TestServeAsOfPinnedBeforeQueue: a request with as_of_lsn pins its
// version before it queues for a slot, so writes that push the LSN past
// the retention horizon while it waits do not fail it.
func TestServeAsOfPinnedBeforeQueue(t *testing.T) {
	sys, s, srv := newServedSystem(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second}, 1)
	lsn := sys.AppliedLSN()
	s.sem <- struct{}{}
	done := make(chan string, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/query?sql=select+count(*)+from+employee&as_of_lsn=%d", srv.URL, lsn))
		if err != nil {
			done <- err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(body))
	}()
	deadline := time.Now().Add(time.Second)
	for s.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never showed up")
		}
		time.Sleep(time.Millisecond)
	}
	clock := temporal.MustParseDate("1996-01-01")
	for i := 0; i < 100; i++ {
		sys.SetClock(clock.AddDays(i))
		if _, err := sys.ExecDurable(fmt.Sprintf("update employee set salary = %d where id = 1000", 50000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.ReadAsOf(lsn, "select count(*) from employee"); !errors.Is(err, relstore.ErrHorizonPassed) {
		t.Fatalf("ReadAsOf(%d) after 100 writes: %v, want the horizon passed", lsn, err)
	}
	<-s.sem
	if got := <-done; !strings.HasPrefix(got, "200 ") || !strings.Contains(got, `"rows":[[1]]`) {
		t.Errorf("queued as_of_lsn=%d: %s, want 200 with one row", lsn, got)
	}
}

// TestServeErrorPathsDrainPinnedReaders drives every /query failure
// mode that can have a version pinned when it aborts — parse errors,
// unknown tables, bad bitemporal parameters, statement-class
// rejections, and a deadline firing mid-join under both as_of_lsn and
// valid_as_of — then asserts the pinned-reader gauge is back at zero:
// no error return may leak a snapshot handle.
func TestServeErrorPathsDrainPinnedReaders(t *testing.T) {
	sys, _, srv := newServedSystem(t, Config{}, 120)
	lsn := sys.Stats().WALAppendedLSN

	for _, c := range []struct {
		name string
		url  string
		req  request
		want int
	}{
		{"parse error", "/query", request{SQL: "select from from employee"}, http.StatusBadRequest},
		{"unknown table", "/query", request{SQL: "select * from nope"}, http.StatusBadRequest},
		{"unknown table as-of", "/query", request{SQL: "select * from nope", AsOfLSN: lsn}, http.StatusBadRequest},
		{"as_of_lsn past the retention horizon", "/query", request{SQL: "select count(*) from employee", AsOfLSN: 1}, http.StatusGone},
		{"bad valid_as_of", "/query", request{SQL: "select * from employee", ValidAsOf: "not-a-date"}, http.StatusBadRequest},
		{"as_of_lsn on DML", "/query", request{SQL: "update employee set salary = 1", AsOfLSN: lsn}, http.StatusBadRequest},
		{"DML on /query", "/query", request{SQL: "delete from employee"}, http.StatusBadRequest},
		{"valid_as_of on xquery", "/query", request{SQL: `for $e in doc("emp.xml")/employees/employee return $e`, ValidAsOf: "1995-01-01"}, http.StatusBadRequest},
		{"timeout mid-join", "/query", request{
			SQL: "select count(*) from employee a, employee b, employee c" +
				" where a.salary + b.salary + c.salary = 1",
			AsOfLSN:   lsn,
			ValidAsOf: "1995-01-01",
			TimeoutMS: 20,
		}, http.StatusGatewayTimeout},
	} {
		code, body := post(t, srv.URL+c.url, c.req)
		if code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, body, c.want)
		}
	}

	if n := sys.DB.Stats().PinnedReaders; n != 0 {
		t.Errorf("pinned_readers = %d after error sweep, want 0 (leaked snapshot handle)", n)
	}

	// The archive still serves good queries after the abuse.
	code, body := get(t, srv.URL+"/query?sql=select+count(*)+from+employee&valid_as_of=1995-02-01")
	if code != http.StatusOK {
		t.Fatalf("post-sweep query: status %d (%s)", code, body)
	}
}

func TestServeQueryTimeout(t *testing.T) {
	_, _, srv := newServedSystem(t, Config{}, 250)
	// A 15M-triple nested-loop join, cut off after 30ms: the engine's
	// cancellation probes must surface context.DeadlineExceeded as 504.
	code, body := post(t, srv.URL+"/query", request{
		SQL: "select count(*) from employee a, employee b, employee c" +
			" where a.salary + b.salary + c.salary = 1",
		TimeoutMS: 30,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out query: status %d (%s), want 504", code, body)
	}
}

func TestServeFollowerForbidsWritesAndReportsLag(t *testing.T) {
	prim, _, _ := newServedSystem(t, Config{}, 4)
	if err := prim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p, err := repl.NewPrimary(prim)
	if err != nil {
		t.Fatal(err)
	}
	pmux := http.NewServeMux()
	p.Attach(pmux)
	psrv := httptest.NewServer(pmux)
	defer psrv.Close()

	f, err := repl.Bootstrap(psrv.URL, t.TempDir(), repl.FollowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Sys.Close()
	fs := New(f.Sys, f, Config{})
	fsrv := httptest.NewServer(fs.Handler())
	defer fsrv.Close()

	// Writes are rejected by the replica system itself: 403.
	code, body := post(t, fsrv.URL+"/exec", request{SQL: "insert into employee values (1, 'x', 1, 't', 'd01')"})
	if code != http.StatusForbidden {
		t.Fatalf("follower /exec: status %d (%s), want 403", code, body)
	}

	// Reads work.
	if _, err := f.PullOnce(t.Context()); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, fsrv.URL+"/query?sql=select+count(*)+from+employee")
	if code != http.StatusOK {
		t.Fatalf("follower /query: status %d (%s)", code, body)
	}

	// healthz reports the follower role and lag fields.
	code, body = get(t, fsrv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	var h health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "follower" || h.Status != "ok" {
		t.Errorf("healthz = %+v, want follower/ok", h)
	}
	if h.AppliedLSN == 0 {
		t.Error("healthz applied_lsn = 0 on a caught-up follower")
	}

	// The metrics surface includes replication lag and admission gauges.
	_, body = get(t, fsrv.URL+"/metrics")
	for _, key := range []string{"repl.lag_lsns", "repl.lag_ns", "server.in_flight", "server.query_ns"} {
		if !strings.Contains(string(body), key) {
			t.Errorf("/metrics missing %q", key)
		}
	}
}
