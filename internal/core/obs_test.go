package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"archis/internal/htable"
)

// TestStatsRace hammers the read-side observability surfaces —
// Stats(), WALStats(), MetricsSnapshot(), MetricsJSON() — while
// durable writers run. Under -race this pins down the old bug where
// Stats() read s.replayed without synchronization against Recover and
// assembled WAL counters while ExecDurable advanced them.
func TestStatsRace(t *testing.T) {
	dir := t.TempDir()
	s := buildDurable(t, dir, nil, htable.CaptureTrigger)
	s.SetClock(day("1995-01-01"))

	const writers, inserts = 4, 25
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Stats()
				_ = s.WALStats()
				_ = s.MetricsSnapshot()
				_ = s.MetricsJSON()
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < inserts; i++ {
				id := w*inserts + i + 1
				stmt := fmt.Sprintf("INSERT INTO emp VALUES (%d, 'w%d', %d)", id, w, 100+id)
				if _, err := s.ExecDurable(stmt); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.WALAppends == 0 {
		t.Fatal("no WAL appends recorded after durable writes")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recover the directory and read Stats concurrently with replay-
	// adjacent state: the replayed counter must come through atomically.
	s2, err := Recover(dir, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats().WALReplayedRecords; got == 0 {
		t.Fatal("recovery replayed nothing; expected a log tail past the birth checkpoint")
	}
}

// TestMetricsSnapshotWAL asserts the acceptance criterion that a
// durable system's MetricsSnapshot exposes the WAL latency histograms
// and counters.
func TestMetricsSnapshotWAL(t *testing.T) {
	dir := t.TempDir()
	s := buildDurable(t, dir, nil, htable.CaptureTrigger)
	defer s.Close()
	runWorkload(t, s)

	snap := s.MetricsSnapshot()
	for _, name := range []string{"wal.append_ns", "wal.fsync_ns", "wal.commit_ns"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("snapshot is missing histogram %s; have %v", name, snap.Histograms)
		}
		if h.Count == 0 {
			t.Errorf("histogram %s recorded nothing after a durable workload", name)
		}
		if h.SumNS <= 0 || h.P99NS < h.P50NS {
			t.Errorf("histogram %s has implausible shape: %+v", name, h)
		}
	}
	if snap.Counters["wal.appends"] == 0 {
		t.Error("wal.appends counter is zero after durable writes")
	}
	if snap.Counters["wal.fsyncs"] == 0 {
		t.Error("wal.fsyncs counter is zero after durable writes")
	}
	if snap.Gauges["wal.appended_lsn"] == 0 {
		t.Error("wal.appended_lsn gauge is zero after durable writes")
	}
	if snap.Counters["relstore.rows_borrowed"] == 0 && snap.Counters["relstore.rows_copied"] == 0 {
		t.Error("no relstore row counters moved during the workload")
	}
	b := s.MetricsJSON()
	if !strings.Contains(string(b), `"wal.fsync_ns"`) {
		t.Error("MetricsJSON does not mention wal.fsync_ns")
	}
}

// TestQueryTraced checks the span tree of a translated temporal query:
// translation and execution spans present, storage deltas attributed
// on the root.
func TestQueryTraced(t *testing.T) {
	s := newLoadedSystem(t, Options{})

	q := `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`
	res, trace, err := s.QueryTraced(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Path != PathSQL {
		t.Fatalf("path = %s, want sql/xml", res.Path)
	}
	plain, err := s.Query(q)
	if err != nil {
		t.Fatalf("untraced query: %v", err)
	}
	if fmt.Sprintf("%v", plain.Items) != fmt.Sprintf("%v", res.Items) {
		t.Fatalf("traced and untraced results differ:\n%v\n%v", plain.Items, res.Items)
	}
	if trace.Root == nil || trace.Query != q {
		t.Fatalf("trace lacks root or query: %+v", trace)
	}
	if trace.Find("translate") == nil {
		t.Errorf("trace has no translate span:\n%s", trace.Tree())
	}
	if trace.Find("scan") == nil {
		t.Errorf("trace has no scan span:\n%s", trace.Tree())
	}
	if trace.Root.Attr("path") != "sql/xml" {
		t.Errorf("root path attr = %q, want sql/xml", trace.Root.Attr("path"))
	}

	// The XML fallback path must carry xquery spans instead.
	xq := `for $e in doc("emp.xml")/employees/employee[name="Bob"]
let $overlaps := restructure($e/deptno, $e/title)
return max($overlaps)`
	xres, xtrace, err := s.QueryTraced(xq)
	if err != nil {
		t.Fatalf("xml query: %v", err)
	}
	if xres.Path != PathXML {
		t.Fatalf("path = %s, want xml", xres.Path)
	}
	if xtrace.Find("xquery:eval") == nil {
		t.Errorf("xml trace has no xquery:eval span:\n%s", xtrace.Tree())
	}

	// A SELECT is answered in Result; the root counts its rows.
	sres, strace, err := s.QueryTraced("select name from employee")
	if err != nil {
		t.Fatalf("sql query: %v", err)
	}
	if n := int64(len(sres.Result.Rows)); n == 0 || strace.Root.RowsOut != n {
		t.Errorf("root rows_out = %d, want the %d result rows", strace.Root.RowsOut, n)
	}
}

// TestSlowQueryLog drives the threshold to one nanosecond so every
// statement logs, then calls every statement-running method on a
// durable system and requires exactly one well-formed record per call,
// labelled with the path that answered it.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var records []string
	s := newLoadedSystem(t, Options{
		WALDir:             t.TempDir(),
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog: func(rec string) {
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		},
	})
	t.Cleanup(func() { s.Close() })
	take := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := records
		records = nil
		return out
	}
	take()

	const (
		sel        = "SELECT name\nFROM employee\nORDER BY name"
		write      = "update employee set salary = 71000 where id = 1001"
		translated = `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`
		fallback   = `for $e in doc("emp.xml")/employees/employee[name="Bob"]
let $overlaps := restructure($e/deptno, $e/title)
return max($overlaps)`
	)
	lsn := s.AppliedLSN()
	for _, c := range []struct {
		name, path string
		call       func() error
	}{
		{"Do", "sql", func() error { _, err := s.Do(context.Background(), sel); return err }},
		{"Exec read", "sql", func() error { _, err := s.Exec(sel); return err }},
		{"Exec write", "sql", func() error { _, err := s.Exec(write); return err }},
		{"ExecDurable", "sql", func() error { _, err := s.ExecDurable(write); return err }},
		{"ReadAsOf", "sql", func() error { _, err := s.ReadAsOf(lsn, sel); return err }},
		{"Query translated", "sql/xml", func() error { _, err := s.Query(translated); return err }},
		{"Query fallback", "xml", func() error { _, err := s.Query(fallback); return err }},
		{"QueryXML", "xml", func() error { _, err := s.QueryXML(translated); return err }},
		{"QueryTraced", "sql/xml", func() error { _, _, err := s.QueryTraced(translated); return err }},
		{"RunParallel SQL", "sql", func() error { return s.RunParallel([]string{sel}, 1)[0].Err }},
		{"RunParallel XQuery", "sql/xml", func() error { return s.RunParallel([]string{translated}, 1)[0].Err }},
	} {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		recs := take()
		if len(recs) != 1 {
			t.Errorf("%s: %d slow-query records, want 1: %q", c.name, len(recs), recs)
			continue
		}
		rec := recs[0]
		if !strings.HasPrefix(rec, "slow_query path="+c.path+" ") {
			t.Errorf("%s: record %q, want prefix slow_query path=%s", c.name, rec, c.path)
		}
		if strings.Contains(rec, "\n") {
			t.Errorf("%s: record %q contains a newline; queries must be collapsed", c.name, rec)
		}
		for _, field := range []string{" dur=", " rows=", " status=ok", " query="} {
			if !strings.Contains(rec, field) {
				t.Errorf("%s: record %q lacks %s field", c.name, rec, field)
			}
		}
	}

	// Exec rejects an XQuery before running it, so nothing is recorded.
	if _, err := s.Exec(translated); err == nil || !strings.Contains(err.Error(), "not a SQL statement") {
		t.Errorf("Exec of an XQuery: %v, want a not-a-SQL-statement error", err)
	}
	if recs := take(); len(recs) != 0 {
		t.Errorf("Exec of an XQuery ran it: %q", recs)
	}
}

// TestSlowQueryRecordRuneBoundary: truncation of an over-long query
// must never split a multibyte rune — the log line stays valid UTF-8
// no matter where the 200-byte cap lands.
func TestSlowQueryRecordRuneBoundary(t *testing.T) {
	// Each э is two bytes, so for some prefix lengths the byte cap
	// lands mid-rune; shifting a one-byte prefix sweeps every phase.
	for pad := 0; pad < 4; pad++ {
		q := strings.Repeat("x", pad) + strings.Repeat("э", 200)
		rec := slowQueryRecord("sql", q, time.Millisecond, 0, nil)
		if !utf8.ValidString(rec) {
			t.Errorf("pad %d: truncated record is not valid UTF-8: %q", pad, rec)
		}
		if !strings.Contains(rec, `...`) {
			t.Errorf("pad %d: long query was not truncated: %q", pad, rec)
		}
	}
	// Short queries pass through untouched.
	rec := slowQueryRecord("sql", "select 1", time.Millisecond, 1, nil)
	if strings.Contains(rec, "...") {
		t.Errorf("short query was truncated: %q", rec)
	}
}

// TestRunParallelExplain checks that EXPLAIN statements route through
// the read-only SQL path instead of falling through to XQuery.
func TestRunParallelExplain(t *testing.T) {
	s, err := New(Options{Capture: htable.CaptureTrigger})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Register(empSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.SetClock(day("1995-01-01"))
	if _, err := s.Exec("INSERT INTO emp VALUES (1, 'n1', 100)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	out := s.RunParallel([]string{
		"EXPLAIN SELECT id FROM emp",
		"explain analyze select id from emp",
	}, 2)
	for i, pr := range out {
		if pr.Err != nil {
			t.Fatalf("query %d: %v", i, pr.Err)
		}
		if len(pr.Result.Result.Rows) == 0 {
			t.Fatalf("query %d returned an empty plan", i)
		}
	}
}
