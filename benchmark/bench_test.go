package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The smoke test runs every workload at toy scale with a fixed number
// of rounds, so it is quick, race-clean and independent of timing.

func toyRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, _ := toyRunTrace(t, name, trace)
	return res
}

// toyRunTrace also returns the path of the span file a traced run wrote.
func toyRunTrace(t *testing.T, name string, trace bool) (*result, string) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	res, err := runWorkload(w, runConfig{seed: 5, scale: toyScale, rounds: 3, trace: trace, workDir: dir, tracePath: path})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", name, res.Correct, res.Failed, res.Attempted, res.FirstError)
	}
	return res, path
}

// Every name BENCHMARK.json declares is emitted, with its unit, by the
// run it is declared for on every workload, and nothing else is. The
// span file of a traced run re-parses into well-formed trees (a run
// whose file does not counts that as a failed op) and, on the served
// workload, holds the handler spans under the client's.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	goroutines := runtime.NumGoroutine()
	for _, w := range sp.Workloads {
		for _, side := range []struct {
			trace bool
			want  []specMetric
		}{{false, sp.EndToEnd}, {true, sp.PerLayer}} {
			res, tracePath := toyRunTrace(t, w.Name, side.trace)
			if side.trace && w.Name == "served-replica" {
				data, err := os.ReadFile(tracePath)
				if err != nil || !strings.Contains(string(data), `"server.Handler"`) || !strings.Contains(string(data), `"client.rtt.q1"`) {
					t.Errorf("the served trace lacks client or handler spans (read error: %v)", err)
				}
			}
			if len(res.Metrics) != len(side.want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, side.trace, len(res.Metrics), len(side.want))
			}
			for _, m := range side.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !valid.MatchString(m.Name):
					t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: %s is declared but not emitted", w.Name, side.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, got.Unit, m.Unit)
				case got.Value == nil:
					t.Errorf("%s: %s has no value", w.Name, m.Name)
				case !side.trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.Name, m.Name, *got.Value)
				}
			}
			if side.trace {
				if v := res.Metrics["process.goroutines_end"].Value; v == nil || *v > 0 {
					t.Errorf("%s: the run left goroutines behind", w.Name)
				}
				if v := res.Metrics["translator.fallback_frac"].Value; v == nil || *v < 0.33 || *v > 0.34 {
					t.Errorf("%s: translator.fallback_frac = %v, want 1/3", w.Name, v)
				}
			}
		}
	}
	if extra := runtime.NumGoroutine() - goroutines; extra > 0 {
		t.Errorf("%d goroutines outlive the runs", extra)
	}
}

// The same seed yields byte-identical scripts: history, write stream
// and every client's reads.
func TestSameSeedSameScripts(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		m := newModel(7, toyScale, true)
		for _, st := range m.history() {
			sb.WriteString(st.day.String() + " " + st.sql + "\n")
		}
		for i := 0; i < 500; i++ {
			st := m.nextWrite()
			sb.WriteString(st.day.String() + " " + st.sql)
			if st.valid != nil {
				sb.WriteString(" valid " + st.valid.String())
			}
			sb.WriteByte('\n')
		}
		for client := 0; client < 2; client++ {
			sc := newScript(7, client, m)
			for i := 0; i < 10*len(round); i++ {
				sb.WriteString(sc.next().text + "\n")
			}
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("two generations from one seed differ")
	}
}

// On the single-client workload the exact-count metrics repeat exactly
// across two runs, and under GOMAXPROCS=1 the parallel speed-up is not
// reported.
func TestExactCountsRepeat(t *testing.T) {
	a, b := toyRun(t, "cold-compressed", false), toyRun(t, "cold-compressed", false)
	for _, name := range []string{"stored_bytes_per_user_byte", "wal_bytes_per_write"} {
		if x, y := *a.Metrics[name].Value, *b.Metrics[name].Value; x != y {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b = toyRun(t, "cold-compressed", true), toyRun(t, "cold-compressed", true)
	for _, name := range []string{"blockzip.inflates_per_op", "relstore.page_reads_per_op", "sqlengine.rows_examined_per_op"} {
		if x, y := *a.Metrics[name].Value, *b.Metrics[name].Value; x != y {
			t.Errorf("%s: %v then %v", name, x, y)
		}
	}
	if v := *a.Metrics["sqlengine.rows_examined_per_op"].Value; v == 0 {
		t.Error("the traced run counted no rows examined")
	}
	if v := a.Metrics["sqlengine.workers_speedup"].Value; v != nil {
		t.Errorf("sqlengine.workers_speedup = %v under GOMAXPROCS=1, want null", *v)
	}
}

// Every layout answers every query as the model does, the XQuery forms
// of Q1/Q3 included, so the layouts agree with one another.
func TestLayoutsAgreeWithTheModel(t *testing.T) {
	m := newModel(3, toyScale, true)
	hist := m.history()
	for _, w := range []workload{
		{name: "plain"},
		{name: "clustered", layout: workloads[1].layout},
		{name: "compressed", layout: workloads[0].layout},
	} {
		cfg := runConfig{seed: 3, scale: toyScale, workDir: t.TempDir()}
		cfg.scale.verifyDraws = 20
		e, err := setup(w, cfg, m, hist, cfg.workDir)
		if err != nil {
			t.Fatal(err)
		}
		e.verifyAnswers()
		e.teardown(true)
		if e.failed != 0 {
			t.Errorf("%s layout: %d answers differ from the model: %v", w.name, e.failed, e.firstErr)
		}
	}
}

// compare calls a 20 % slowdown worse, a 20 % speed-up improved, and a
// spread wider than the bound unresolved.
func TestJudge(t *testing.T) {
	m := specMetric{Name: "point_p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 102}, []float64{100, 102, 103}, "unchanged"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, "improved"},
		{[]float64{100, 101, 102}, []float64{80, 120, 160}, "unresolved"},
	} {
		if got, _, _ := judge(c.a, c.b, m); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	m.Better = "higher"
	if got, _, _ := judge([]float64{100, 101}, []float64{80, 81}, m); got != "worse" {
		t.Errorf("a drop of a higher-is-better metric is %s, want worse", got)
	}
}
