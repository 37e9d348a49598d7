package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"archis/internal/core"
	"archis/internal/obs"
	"archis/internal/sqlengine"
)

// buildExplainEnv pins everything the plans depend on: the seeded
// small workload, MinSegmentRows=160 (buildAll's setting) and two
// intra-query workers, so EXPLAIN output is byte-stable across
// machines.
func buildExplainEnv(t *testing.T, opts Options) *Env {
	t.Helper()
	opts.Workers = 2
	opts.MinSegmentRows = 160
	e, err := Build(smallCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func explain(t *testing.T, e *Env, sql string) string {
	t.Helper()
	res, err := e.Sys.Exec("EXPLAIN " + sql)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].Text())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainGolden locks the static plans of the Table 3 suite (plus
// the self-join formulation of Q6) on the clustered layout, and
// checks the compressed layout plans match in shape — compression is
// a storage-level change that may shift cardinality estimates but
// never the chosen access path or operators.
func TestExplainGolden(t *testing.T) {
	e := buildExplainEnv(t, Options{Layout: core.LayoutClustered})
	// Every read is one scan line. Q1 and Q3 pin one id: the store
	// answers them with one index-probe morsel, so they stay serial;
	// the other reads fan out over both workers.
	golden := map[QueryID]string{
		Q1: `select
  scan S (virtual) bounds=4 filter=4 conjuncts est=1
  project cols=1
`,
		Q2: `select
  scan S (virtual) bounds=3 filter=3 conjuncts est=3 workers=2
  project cols=1
`,
		Q3: `select
  scan S (virtual) bounds=1 filter=1 conjuncts est=74
  project cols=3 order-by=1
`,
		Q4: `select
  scan S (virtual) est=743 workers=2
  project cols=1
`,
		Q5: `select
  scan S (virtual) bounds=3 filter=4 conjuncts est=7 workers=2
  project cols=1
`,
		Q6: `select
  scan S (virtual) bounds=3 filter=3 conjuncts est=11 workers=2
  project cols=1
`,
	}
	for _, q := range AllQueries {
		if got := explain(t, e, e.SQL(q)); got != golden[q] {
			t.Errorf("Q%d plan drifted:\n--- got ---\n%s--- want ---\n%s", q, got, golden[q])
		}
	}
	// Inference carries S1's tstart bound across the band conjuncts to
	// S2 (derived=1), so both inputs estimate alike: the ties break to
	// FROM order, S1's scan streams into the probe, and the hash table
	// is built on S2 with each bucket sorted by tstart. The band probe
	// consumes both tstart conjuncts, so no residual filter remains.
	joinGolden := `select
  hash join keys=1 band=tstart build=S2 est outer=131 inner=131 out=1320
    build: scan S2 (virtual) bounds=1 filter=1 conjuncts derived=1 est=131
    probe: scan S1 (virtual) bounds=1 filter=1 conjuncts est=131 workers=2 (streamed)
  project cols=1
`
	if got := explain(t, e, e.JoinSQL()); got != joinGolden {
		t.Errorf("join plan drifted:\n--- got ---\n%s--- want ---\n%s", got, joinGolden)
	}

	// Compressed plans must match clustered plans in shape and access
	// path; only the cardinality estimates may differ (block-granular
	// statistics vs page-granular ones).
	c := buildExplainEnv(t, Options{Layout: core.LayoutCompressed, Compress: true})
	for _, q := range AllQueries {
		if cp, kp := maskEst(explain(t, c, c.SQL(q))), maskEst(golden[q]); cp != kp {
			t.Errorf("Q%d: compressed plan differs from clustered:\n%s\nvs\n%s", q, cp, kp)
		}
	}
	// Both join inputs read compressed storage as column batches, and
	// EXPLAIN labels them; without the label the plan is clustered's.
	const label = " access=colscan workers=2"
	cj := explain(t, c, c.JoinSQL())
	if n := strings.Count(cj, label); n != 2 {
		t.Errorf("compressed join plan labels %d inputs%s, want 2:\n%s", n, label, cj)
	}
	if cp, kp := maskEst(strings.ReplaceAll(cj, label, "")), maskEst(joinGolden); cp != kp {
		t.Errorf("compressed join plan differs from clustered:\n%s\nvs\n%s", cp, kp)
	}
}

// maskEst strips cardinality estimates so cross-layout plan
// comparisons assert shape and access path, not statistics.
var estRE = regexp.MustCompile(`est[ =][^\n]*`)

func maskEst(s string) string { return estRE.ReplaceAllString(s, "est […]") }

// maskTimings replaces span durations with [T] so golden EXPLAIN
// ANALYZE output asserts structure and cardinalities, never clocks.
var timingRE = regexp.MustCompile(`\[[0-9.]+(µs|ms|s)\]`)

func maskTimings(s string) string { return timingRE.ReplaceAllString(s, "[T]") }

// TestExplainAnalyzeJoinGolden runs EXPLAIN ANALYZE on the Table 3
// join query and asserts the executed plan tree node by node:
// operator order, per-node input/output cardinalities and attributes,
// with timings masked.
func TestExplainAnalyzeJoinGolden(t *testing.T) {
	e := buildExplainEnv(t, Options{Layout: core.LayoutClustered})
	res, err := e.Sys.Exec("EXPLAIN ANALYZE " + e.JoinSQL())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].Text())
		b.WriteByte('\n')
	}
	got := maskTimings(b.String())
	want := `query  [T] rows=1 snapshot_lsn=0
  join:hash-build  [T] rows=0 rows_in=143 table=S2 side=inner est_outer=131 est_inner=131 est_out=1320 segments=3..4 buckets=72
  join:hash-probe  [T] rows=261 rows_in=143 table=S1 band=tstart segments=3..4 workers=2 morsels=3
  aggregate  [T] rows=1 rows_in=261 partials=3
  project  [T] rows=1 rows_in=1 grouped=true
`
	if got != want {
		t.Errorf("EXPLAIN ANALYZE drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// On compressed storage both inputs read column batches: the build
	// and probe spans say so, and every node keeps its cardinalities.
	c := buildExplainEnv(t, Options{Layout: core.LayoutCompressed, Compress: true})
	res, err = c.Sys.Exec("EXPLAIN ANALYZE " + c.JoinSQL())
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(want), "\n")
	if len(res.Rows) != len(wantLines) {
		t.Fatalf("compressed EXPLAIN ANALYZE has %d nodes, want %d", len(res.Rows), len(wantLines))
	}
	cardRE := regexp.MustCompile(`^\s*\S+|\brows(_in)?=\d+`)
	for i, row := range res.Rows {
		line := row[0].Text()
		if g, w := cardRE.FindAllString(line, -1), cardRE.FindAllString(wantLines[i], -1); strings.Join(g, " ") != strings.Join(w, " ") {
			t.Errorf("compressed node %d: %q, want the cardinalities of %q", i, line, wantLines[i])
		}
		name := strings.Fields(line)[0]
		if batch := strings.HasPrefix(name, "join:hash-"); batch != strings.Contains(line, " access=colscan") {
			t.Errorf("compressed node %q: access=colscan label is %v, want %v", line, !batch, batch)
		}
	}
}

// TestExplainAnalyzeSerialGolden pins the executed plan trees of the
// serial executor (Workers=1) on the clustered layout: a single-source
// statement drains under its own "scan" span into the aggregate or
// the projection, and the join's probe runs in one part. Every node
// keeps its name, order and cardinalities when the drain streams its
// rows instead of collecting them.
func TestExplainAnalyzeSerialGolden(t *testing.T) {
	e := buildDrainEnv(t)
	for _, tc := range []struct{ name, sql, want string }{
		{"Q3", e.SQL(Q3), `query  [T] rows=6 snapshot_lsn=0
  scan  [T] rows=6 table=S access=scan est_rows=74
  project  [T] rows=6 rows_in=6
`},
		{"Q4", e.SQL(Q4), `query  [T] rows=1 snapshot_lsn=0
  scan  [T] rows=506 table=S access=scan est_rows=743
  aggregate  [T] rows=1 rows_in=506
  project  [T] rows=1 rows_in=1 grouped=true
`},
		{"Q6 self-join", e.JoinSQL(), `query  [T] rows=1 snapshot_lsn=0
  join:hash-build  [T] rows=0 rows_in=143 table=S2 side=inner est_outer=131 est_inner=131 est_out=1320 segments=3..4 buckets=72
  join:hash-probe  [T] rows=261 rows_in=143 table=S1 band=tstart segments=3..4
  aggregate  [T] rows=1 rows_in=261
  project  [T] rows=1 rows_in=1 grouped=true
`},
	} {
		res, err := e.Sys.Exec("EXPLAIN ANALYZE " + tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString(row[0].Text())
			b.WriteByte('\n')
		}
		if got := maskTimings(b.String()); got != tc.want {
			t.Errorf("%s: EXPLAIN ANALYZE drifted:\n--- got ---\n%s--- want ---\n%s", tc.name, got, tc.want)
		}
	}
}

// TestExplainAnalyzeSuite smoke-checks EXPLAIN ANALYZE over the whole
// suite on the clustered layout: every tree must carry the root
// cardinality and at least one timed operator node.
func TestExplainAnalyzeSuite(t *testing.T) {
	e := buildExplainEnv(t, Options{Layout: core.LayoutClustered})
	for _, q := range AllQueries {
		res, err := e.Sys.Exec("EXPLAIN ANALYZE " + e.SQL(q))
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if len(res.Rows) < 2 {
			t.Fatalf("Q%d: analyze tree has %d lines, want root + operators", q, len(res.Rows))
		}
		root := res.Rows[0][0].Text()
		if !strings.HasPrefix(root, "query  [") || !strings.Contains(root, "rows=") {
			t.Errorf("Q%d: root line %q lacks timing or cardinality", q, root)
		}
		if masked := maskTimings(root); !strings.Contains(masked, "[T]") {
			t.Errorf("Q%d: timing mask failed on %q", q, root)
		}
	}
}

// TestTraceDifferential runs the suite traced and untraced on all
// three layouts and requires identical answers — instrumentation must
// observe execution, never alter it. CI runs this under -race, so
// concurrent span updates from morsel workers get checked too.
func TestTraceDifferential(t *testing.T) {
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Layout: core.LayoutPlain}},
		{"clustered", Options{Layout: core.LayoutClustered}},
		{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
	} {
		e := buildExplainEnv(t, lay.opts)
		for _, q := range AllQueries {
			plain, err := e.Run(q)
			if err != nil {
				t.Fatalf("%s Q%d untraced: %v", lay.name, q, err)
			}
			tr := obs.NewTracer("query")
			res, err := e.Sys.Engine.Run(context.Background(), e.SQL(q), tr.Root(), nil)
			if err != nil {
				t.Fatalf("%s Q%d traced: %v", lay.name, q, err)
			}
			traced := resultOf(res)
			if traced != plain {
				t.Errorf("%s Q%d: traced answer %+v differs from untraced %+v",
					lay.name, q, traced, plain)
			}
			qt := tr.Finish(e.SQL(q))
			if qt.Find("scan") == nil {
				t.Errorf("%s Q%d: trace has no scan span:\n%s",
					lay.name, q, qt.Tree())
			}
			// The JSON form must parse back, carry its query, and hold a
			// named root with a non-negative duration and at least one
			// child span (every suite query at least parses and scans).
			var doc struct {
				Query string `json:"query"`
				Root  *struct {
					Name     string            `json:"name"`
					DurNS    int64             `json:"dur_ns"`
					Children []json.RawMessage `json:"children"`
				} `json:"root"`
			}
			data := qt.JSON()
			switch err := json.Unmarshal(data, &doc); {
			case err != nil:
				t.Errorf("%s Q%d: trace JSON does not parse: %v\n%s", lay.name, q, err, data)
			case doc.Query == "":
				t.Errorf("%s Q%d: trace JSON lacks its query text:\n%s", lay.name, q, data)
			case doc.Root == nil || doc.Root.Name == "":
				t.Errorf("%s Q%d: trace JSON lacks a named root span:\n%s", lay.name, q, data)
			case doc.Root.DurNS < 0:
				t.Errorf("%s Q%d: trace root has negative duration %d", lay.name, q, doc.Root.DurNS)
			case len(doc.Root.Children) == 0:
				t.Errorf("%s Q%d: trace root has no child spans:\n%s", lay.name, q, data)
			}
		}
	}
}

// resultOf mirrors Env.Run's Result extraction for a raw engine
// result.
func resultOf(res *sqlengine.Result) Result {
	out := Result{Rows: len(res.Rows)}
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		out.Value = res.Rows[0][0].Text()
	}
	return out
}

// TestExplainFanOutMatchesAnalyze checks that plain EXPLAIN and the
// executed plan agree on every read's fan-out: the workers=N EXPLAIN
// prints for a read equals the workers attribute of the span that
// executed it, and a read EXPLAIN leaves serial executes serially.
// Both come from one rule (fanWorkers); this pins them together over
// the Table 3 suite, the Q6 self-join, the key join, a three-source
// chain (a build-outer fold, then a hash stage) and translated x1/x3,
// on every layout at Workers 1 and 2.
func TestExplainFanOutMatchesAnalyze(t *testing.T) {
	// An EXPLAIN line names its read's alias after "scan" or "join";
	// a span names it as table=.
	planRE := regexp.MustCompile(`(?:scan|join) (\S+) .*?workers=(\d+)`)
	spanRE := regexp.MustCompile(`table=(\S+).*?workers=(\d+)`)
	fanned := func(text string, re *regexp.Regexp) map[string]string {
		out := map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			if m := re.FindStringSubmatch(line); m != nil {
				out[m[1]] = m[2]
			}
		}
		return out
	}
	wide := 0
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Layout: core.LayoutPlain}},
		{"clustered", Options{Layout: core.LayoutClustered}},
		{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
	} {
		for _, workers := range []int{1, 2} {
			opts := lay.opts
			opts.Workers = workers
			opts.MinSegmentRows = 160
			e, err := Build(smallCfg(), opts)
			if err != nil {
				t.Fatal(err)
			}
			stmts := []string{e.JoinSQL(), e.KeyJoinSQL(),
				`select count(*) from employee_salary a, employee_id b, employee_salary c where a.id = b.id and c.id = b.id`}
			for _, q := range AllQueries {
				stmts = append(stmts, e.SQL(q))
			}
			translated, err := e.TranslatedSQL()
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range append(stmts, translated...) {
				plan := explain(t, e, sql)
				analyzed := explain(t, e, "ANALYZE "+sql)
				want, got := fanned(plan, planRE), fanned(analyzed, spanRE)
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Errorf("%s workers=%d: EXPLAIN fans out %v, the executed plan %v:\n%s\n%s",
						lay.name, workers, want, got, plan, analyzed)
				}
				if workers == 1 && len(got) > 0 {
					t.Errorf("%s workers=1: a read fanned out:\n%s", lay.name, analyzed)
				}
				wide += len(got)
			}
		}
	}
	if wide == 0 {
		t.Error("no read fanned out at Workers=2")
	}
}
