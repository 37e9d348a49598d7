package bench

import (
	"fmt"
	"strings"

	"archis/internal/core"
	"archis/internal/temporal"
)

// This file drives the Table 3 suite and multi-snapshot workloads
// through the system's parallel query API. The workloads are
// embarrassingly parallel across queries and snapshot days, which is
// how a transaction-time archive is deployed in practice: many
// concurrent readers, writers applied in exclusive maintenance
// windows.

// SuiteQueries renders `rounds` repetitions of the Q1–Q6 SQL suite as
// one flat batch (6*rounds entries, suite order preserved per round).
func (e *Env) SuiteQueries(rounds int) []string {
	out := make([]string, 0, rounds*len(AllQueries))
	for r := 0; r < rounds; r++ {
		for _, q := range AllQueries {
			out = append(out, e.SQL(q))
		}
	}
	return out
}

// SnapshotSQL renders a Q2-shaped snapshot query (average salary) at
// an arbitrary day, segment-restricted when the layout clusters.
func (e *Env) SnapshotSQL(day temporal.Date) string {
	return fmt.Sprintf(
		`select avg(S.salary) from employee_salary S where S.tstart <= DATE '%s' and S.tend >= DATE '%s'%s`,
		day, day, e.segRestrict("S", "employee_salary", day, day))
}

// SnapshotQueries renders n snapshot queries at days spread evenly
// across the loaded history — the multi-snapshot workload.
func (e *Env) SnapshotQueries(n int) []string {
	start := e.Cfg.Start
	if start == 0 {
		start = temporal.MustParseDate("1985-01-01")
	}
	span := e.Cfg.Years * 365
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		day := start.AddDays(span * (i + 1) / (n + 1))
		out = append(out, e.SnapshotSQL(day))
	}
	return out
}

// RunBatch executes a query batch through System.RunParallel with the
// given worker count (1 = serial mode, 0 = GOMAXPROCS) and returns the
// per-query outcomes. The first query error, if any, is returned as err.
func (e *Env) RunBatch(queries []string, workers int) ([]core.ParallelResult, error) {
	results := e.Sys.RunParallel(queries, workers)
	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("bench: parallel batch: %w", r.Err)
		}
	}
	return results, nil
}

// SameAnswers reports whether two outcome slices carry identical
// answers (SQL rows or XQuery items), position by position — the check
// that parallel execution returns exactly what serial execution
// returns.
func SameAnswers(a, b []core.ParallelResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i].Result == nil) != (b[i].Result == nil) {
			return false
		}
		if a[i].Result != nil && answerText(a[i].Result) != answerText(b[i].Result) {
			return false
		}
	}
	return true
}

// answerText renders one outcome's answer for comparison.
func answerText(qr *core.QueryResult) string {
	var sb strings.Builder
	if qr.Result != nil {
		for _, row := range qr.Result.Rows {
			for _, v := range row {
				sb.WriteString(v.Text())
				sb.WriteByte('\t')
			}
			sb.WriteByte('\n')
		}
	}
	for _, it := range qr.Items {
		sb.WriteString(it.StringValue())
		sb.WriteByte('\n')
	}
	return sb.String()
}
