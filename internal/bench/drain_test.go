package bench

import (
	"fmt"
	"testing"

	"archis/internal/core"
)

// buildDrainEnv is the seeded small workload on the clustered layout
// with the serial executor: single-source reads take the row path
// (runScanPlan) and a join's fused probe runs in one part.
func buildDrainEnv(tb testing.TB) *Env {
	tb.Helper()
	e, err := Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestDrainAllocs holds each statement's inputs fixed and varies only
// how many rows reach its consumer. A drain that streams its rows into
// the aggregate allocates the same at every count; one that first
// collects them into a []Row (the serial scan) or materializes a
// combined row per match (the join's last fold) allocates more as the
// count grows.
func TestDrainAllocs(t *testing.T) {
	e := buildDrainEnv(t)
	// measure returns the allocations per run and the count(*) the
	// statement reports, i.e. the rows its aggregate took.
	measure := func(sql string) (float64, string) {
		res, err := e.Sys.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Sys.Exec(sql); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, res.Rows[0][0].Text()
	}
	check := func(shape string, sqls []string) {
		t.Helper()
		var lo, hi float64
		var counts []string
		for i, sql := range sqls {
			a, n := measure(sql)
			counts = append(counts, n)
			if i == 0 || a < lo {
				lo = a
			}
			if i == 0 || a > hi {
				hi = a
			}
		}
		if counts[0] == counts[len(counts)-1] {
			t.Fatalf("%s: every variant aggregated %s rows; the test needs a range", shape, counts[0])
		}
		if hi-lo > 3 {
			t.Errorf("%s: allocations range over %.0f..%.0f per run while the consumer took %v rows; want a constant",
				shape, lo, hi, counts)
		}
	}

	// An opaque predicate (no zone bound), so every run reads the same
	// pages and only the number of rows past the filter changes.
	var scans []string
	for _, c := range []int{1000000, 60000, 40000, 0} {
		scans = append(scans, fmt.Sprintf(
			`select count(*), max(salary) from employee_salary where salary + 0 >= %d`, c))
	}
	check("single-source aggregate", scans)

	// The Q6 self-join with the band widened from 30 to 730 days.
	var joins []string
	for _, w := range []int{30, 180, 730} {
		joins = append(joins, fmt.Sprintf(
			`select count(*), max(S2.salary - S1.salary) from employee_salary S1, employee_salary S2
			 where S1.id = S2.id and S1.tstart >= DATE '%s'
			   and S2.tstart >= S1.tstart and S2.tstart <= S1.tstart + %d`, e.JoinStart, w))
	}
	check("band self-join aggregate", joins)
}

// BenchmarkDrain times two warm clustered statements whose last step
// is an aggregate: Q4 (a single-source scan) and the Q6 self-join
// (q6j). Allocations per op stay flat in the rows they aggregate.
func BenchmarkDrain(b *testing.B) {
	e := buildDrainEnv(b)
	for _, bc := range []struct{ name, sql string }{
		{"q4", e.SQL(Q4)},
		{"q6j", e.JoinSQL()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := e.Sys.Exec(bc.sql); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Sys.Exec(bc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
