package bench

import (
	"fmt"
	"runtime"
	"strings"
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

// TestColdReadAllocs bounds what a cold compressed read allocates
// (caches dropped before every run), for a single-source read of the
// whole history and for the Q6 self-join, over a store whose live
// segment spans several pages, at two and four workers. A cold read
// must decode the pages and blocks it reads; the row→batch adapter
// that turns the live pages into batches must add next to nothing. Its
// columns are typed vectors with no per-row kinds and no Value copies,
// and one pooled scratch (row buffer, batch, selection) serves every
// morsel. Two bounds hold that: the bytes of the whole read, which a
// fresh row buffer and batch per page morsel would double, and the
// objects the batch adapter itself (relstore's colbatch.go) allocates,
// which per-morsel kind arrays would multiply. The second counts
// through a memory profile sampling every allocation; a pooled batch
// refilled after a GC is its only expected source. Under -race, where
// sync.Pool drops items at random, the reads run unchecked.
func TestColdReadAllocs(t *testing.T) {
	for _, workers := range []int{2, 4} {
		cfg := smallCfg()
		cfg.Employees = 400
		e, err := Build(cfg, Options{Layout: core.LayoutCompressed, Compress: true, MinSegmentRows: 600, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := e.Sys.SegmentStore("employee_salary")
		pages := st.Table().EstimateScan(nil).TotalPages
		if pages < 4 {
			t.Fatalf("live segment spans %d pages; the test needs several", pages)
		}
		for _, tc := range []struct {
			name, sql string
			maxKB     float64
		}{
			{"scan", `select count(*), max(S.salary) from employee_salary S`, 550},
			{"q6j", e.JoinSQL(), 1250},
		} {
			if _, err := e.Sys.Exec(tc.sql); err != nil {
				t.Fatal(err)
			}
			kb, adapter := coldAllocs(t, e, tc.sql, 20)
			t.Logf("workers=%d %s: %.1f KB per cold read, %.1f adapter objects, %d live pages", workers, tc.name, kb, adapter, pages)
			if raceEnabled {
				continue // the reads still run, for the race detector
			}
			if kb > tc.maxKB {
				t.Errorf("workers=%d %s: a cold read allocates %.1f KB, want at most %.0f KB", workers, tc.name, kb, tc.maxKB)
			}
			if adapter > 4 {
				t.Errorf("workers=%d %s: the batch adapter allocates %.1f objects per cold read, want at most 4", workers, tc.name, adapter)
			}
		}
	}
}

// coldAllocs runs sql cold runs times and returns the kilobytes
// allocated per run and the objects per run whose innermost allocating
// frame in this module lies in relstore's colbatch.go.
func coldAllocs(t *testing.T, e *Env, sql string, runs int) (kb, adapter float64) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// profile sums the adapter's allocated objects so far; two GCs
	// publish every allocation made before the call.
	profile := func() int64 {
		runtime.GC()
		runtime.GC()
		var recs []runtime.MemProfileRecord
		for {
			n, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:n]
				break
			}
			recs = make([]runtime.MemProfileRecord, n+64)
		}
		var objs int64
		for _, r := range recs {
			frames := runtime.CallersFrames(r.Stack())
			for {
				f, more := frames.Next()
				if strings.HasPrefix(f.Function, "archis/") {
					if strings.HasSuffix(f.File, "relstore/colbatch.go") {
						objs += r.AllocObjects
					}
					break
				}
				if !more {
					break
				}
			}
		}
		return objs
	}
	objs0 := profile()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		e.Cold()
		if _, err := e.Sys.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	objs1 := profile()
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs) / 1024, float64(objs1-objs0) / float64(runs)
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
