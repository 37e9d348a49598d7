package bench

import (
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
)

// TestBlockCacheDifferential runs the Table 3 suite, the Q6 self-join,
// the full key-table join and translated Q1/Q3 on every layout with
// the decoded-block cache off (reference) and then on at two budgets,
// at Workers 1 and 4 (queries in flight and intra-query workers
// alike), and requires identical answers everywhere. Run with -race:
// on the compressed layout the concurrent passes read shared cached
// batches from many goroutines at once.
func TestBlockCacheDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout core.Layout
	}{
		{"plain", core.LayoutPlain},
		{"clustered", core.LayoutClustered},
		{"compressed", core.LayoutCompressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Build(dataset.Config{
				Employees:         100,
				Years:             5,
				Departments:       4,
				Seed:              11,
				MonthlyUpdateFrac: 0.25,
				TurnoverFrac:      0.05,
			}, Options{
				Layout:         tc.layout,
				MinSegmentRows: 40,
				Compress:       tc.layout == core.LayoutCompressed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.layout == core.LayoutCompressed {
				// Force every attribute history into frozen, compressed
				// segments so the suite actually reads BlockZIP blocks at
				// this small scale.
				for _, at := range []string{
					"employee_name", "employee_salary", "employee_title", "employee_deptno",
					"dept_deptname", "dept_mgrno",
				} {
					if st, ok := e.Sys.SegmentStore(at); ok {
						if err := st.ArchiveNow(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := e.Sys.CompressFrozen(); err != nil {
					t.Fatal(err)
				}
			}
			queries := append(e.SuiteQueries(2), e.SnapshotQueries(4)...)
			queries = append(queries, e.JoinSQL(), e.KeyJoinSQL())
			translated, err := e.TranslatedSQL()
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, translated...)

			// Reference: cache off (the default), serial, cold.
			e.Cold()
			e.Sys.Engine.Workers = 1
			ref, err := e.RunBatch(queries, 1)
			if err != nil {
				t.Fatal(err)
			}

			// The decoded history is ~140 KiB: 100 KiB (the mixed
			// workload's budget) evicts as it goes, 32 MiB holds it all.
			for _, budget := range []int{100 << 10, 32 << 20} {
				e.Sys.DB.SetBlockCacheBytes(budget)
				e.Cold()
				e.Sys.DB.ResetStats()
				for _, pass := range []struct {
					name    string
					workers int
				}{{"serial-cold", 1}, {"concurrent-warm", 4}, {"concurrent-warm-2", 4}, {"serial-warm", 1}} {
					e.Sys.Engine.Workers = pass.workers
					got, err := e.RunBatch(queries, pass.workers)
					if err != nil {
						t.Fatalf("%d bytes, %s: %v", budget, pass.name, err)
					}
					if !SameAnswers(got, ref) {
						t.Fatalf("%d bytes, %s: answers with block cache on differ from cache-off reference", budget, pass.name)
					}
				}
				st := e.Sys.DB.Stats()
				t.Logf("budget %d: %d hits, %d misses, %d bytes cached", budget, st.BlockCacheHits, st.BlockCacheMisses, st.BlockCacheBytes)
				if tc.layout == core.LayoutCompressed {
					if st.BlockCacheHits == 0 {
						t.Errorf("%d bytes: compressed layout never hit the block cache across warm passes", budget)
					}
					if st.BlockCacheBytes > int64(budget) {
						t.Errorf("cache holds %d bytes over its %d budget", st.BlockCacheBytes, budget)
					}
				} else if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
					t.Errorf("layout without BlockZIP touched the block cache: %+v", st)
				}
			}

			// Cold mode must stay honest: DropCaches empties the block
			// cache even while a budget is configured.
			e.Cold()
			if n := e.Sys.DB.CachedBlocks(); n != 0 {
				t.Errorf("Cold() left %d decoded blocks cached", n)
			}
			got, err := e.RunBatch(queries, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !SameAnswers(got, ref) {
				t.Fatal("post-Cold answers differ from reference")
			}
		})
	}
}
