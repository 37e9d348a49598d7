package bench

import (
	"fmt"
	"sync"
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
)

func stressEnv(t *testing.T, compress bool) *Env {
	t.Helper()
	layout := core.LayoutClustered
	if compress {
		layout = core.LayoutCompressed
	}
	e, err := Build(dataset.Config{
		Employees:   30,
		Years:       4,
		Departments: 4,
		Seed:        7,
	}, Options{
		Layout:         layout,
		MinSegmentRows: 40,
		Compress:       compress,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// serialAnswers runs each query once on a single goroutine and returns
// the reference outcomes.
func serialAnswers(t *testing.T, e *Env, queries []string) []core.ParallelResult {
	t.Helper()
	ref, err := e.RunBatch(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestConcurrentSuiteRace runs the Table 3 SQL suite plus translated
// and fallback XQueries from many goroutines against one shared
// archive — both execution paths concurrently — while another goroutine
// reads storage stats. Run with -race; it also checks every answer
// against the serial reference.
func TestConcurrentSuiteRace(t *testing.T) {
	for _, tc := range []struct {
		name     string
		compress bool
	}{
		{"clustered", false},
		{"compressed", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := stressEnv(t, tc.compress)

			// SQL suite (PathSQL via Engine.Exec) plus one translated
			// XQuery and one untranslatable XQuery (restructure → PathXML
			// fallback), so both execution paths run concurrently.
			queries := e.SuiteQueries(1)
			queries = append(queries,
				fmt.Sprintf(`for $s in doc("employees.xml")/employees/employee[id=%d]/salary return $s`, e.SingleID),
				fmt.Sprintf(`for $e in doc("employees.xml")/employees/employee[id=%d] let $d := $e/deptno let $t := $e/title let $o := restructure($d, $t) return count($o)`, e.SingleID),
			)
			ref := serialAnswers(t, e, queries)
			for i, r := range ref {
				if r.Result == nil {
					t.Fatalf("reference query %d has no result: %q", i, queries[i])
				}
			}
			// The two XQueries must exercise different paths.
			if p := ref[len(ref)-2].Result.Path; p != core.PathSQL {
				t.Errorf("translated XQuery ran on %v, want PathSQL", p)
			}
			if p := ref[len(ref)-1].Result.Path; p != core.PathXML {
				t.Errorf("restructure XQuery ran on %v, want PathXML", p)
			}

			e.Cold() // start from a cold cache so readers contend on fills

			const goroutines = 6
			const rounds = 3
			var wg, statsWg sync.WaitGroup
			errs := make(chan error, goroutines*rounds)
			stop := make(chan struct{})
			statsWg.Add(1)
			go func() { // stats reader
				defer statsWg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = e.Sys.DB.Stats()
						_ = e.Sys.DB.CachedPages()
					}
				}
			}()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						// Rotate the batch so goroutines hit different
						// queries (and pages) at the same moment.
						k := (g + r) % len(queries)
						batch := append(append([]string(nil), queries[k:]...), queries[:k]...)
						want := append(append([]core.ParallelResult(nil), ref[k:]...), ref[:k]...)
						got := e.Sys.RunParallel(batch, 1)
						for i, pr := range got {
							if pr.Err != nil {
								errs <- fmt.Errorf("goroutine %d: %q: %v", g, batch[i], pr.Err)
							}
						}
						if !SameAnswers(got, want) {
							errs <- fmt.Errorf("goroutine %d round %d: answers differ from serial reference", g, r)
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			statsWg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestRunParallelMatchesSerial fans the full workload (suite rounds +
// multi-snapshot batch) across GOMAXPROCS workers and requires answers
// identical to serial execution.
func TestRunParallelMatchesSerial(t *testing.T) {
	e := stressEnv(t, false)
	queries := append(e.SuiteQueries(2), e.SnapshotQueries(6)...)
	ref := serialAnswers(t, e, queries)
	got, err := e.RunBatch(queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !SameAnswers(got, ref) {
		t.Fatal("parallel answers differ from serial answers")
	}
}

// TestRunParallelRejectsWrites checks writer exclusivity: DML and DDL
// are refused by the parallel API rather than racing with readers.
func TestRunParallelRejectsWrites(t *testing.T) {
	e := stressEnv(t, false)
	res := e.Sys.RunParallel([]string{
		`update employee set salary = 1 where id = 100001`,
		`select count(*) from employee`,
	}, 2)
	if res[0].Err == nil {
		t.Error("RunParallel accepted an UPDATE; writes need exclusive access")
	}
	if res[1].Err != nil {
		t.Errorf("read-only query failed: %v", res[1].Err)
	}
}
