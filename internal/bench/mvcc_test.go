package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/wal"
)

// The snapshot-consistency differential: a writer ingests updates (and
// periodically compacts) through the durable statement path while
// concurrent readers pin snapshots and re-ask a fixed query suite. The
// writer records the serial answer of every published LSN in a ledger;
// each reader's answer must equal the ledger entry at its pinned LSN —
// i.e. a reader sees exactly the state that was current when its
// snapshot was taken, never a torn or drifting one. Readers also
// round-trip ReadAsOf(lsn) against the same ledger. Run with -race.

// mvccSuite is a fixed set of full-scan queries whose answers are a
// deterministic function of one published version (ORDER BY where row
// order would otherwise float).
func mvccSuite(e *Env) []string {
	day := e.SnapshotDay
	return []string{
		`select count(*) from employee_salary S`,
		fmt.Sprintf(
			`select avg(S.salary) from employee_salary S where S.tstart <= DATE '%s' and S.tend >= DATE '%s'`,
			day, day),
		fmt.Sprintf(
			`select S.salary, S.tstart, S.tend from employee_salary S where S.id = %d order by S.tstart`,
			e.SingleID),
		fmt.Sprintf(
			`select count_distinct(S.id) from employee_salary S where S.salary > 60000 and toverlaps(S.tstart, S.tend, DATE '%s', DATE '%s')`,
			e.SliceLo, e.SliceHi),
	}
}

// answerFingerprint canonicalizes a result for equality comparison.
func answerFingerprint(res *sqlengine.Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.Text())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runSuiteWith evaluates every suite query through exec and returns the
// fingerprints.
func runSuiteWith(suite []string, exec func(string) (*sqlengine.Result, error)) ([]string, error) {
	out := make([]string, len(suite))
	for i, q := range suite {
		res, err := exec(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		out[i] = answerFingerprint(res)
	}
	return out, nil
}

func TestSnapshotConsistencyDifferential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		layout   core.Layout
		columnar core.ColumnarMode
		workers  int
	}{
		{"plain-serial", core.LayoutPlain, core.ColumnarOn, 1},
		{"plain-parallel", core.LayoutPlain, core.ColumnarOn, 4},
		{"clustered-serial", core.LayoutClustered, core.ColumnarOn, 1},
		{"clustered-parallel", core.LayoutClustered, core.ColumnarOn, 4},
		{"compressed-columnar-serial", core.LayoutCompressed, core.ColumnarOn, 1},
		{"compressed-columnar-parallel", core.LayoutCompressed, core.ColumnarOn, 4},
		{"compressed-rowblob-serial", core.LayoutCompressed, core.ColumnarOff, 1},
		{"compressed-rowblob-parallel", core.LayoutCompressed, core.ColumnarOff, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Build(dataset.Config{
				Employees:   40,
				Years:       4,
				Departments: 4,
				Seed:        11,
			}, Options{
				Layout:         tc.layout,
				MinSegmentRows: 48,
				Compress:       tc.layout == core.LayoutCompressed,
				Columnar:       tc.columnar,
				Workers:        tc.workers,
				WALDir:         t.TempDir(),
				WALSync:        wal.SyncNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			suite := mvccSuite(e)
			compressed := tc.layout == core.LayoutCompressed

			var ledger sync.Map // lsn -> []string suite fingerprints
			var (
				lsnMu sync.Mutex
				lsns  []uint64
			)
			recordLedger := func() error {
				lsn := e.Sys.WALStats().AppendedLSN
				ans, err := runSuiteWith(suite, func(q string) (*sqlengine.Result, error) { return e.Sys.Exec(q) })
				if err != nil {
					return err
				}
				ledger.Store(lsn, ans)
				lsnMu.Lock()
				lsns = append(lsns, lsn)
				lsnMu.Unlock()
				return nil
			}
			// The load went in below the statement paths; its publish LSN
			// is the current WAL position. Seed the ledger with it so
			// readers that pin the initial version can verify too.
			if err := recordLedger(); err != nil {
				t.Fatal(err)
			}
			ids, err := e.liveIDs(8)
			if err != nil || len(ids) == 0 {
				t.Fatalf("live ids: %v (%d)", err, len(ids))
			}

			const rounds = 25
			const readers = 2
			stop := make(chan struct{})
			errs := make(chan error, 64)
			var wg sync.WaitGroup
			var pinChecks, asofChecks atomic.Int64

			wg.Add(1)
			go func() { // writer: ingest + periodic online compaction
				defer wg.Done()
				defer close(stop)
				for r := 0; r < rounds; r++ {
					e.Sys.SetClock(e.Sys.Clock().AddDays(1))
					_, err := e.Sys.ExecDurable(fmt.Sprintf(
						`update employee set salary = salary + %d where id = %d`, r+1, ids[r%len(ids)]))
					if err != nil {
						errs <- fmt.Errorf("writer round %d: %w", r, err)
						return
					}
					// Serial reference: no other writer runs, so the answer
					// recorded here is the ground truth for this LSN.
					if err := recordLedger(); err != nil {
						errs <- fmt.Errorf("writer ledger round %d: %w", r, err)
						return
					}
					if r%8 == 7 {
						if _, err := e.Sys.Compact(); err != nil {
							errs <- fmt.Errorf("compact round %d: %w", r, err)
							return
						}
						if compressed {
							if err := e.Sys.CompressFrozen(); err != nil {
								errs <- fmt.Errorf("compress round %d: %w", r, err)
								return
							}
						}
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()

			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g) + 101))
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Pin one snapshot across the whole suite and verify
						// against the serial answer at its LSN. A Compact may
						// republish under the same LSN — physically different,
						// logically identical — which this compares too.
						sn := e.Sys.DB.Snapshot()
						lsn := sn.LSN()
						got, err := runSuiteWith(suite, func(q string) (*sqlengine.Result, error) {
							return e.Sys.Engine.Run(context.Background(), q, nil, sn)
						})
						sn.Release()
						if err != nil {
							errs <- fmt.Errorf("reader %d at lsn %d: %w", g, lsn, err)
							return
						}
						if want, ok := ledger.Load(lsn); ok {
							for i, w := range want.([]string) {
								if got[i] != w {
									errs <- fmt.Errorf("reader %d: lsn %d query %d diverged\ngot:  %q\nwant: %q",
										g, lsn, i, got[i], w)
								}
							}
							pinChecks.Add(1)
						}
						// ReadAsOf round-trip at a randomly chosen recorded LSN.
						lsnMu.Lock()
						past := lsns[rng.Intn(len(lsns))]
						lsnMu.Unlock()
						want, ok := ledger.Load(past)
						if !ok {
							continue
						}
						for i, q := range suite {
							res, err := e.Sys.ReadAsOf(past, q)
							if err != nil {
								if strings.Contains(err.Error(), "retention horizon") {
									break
								}
								errs <- fmt.Errorf("reader %d ReadAsOf(%d): %w", g, past, err)
								return
							}
							if fp := answerFingerprint(res); fp != want.([]string)[i] {
								errs <- fmt.Errorf("reader %d: ReadAsOf(%d) query %d diverged\ngot:  %q\nwant: %q",
									g, past, i, fp, want.([]string)[i])
							}
							asofChecks.Add(1)
						}
					}
				}(g)
			}

			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if pinChecks.Load() == 0 {
				t.Error("no pinned-snapshot answer was ever checked against the ledger")
			}
			if asofChecks.Load() == 0 {
				t.Error("no ReadAsOf answer was ever checked against the ledger")
			}

			// A read pinned before a CREATE TABLE or a Register fails with
			// the snapshot's "no such table" — base table, segment store
			// and compressed store alike — and never reads the live table,
			// not even while CreateIndex grows its index list.
			pinned := e.Sys.DB.Snapshot()
			defer pinned.Release()
			if _, err := e.Sys.Exec(`create table late (k INT, v INT)`); err != nil {
				t.Fatal(err)
			}
			if err := e.Sys.Register(htable.TableSpec{Name: "latecomer", Key: []string{"id"}, Columns: []relstore.Column{
				relstore.Col("id", relstore.TypeInt), relstore.Col("grade", relstore.TypeInt)}}); err != nil {
				t.Fatal(err)
			}
			indexed := make(chan error, 1)
			go func() {
				for i := 0; i < 16; i++ {
					for _, ix := range [][2]string{{"late", "k"}, {"latecomer_grade", "id"}} {
						if _, err := e.Sys.DB.CreateIndex(fmt.Sprintf("ix_%s_%d", ix[0], i), ix[0], ix[1]); err != nil {
							indexed <- err
							return
						}
					}
				}
				indexed <- nil
			}()
			for i := 0; i < 16; i++ {
				for _, q := range []string{`select count(*) from late where k = 1`, `select count(*) from latecomer_grade G where G.id = 1`} {
					if _, err := e.Sys.Engine.Run(context.Background(), q, nil, pinned); err == nil || !strings.Contains(err.Error(), "no such table") {
						t.Errorf("%s pinned before its table: %v, want no such table", q, err)
					}
				}
			}
			if err := <-indexed; err != nil {
				t.Fatal(err)
			}
		})
	}
}
