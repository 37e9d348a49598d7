package bench

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/sqlengine"
)

// resultText renders a result one line per row, in row order.
func resultText(res *sqlengine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for c, v := range r {
			cells[c] = v.Text()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

// TestColumnarDifferentialLayouts is the columnar escape-hatch
// differential: randomized workloads on every layout, executed with
// the columnar path on and off, serial and morsel-parallel, must
// return identical answers everywhere, and the columnar side must
// return byte-identical rows at every worker count. On plain and
// clustered layouts the columnar option must be inert; on compressed
// (with every history force-frozen into blocks) it exercises the
// vectorized scan + kernel path end to end — for joins too: the Q6
// self-join, the full key-table join, and translated Q1/Q3, whose
// SQL joins the history to its key table. Run with -race: the
// parallel passes share batches across worker goroutines.
func TestColumnarDifferentialLayouts(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		name   string
		layout core.Layout
	}{
		{"plain", core.LayoutPlain},
		{"clustered", core.LayoutClustered},
		{"compressed", core.LayoutCompressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dataset.Config{
				Employees:   20 + r.Intn(25),
				Years:       3 + r.Intn(3),
				Departments: 3 + r.Intn(3),
				Seed:        r.Int63(),
			}
			build := func(mode core.ColumnarMode) *Env {
				e, err := Build(cfg, Options{
					Layout:         tc.layout,
					MinSegmentRows: 30 + r.Intn(40),
					Columnar:       mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				if tc.layout == core.LayoutCompressed {
					if err := e.FreezeAll(); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			on, off := build(core.ColumnarOn), build(core.ColumnarOff)
			// Each side runs its own translation: the translator bakes
			// the side's segment numbers into the SQL.
			type query struct{ on, off string }
			var queries []query
			for _, q := range AllQueries {
				queries = append(queries, query{on.SQL(q), on.SQL(q)})
			}
			queries = append(queries, query{on.JoinSQL(), on.JoinSQL()}, query{on.KeyJoinSQL(), on.KeyJoinSQL()})
			onX, err := on.TranslatedSQL()
			if err != nil {
				t.Fatal(err)
			}
			offX, err := off.TranslatedSQL()
			if err != nil {
				t.Fatal(err)
			}
			for i := range onX {
				queries = append(queries, query{onX[i], offX[i]})
			}
			serial := make([][]string, len(queries))
			for _, workers := range []int{1, 4} {
				on.Sys.Engine.Workers = workers
				off.Sys.Engine.Workers = workers
				for qi, q := range queries {
					want, err := off.Sys.Exec(q.off)
					if err != nil {
						t.Fatalf("columnar-off workers=%d: %s: %v", workers, q.off, err)
					}
					got, err := on.Sys.Exec(q.on)
					if err != nil {
						t.Fatalf("columnar-on workers=%d: %s: %v", workers, q.on, err)
					}
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("workers=%d: %s: %d rows columnar vs %d row-path",
							workers, q.on, len(got.Rows), len(want.Rows))
					}
					for i := range want.Rows {
						for c := range want.Rows[i] {
							if got.Rows[i][c].Text() != want.Rows[i][c].Text() {
								t.Fatalf("workers=%d: %s: row %d col %d: %q vs %q",
									workers, q.on, i, c, got.Rows[i][c].Text(), want.Rows[i][c].Text())
							}
						}
					}
					text := resultText(got)
					if workers == 1 {
						serial[qi] = text
					} else if !slices.Equal(text, serial[qi]) {
						t.Fatalf("workers=%d: %s: columnar rows differ from the serial run", workers, q.on)
					}
				}
			}
		})
	}
}

// TestColumnarGatePair smoke-tests the gate machinery end to end at a
// tiny scale: the pair builds with matching answers, the columnar side
// runs vectorized (colscan + batches consumed), the row-blob side does
// not, and storage does not regress.
func TestColumnarGatePair(t *testing.T) {
	on, off, err := BuildColumnarPair(dataset.Config{
		Employees: 40, Years: 4, Departments: 4, Seed: 5,
	}, Options{Workers: 1, MinSegmentRows: 60})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ColumnarCompare(on, off, []QueryID{Q2, Q4, Q6})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for _, rec := range recs {
		if rec.Columnar {
			if rec.Access != "colscan" {
				t.Errorf("%s columnar access=%q, want colscan", rec.Query, rec.Access)
			}
			if rec.ColBatches == 0 {
				t.Errorf("%s columnar side consumed no batches", rec.Query)
			}
		} else {
			if rec.Access != "scan" {
				t.Errorf("%s rowblob access=%q, want scan", rec.Query, rec.Access)
			}
			if rec.ColBatches != 0 {
				t.Errorf("%s rowblob side consumed %d batches, want 0", rec.Query, rec.ColBatches)
			}
		}
	}
	if onB, offB := on.Sys.StorageBytes(), off.Sys.StorageBytes(); onB > offB {
		t.Errorf("columnar storage %d exceeds row-blob %d", onB, offB)
	}
}
