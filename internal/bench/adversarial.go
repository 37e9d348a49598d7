package bench

import (
	"fmt"
	"strings"

	"archis/internal/relstore"
	"archis/internal/sqlengine"
)

// Adversarial-selectivity planner benchmark (TestPlannerAdversarialAccess
// and BenchmarkAdversarial*). The workload is built to punish the
// always-index heuristic: an indexed eq predicate matching 75%
// of the table (a skewed two-value column), where a sequential scan
// is clearly cheaper than probing the B+tree row by row — with the
// zero-copy probe path, exactly 50% is near break-even on one core,
// so the skew puts the workload solidly in scan territory while the
// planner's uniform per-key estimate (half the table) already rules
// out the index. A selective eq predicate rides along to show the
// planner still takes the index when it should.

// PlannerRecord is one cell of the adversarial workload: a query run
// under the planner's access path or a forced one, with the access
// path taken and the rows matched.
type PlannerRecord struct {
	Case   string
	Forced string // "" for the planned access path, else the forced plan's name
	Access string // "scan" or "index"
	Rows   int    // rows the predicate matches
}

// BuildAdversarialEngine creates a standalone SQL engine holding one
// table `adv` of n rows: id is unique, flag is 1 on three rows out of
// four. Both columns are indexed, so every eq predicate tempts the
// always-index heuristic.
func BuildAdversarialEngine(n int) (*sqlengine.Engine, error) {
	en := sqlengine.New(relstore.NewDatabase())
	if _, err := en.Exec(`create table adv (id INT, flag INT, v INT)`); err != nil {
		return nil, err
	}
	tbl, _ := en.DB.Table("adv")
	for i := 0; i < n; i++ {
		flag := int64(0)
		if i%4 != 0 {
			flag = 1
		}
		row := relstore.Row{
			relstore.Int(int64(i)),
			relstore.Int(flag),
			relstore.Int(int64(i * 3)),
		}
		if _, err := tbl.Insert(row); err != nil {
			return nil, err
		}
	}
	tbl.Flush()
	// Indexes after the load, so they are backfilled in one pass.
	for _, ddl := range []string{
		`create index ix_adv_id on adv (id)`,
		`create index ix_adv_flag on adv (flag)`,
	} {
		if _, err := en.Exec(ddl); err != nil {
			return nil, err
		}
	}
	return en, nil
}

// AccessPath EXPLAINs the query and reports which access path the
// planner chose for its (single) table.
func AccessPath(en *sqlengine.Engine, query string) (string, error) {
	res, err := en.Exec("EXPLAIN " + query)
	if err != nil {
		return "", err
	}
	for _, row := range res.Rows {
		line := row[0].Text()
		if strings.Contains(line, "index scan") || strings.Contains(line, "index join") {
			return "index", nil
		}
		if strings.Contains(line, "access=colscan") {
			return "colscan", nil
		}
	}
	return "scan", nil
}

// PlannerAdversarial runs the permissive (75%-match) and selective eq
// predicates under the planner's access path and under the other one,
// forced (sqlengine.ForEachPlan): the ix_adv_flag probe the
// always-index heuristic takes, and a scan. It reports the access
// path and the matched row count per cell. The caller asserts the
// decisions (scan on the permissive predicate, index when selective);
// BenchmarkAdversarialScan/Probe time the two paths.
func PlannerAdversarial(n int) ([]PlannerRecord, error) {
	cases := []struct {
		name   string
		query  string
		forced string // the forced plan, and its access path
		access string
	}{
		{"permissive-eq", `select count(*), sum(v) from adv where flag = 1`, "adv: index ix_adv_flag #0", "index"},
		{"selective-eq", fmt.Sprintf(`select count(*), sum(v) from adv where id = %d`, n/2), "adv: pruned scan", "scan"},
	}
	var out []PlannerRecord
	for _, c := range cases {
		en, err := BuildAdversarialEngine(n)
		if err != nil {
			return nil, err
		}
		planned, err := AccessPath(en, c.query)
		if err != nil {
			return nil, err
		}
		err = sqlengine.ForEachPlan(en, nil, c.query, func(plan string, run func() (*sqlengine.Result, error)) error {
			rec := PlannerRecord{Case: c.name, Access: planned}
			switch plan {
			case "planned":
			case c.forced:
				rec.Forced, rec.Access = plan, c.access
			default:
				return nil
			}
			res, err := run()
			if err != nil {
				return err
			}
			if len(res.Rows) == 1 && len(res.Rows[0]) > 0 {
				if v, ok := res.Rows[0][0].AsInt(); ok {
					rec.Rows = int(v)
				}
			}
			out = append(out, rec)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
