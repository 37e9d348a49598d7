package bench

import (
	"fmt"

	"archis/internal/temporal"
	"archis/internal/xquery"
)

// QueryID identifies a Table 3 query.
type QueryID int

// The six queries of Table 3.
const (
	Q1 QueryID = iota + 1 // snapshot, single object
	Q2                    // snapshot, aggregate over all objects
	Q3                    // history, single object
	Q4                    // history, all objects (count of changes)
	Q5                    // temporal slicing with a value predicate
	Q6                    // temporal join (max raise over a window)
)

// Describe returns the paper's wording for a query.
func Describe(q QueryID) string {
	switch q {
	case Q1:
		return "Q1 snapshot (single object): salary of one employee on a date"
	case Q2:
		return "Q2 snapshot: average salary on a date"
	case Q3:
		return "Q3 history (single object): salary history of one employee"
	case Q4:
		return "Q4 history: total number of salary changes"
	case Q5:
		return "Q5 slicing: employees with salary > 60K in a window"
	case Q6:
		return "Q6 temporal join: max salary increase over a two-year period"
	}
	return "?"
}

// AllQueries lists Q1..Q6.
var AllQueries = []QueryID{Q1, Q2, Q3, Q4, Q5, Q6}

// Result is a query outcome, comparable across backends.
type Result struct {
	Rows  int
	Value string // scalar result where the query has one
}

// SQL renders the ArchIS-side SQL for a query — the hand-tuned
// statements the paper runs (Q1/Q3 also come out of the translator;
// Q2/Q4/Q5/Q6 use aggregates as Section 5.4's OLAP mapping does).
func (e *Env) SQL(q QueryID) string {
	day := e.SnapshotDay
	switch q {
	case Q1:
		return fmt.Sprintf(
			`select S.salary from employee_salary S where S.id = %d and S.tstart <= DATE '%s' and S.tend >= DATE '%s'%s`,
			e.SingleID, day, day, e.segRestrict("S", "employee_salary", day, day))
	case Q2:
		return fmt.Sprintf(
			`select avg(S.salary) from employee_salary S where S.tstart <= DATE '%s' and S.tend >= DATE '%s'%s`,
			day, day, e.segRestrict("S", "employee_salary", day, day))
	case Q3:
		return fmt.Sprintf(
			`select S.salary, S.tstart, S.tend from employee_salary S where S.id = %d order by S.tstart`,
			e.SingleID)
	case Q4:
		return `select count(*) from employee_salary S`
	case Q5:
		return fmt.Sprintf(
			`select count_distinct(S.id) from employee_salary S where S.salary > 60000 and toverlaps(S.tstart, S.tend, DATE '%s', DATE '%s')%s`,
			e.SliceLo, e.SliceHi, e.segRestrict("S", "employee_salary", e.SliceLo, e.SliceHi))
	case Q6:
		// The paper's optimization: the temporal join runs as a
		// user-defined aggregate in one scan (Section 8.3). The time
		// bound restricts the segment range (Section 6.3).
		return fmt.Sprintf(
			`select maxraise(S.id, S.salary, S.tstart, 730) from employee_salary S where S.tstart >= DATE '%s'%s`,
			e.JoinStart, e.segRestrict("S", "employee_salary", e.JoinStart, temporal.Forever))
	}
	return ""
}

// JoinSQL is the unoptimized self-join formulation of Q6, kept for the
// join-vs-UDA comparison.
func (e *Env) JoinSQL() string {
	return fmt.Sprintf(
		`select max(S2.salary - S1.salary) from employee_salary S1, employee_salary S2
		 where S1.id = S2.id and S1.tstart >= DATE '%s'
		   and S2.tstart >= S1.tstart and S2.tstart <= S1.tstart + 730`,
		e.JoinStart)
}

// KeyJoinSQL is the translator's key-table join with no id filter:
// every employee id joined to its whole salary history.
func (e *Env) KeyJoinSQL() string {
	return `select T2.id, T1.salary, T1.tstart, T1.tend
		from employee_salary AS T1, employee_id AS T2 where T2.id = T1.id`
}

// TranslatedSQL renders the XQuery forms of Q1 and Q3 through the
// system's translator (Algorithm 1): SQL joining the salary history to
// the employee_id key table, the statements the benchmark's x1 and x3
// ops run.
func (e *Env) TranslatedSQL() ([]string, error) {
	x := &XMLEnv{Env: e}
	var out []string
	for _, q := range []QueryID{Q1, Q3} {
		sql, err := e.Sys.Translate(x.XQuery(q))
		if err != nil {
			return nil, fmt.Errorf("bench: translate %s: %w", Describe(q), err)
		}
		out = append(out, sql)
	}
	return out, nil
}

// Run executes a query on the ArchIS side.
func (e *Env) Run(q QueryID) (Result, error) {
	res, err := e.Sys.Exec(e.SQL(q))
	if err != nil {
		return Result{}, fmt.Errorf("bench: %s: %w", Describe(q), err)
	}
	out := Result{Rows: len(res.Rows)}
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		out.Value = res.Rows[0][0].Text()
	}
	return out, nil
}

// XQuery renders the baseline-side XQuery for a query.
func (x *XMLEnv) XQuery(q QueryID) string {
	e := x.Env
	day := e.SnapshotDay
	switch q {
	case Q1:
		return fmt.Sprintf(
			`for $s in doc("employees.xml")/employees/employee[id=%d]/salary
			   [tstart(.) <= xs:date("%s") and tend(.) >= xs:date("%s")]
			 return string($s)`, e.SingleID, day, day)
	case Q2:
		return fmt.Sprintf(
			`avg(doc("employees.xml")/employees/employee/salary
			   [tstart(.) <= xs:date("%s") and tend(.) >= xs:date("%s")])`, day, day)
	case Q3:
		return fmt.Sprintf(
			`for $s in doc("employees.xml")/employees/employee[id=%d]/salary return $s`, e.SingleID)
	case Q4:
		return `count(doc("employees.xml")/employees/employee/salary)`
	case Q5:
		return fmt.Sprintf(
			`count(doc("employees.xml")/employees/employee[
			   some $s in salary satisfies (number($s) > 60000 and
			     toverlaps($s, telement(xs:date("%s"), xs:date("%s"))))])`,
			e.SliceLo, e.SliceHi)
	case Q6:
		return fmt.Sprintf(
			`max(for $e in doc("employees.xml")/employees/employee
			     for $s1 in $e/salary[tstart(.) >= xs:date("%s")]
			     for $s2 in $e/salary[tstart(.) >= tstart($s1) and tstart(.) <= tstart($s1) + 730]
			     return number($s2) - number($s1))`, e.JoinStart)
	}
	return ""
}

// Run executes a query on the XML-baseline side.
func (x *XMLEnv) Run(q QueryID) (Result, error) {
	seq, err := x.DB.Query(x.XQuery(q))
	if err != nil {
		return Result{}, fmt.Errorf("bench: xmldb %s: %w", Describe(q), err)
	}
	out := Result{Rows: len(seq)}
	if len(seq) == 1 {
		out.Value = seq[0].StringValue()
	}
	_ = xquery.Seq(nil)
	return out, nil
}
