package sqlengine

import (
	"fmt"
	"strings"
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// newHRDB builds a small database shaped like the paper's H-tables for
// the employees of Table 1 / Figure 1.
func newHRDB(t *testing.T) *Engine {
	t.Helper()
	en := New(relstore.NewDatabase())
	en.SetNow(temporal.MustParseDate("1997-01-01"))
	for _, ddl := range []string{
		`create table employee_id (id INT, tstart DATE, tend DATE)`,
		`create table employee_name (id INT, name VARCHAR, tstart DATE, tend DATE)`,
		`create table employee_salary (id INT, salary INT, tstart DATE, tend DATE)`,
		`create table employee_title (id INT, title VARCHAR, tstart DATE, tend DATE)`,
		`create table employee_deptno (id INT, deptno VARCHAR, tstart DATE, tend DATE)`,
		`create table dept_mgrno (deptno VARCHAR, mgrno INT, tstart DATE, tend DATE)`,
	} {
		en.MustExec(ddl)
	}
	// Bob, from Table 1 of the paper.
	en.MustExec(`insert into employee_id values (1001, '1995-01-01', '1996-12-31')`)
	en.MustExec(`insert into employee_name values (1001, 'Bob', '1995-01-01', '1996-12-31')`)
	en.MustExec(`insert into employee_salary values
		(1001, 60000, '1995-01-01', '1995-05-31'),
		(1001, 70000, '1995-06-01', '1996-12-31')`)
	en.MustExec(`insert into employee_title values
		(1001, 'Engineer', '1995-01-01', '1995-09-30'),
		(1001, 'Sr Engineer', '1995-10-01', '1996-01-31'),
		(1001, 'TechLeader', '1996-02-01', '1996-12-31')`)
	en.MustExec(`insert into employee_deptno values
		(1001, 'd01', '1995-01-01', '1995-09-30'),
		(1001, 'd02', '1995-10-01', '1996-12-31')`)
	// A second employee, current.
	en.MustExec(`insert into employee_id values (1002, '1995-03-01', '9999-12-31')`)
	en.MustExec(`insert into employee_name values (1002, 'Alice', '1995-03-01', '9999-12-31')`)
	en.MustExec(`insert into employee_salary values
		(1002, 50000, '1995-03-01', '1995-12-31'),
		(1002, 65000, '1996-01-01', '9999-12-31')`)
	en.MustExec(`insert into employee_title values (1002, 'Engineer', '1995-03-01', '9999-12-31')`)
	en.MustExec(`insert into employee_deptno values (1002, 'd01', '1995-03-01', '9999-12-31')`)
	// Departments, from Table 2.
	en.MustExec(`insert into dept_mgrno values
		('d01', 2501, '1994-01-01', '1998-12-31'),
		('d02', 3402, '1992-01-01', '1996-12-31'),
		('d02', 1009, '1997-01-01', '1998-12-31'),
		('d03', 4748, '1993-01-01', '1997-12-31')`)
	return en
}

func queryStrings(t *testing.T, en *Engine, sql string) []string {
	t.Helper()
	res, err := en.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	var out []string
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.Text()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestSelectSingleTable(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select salary from employee_salary where id = 1001 order by tstart`)
	if len(got) != 2 || got[0] != "60000" || got[1] != "70000" {
		t.Errorf("salaries = %v", got)
	}
}

func TestSelectStar(t *testing.T) {
	en := newHRDB(t)
	res, err := en.Exec(`select * from employee_name where name = 'Bob'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Columns) != 4 {
		t.Fatalf("star: %v %v", res.Columns, res.Rows)
	}
	if res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestJoinOnID(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `
		select N.name, S.salary from employee_name as N, employee_salary as S
		where N.id = S.id and S.salary > 60000 order by S.salary`)
	want := []string{"Alice|65000", "Bob|70000"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("join = %v", got)
	}
}

func TestThreeWayJoin(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `
		select N.name, T.title, D.deptno
		from employee_name N, employee_title T, employee_deptno D
		where N.id = T.id and T.id = D.id and T.title = 'TechLeader'`)
	if len(got) != 2 {
		t.Fatalf("3-way join = %v", got)
	}
	for _, g := range got {
		if !strings.HasPrefix(g, "Bob|TechLeader|") {
			t.Errorf("row = %q", g)
		}
	}
}

func TestDateComparisonWithStrings(t *testing.T) {
	en := newHRDB(t)
	// Snapshot predicate in the paper's style: quoted ISO dates
	// compared against DATE columns.
	got := queryStrings(t, en, `
		select salary from employee_salary
		where id = 1001 and tstart <= "1995-07-01" and tend >= "1995-07-01"`)
	if len(got) != 1 || got[0] != "70000" {
		t.Errorf("snapshot salary = %v", got)
	}
}

func TestTemporalPredicatesInSQL(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `
		select name from employee_name as N
		where toverlaps(N.tstart, N.tend, DATE '1994-05-06', DATE '1995-05-06')
		order by name`)
	if len(got) != 2 {
		t.Errorf("toverlaps = %v", got)
	}
	got = queryStrings(t, en, `
		select title from employee_title
		where id = 1001 and tcontains(tstart, tend, DATE '1995-11-01', DATE '1995-12-01')`)
	if len(got) != 1 || got[0] != "Sr Engineer" {
		t.Errorf("tcontains = %v", got)
	}
	got = queryStrings(t, en, `
		select title from employee_title
		where id = 1001 and tmeets(tstart, tend, DATE '1995-10-01', DATE '1996-01-31')`)
	if len(got) != 1 || got[0] != "Engineer" {
		t.Errorf("tmeets = %v", got)
	}
}

func TestOverlapIntervalFunction(t *testing.T) {
	en := newHRDB(t)
	res, err := en.Exec(`
		select overlapinterval(tstart, tend, DATE '1995-05-01', DATE '1995-07-01')
		from employee_salary where id = 1001 and salary = 60000`)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Rows[0][0]
	if v.Kind != relstore.TypeXML {
		t.Fatalf("kind = %v", v.Kind)
	}
	if got, _ := v.X.Attr("tstart"); got != "1995-05-01" {
		t.Errorf("tstart = %s", got)
	}
	if got, _ := v.X.Attr("tend"); got != "1995-05-31" {
		t.Errorf("tend = %s", got)
	}
	// Disjoint → NULL.
	res, err = en.Exec(`
		select overlapinterval(tstart, tend, DATE '1999-01-01', DATE '1999-02-01')
		from employee_salary where id = 1001 and salary = 60000`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Error("disjoint overlapinterval should be NULL")
	}
}

func TestAggregates(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select count(*), min(salary), max(salary), sum(salary), avg(salary) from employee_salary`)
	if got[0] != "4|50000|70000|245000|61250" {
		t.Errorf("aggregates = %v", got)
	}
	got = queryStrings(t, en, `
		select id, count(*) from employee_salary group by id order by id`)
	if len(got) != 2 || got[0] != "1001|2" || got[1] != "1002|2" {
		t.Errorf("group count = %v", got)
	}
}

func TestGroupByHaving(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `
		select id, max(salary) from employee_salary
		group by id having max(salary) > 66000`)
	if len(got) != 1 || got[0] != "1001|70000" {
		t.Errorf("having = %v", got)
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select count(*) from employee_salary where id = 9999`)
	if len(got) != 1 || got[0] != "0" {
		t.Errorf("empty count = %v", got)
	}
	res, _ := en.Exec(`select max(salary) from employee_salary where id = 9999`)
	if !res.Rows[0][0].IsNull() {
		t.Error("max over empty should be NULL")
	}
}

func TestXMLElementConstruction(t *testing.T) {
	en := newHRDB(t)
	res, err := en.Exec(`
		select XMLElement(Name "employee",
			XMLAttributes(N.tstart as "tstart", N.tend as "tend"),
			N.name)
		from employee_name as N where N.name = 'Bob'`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0][0].Text()
	want := `<employee tstart="1995-01-01" tend="1996-12-31">Bob</employee>`
	if got != want {
		t.Errorf("xml = %s", got)
	}
}

func TestXMLAggPaperExample(t *testing.T) {
	en := newHRDB(t)
	// The paper's "new_employees" example from Section 5.3.
	res, err := en.Exec(`
		select XMLElement (Name "new_employees",
			XMLAttributes ("1995-02-01" as "start"),
			XMLAgg (XMLElement (Name "employee", e.name)))
		from employee_name as e
		where e.tstart >= "1995-02-01"`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Rows[0][0].Text()
	want := `<new_employees start="1995-02-01"><employee>Alice</employee></new_employees>`
	if got != want {
		t.Errorf("xml = %s", got)
	}
}

func TestQuery1FullTranslation(t *testing.T) {
	en := newHRDB(t)
	res, err := en.Exec(`
		select XMLElement (Name "title_history",
			XMLAgg (XMLElement (Name "title",
				XMLAttributes (T.tstart as "tstart", T.tend as "tend"), T.title)))
		from employee_title as T, employee_name as N
		where N.id = T.id and N.name = "Bob"
		group by N.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	x := res.Rows[0][0].X
	if x.Name != "title_history" {
		t.Fatalf("root = %s", x.Name)
	}
	titles := x.ChildElements("title")
	if len(titles) != 3 {
		t.Fatalf("titles = %d", len(titles))
	}
	if titles[0].TextContent() != "Engineer" || titles[2].TextContent() != "TechLeader" {
		t.Errorf("title values wrong: %s", res.Rows[0][0].Text())
	}
	if v, _ := titles[1].Attr("tstart"); v != "1995-10-01" {
		t.Errorf("tstart = %s", v)
	}
}

func TestTemporalAggregateTAVG(t *testing.T) {
	en := newHRDB(t)
	res, err := en.Exec(`select tavg(salary, tstart, tend) from employee_salary`)
	if err != nil {
		t.Fatal(err)
	}
	steps := res.Rows[0][0].X.ChildElements("step")
	if len(steps) < 3 {
		t.Fatalf("steps = %d: %s", len(steps), res.Rows[0][0].Text())
	}
	// From 1995-06-01 to 1995-12-31 both Bob (70000) and Alice (50000)
	// are live: average 60000.
	found := false
	for _, s := range steps {
		if s.AttrOr("tstart", "") == "1995-06-01" && s.AttrOr("value", "") == "60000" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected 60000 step: %s", res.Rows[0][0].Text())
	}
}

func TestInsertUpdateDeleteWithTriggers(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table emp (id INT, name VARCHAR, salary INT)`)
	var events []string
	en.AddTrigger("emp", func(ev TriggerEvent) error {
		events = append(events, ev.Type.String())
		return nil
	})
	en.MustExec(`insert into emp values (1, 'Bob', 100)`)
	en.MustExec(`update emp set salary = 200 where id = 1`)
	en.MustExec(`delete from emp where id = 1`)
	if strings.Join(events, ",") != "INSERT,UPDATE,DELETE" {
		t.Errorf("events = %v", events)
	}
}

func TestTriggerSeesOldAndNew(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table emp (id INT, salary INT)`)
	var old, nw int64
	en.AddTrigger("emp", func(ev TriggerEvent) error {
		if ev.Type == ChangeUpdate {
			old, _ = ev.Old[1].AsInt()
			nw, _ = ev.New[1].AsInt()
		}
		return nil
	})
	en.MustExec(`insert into emp values (1, 100)`)
	en.MustExec(`update emp set salary = salary + 10 where id = 1`)
	if old != 100 || nw != 110 {
		t.Errorf("old=%d new=%d", old, nw)
	}
}

func TestUpdateAffectsOnlyMatching(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table emp (id INT, salary INT)`)
	en.MustExec(`insert into emp values (1, 100), (2, 200), (3, 300)`)
	res := en.MustExec(`update emp set salary = 0 where id > 1`)
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	got := queryStrings(t, en, `select salary from emp order by id`)
	if got[0] != "100" || got[1] != "0" || got[2] != "0" {
		t.Errorf("salaries = %v", got)
	}
}

func TestIndexLookupUsed(t *testing.T) {
	en := newHRDB(t)
	en.MustExec(`create index ix_sal_id on employee_salary (id)`)
	en.DB.DropCaches()
	en.DB.ResetStats()
	got := queryStrings(t, en, `select salary from employee_salary where id = 1002 order by salary`)
	if len(got) != 2 || got[0] != "50000" {
		t.Errorf("index query = %v", got)
	}
}

func TestCurrentDateAndRTEND(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select current_date() from employee_id where id = 1001`)
	if got[0] != "1997-01-01" {
		t.Errorf("current_date = %v", got)
	}
	got = queryStrings(t, en, `select rtend(tend) from employee_id order by id`)
	if got[0] != "1996-12-31" || got[1] != "1997-01-01" {
		t.Errorf("rtend = %v", got)
	}
}

func TestVirtualTable(t *testing.T) {
	en := New(relstore.NewDatabase())
	vt := &sliceTable{
		schema: relstore.NewSchema("virt", relstore.Col("k", relstore.TypeInt), relstore.Col("v", relstore.TypeString)),
		rows: []relstore.Row{
			{relstore.Int(1), relstore.String_("one")},
			{relstore.Int(2), relstore.String_("two")},
		},
	}
	en.RegisterVirtual("virt", vt)
	got := queryStrings(t, en, `select v from virt where k = 2`)
	if len(got) != 1 || got[0] != "two" {
		t.Errorf("virtual = %v", got)
	}
	en.UnregisterVirtual("virt")
	if _, err := en.Exec(`select v from virt`); err == nil {
		t.Error("unregistered virtual still visible")
	}
}

type sliceTable struct {
	schema relstore.Schema
	rows   []relstore.Row
}

func (s *sliceTable) Schema() relstore.Schema { return s.schema }
func (s *sliceTable) Scan(_ []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	for _, r := range s.rows {
		if !fn(r) {
			return nil
		}
	}
	return nil
}

func TestExecErrors(t *testing.T) {
	en := newHRDB(t)
	bad := []string{
		`select nope from employee_id`,
		`select id from nosuch`,
		`select e.id from employee_id x`,
		`insert into employee_id values (1)`,
		`insert into nosuch values (1)`,
		`update employee_id set nope = 1`,
		`select id from employee_id, employee_name`, // ambiguous id
		`select unknownfunc(id) from employee_id`,
		`select salary / 0 from employee_salary`,
	}
	for _, sql := range bad {
		if _, err := en.Exec(sql); err == nil {
			t.Errorf("Exec(%q): expected error", sql)
		}
	}
}

func TestCaseExpression(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `
		select name, case when tend = DATE '9999-12-31' then 'current' else 'former' end
		from employee_name order by name`)
	if got[0] != "Alice|current" || got[1] != "Bob|former" {
		t.Errorf("case = %v", got)
	}
}

func TestInAndBetweenEval(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select title from employee_title where title in ('Engineer', 'TechLeader') and id = 1001 order by tstart`)
	if len(got) != 2 {
		t.Errorf("in = %v", got)
	}
	got = queryStrings(t, en, `select salary from employee_salary where salary between 55000 and 66000 order by salary`)
	if len(got) != 2 || got[0] != "60000" || got[1] != "65000" {
		t.Errorf("between = %v", got)
	}
}

func TestLimitAndOrderDesc(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select salary from employee_salary order by salary desc limit 2`)
	if len(got) != 2 || got[0] != "70000" || got[1] != "65000" {
		t.Errorf("limit/desc = %v", got)
	}
}

func TestConcatAndArith(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select name || '-' || N.id, salary + 1 from employee_name N, employee_salary S where N.id = S.id and S.salary = 50000`)
	if len(got) != 1 || got[0] != "Alice-1002|50001" {
		t.Errorf("concat = %v", got)
	}
}

func TestDateArithmeticSQL(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select tstart + 30 from employee_id where id = 1001`)
	if got[0] != "1995-01-31" {
		t.Errorf("date+int = %v", got)
	}
	got = queryStrings(t, en, `select tend - tstart from employee_id where id = 1001`)
	if got[0] != "730" {
		t.Errorf("date-date = %v", got)
	}
}

func TestTRisingAggregate(t *testing.T) {
	en := newHRDB(t)
	res, err := en.Exec(`select trising(salary, tstart, tend) from employee_salary where id = 1001`)
	if err != nil {
		t.Fatal(err)
	}
	ivs := res.Rows[0][0].X.ChildElements("interval")
	if len(ivs) != 1 {
		t.Fatalf("rising intervals = %d: %s", len(ivs), res.Rows[0][0].Text())
	}
	if got, _ := ivs[0].Attr("tstart"); got != "1995-01-01" {
		t.Errorf("tstart = %s", got)
	}
}

func TestCountDistinctAggregate(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select count_distinct(id) from employee_salary`)
	if got[0] != "2" {
		t.Errorf("count_distinct = %v", got)
	}
	got = queryStrings(t, en, `select count_distinct(salary) from employee_salary`)
	if got[0] != "4" {
		t.Errorf("count_distinct salary = %v", got)
	}
}

func TestSelectDistinct(t *testing.T) {
	en := newHRDB(t)
	got := queryStrings(t, en, `select distinct id from employee_salary order by id`)
	if len(got) != 2 || got[0] != "1001" || got[1] != "1002" {
		t.Errorf("distinct = %v", got)
	}
	got = queryStrings(t, en, `select distinct deptno from employee_deptno order by deptno`)
	if len(got) != 2 || got[0] != "d01" || got[1] != "d02" {
		t.Errorf("distinct deptno = %v", got)
	}
	// Without DISTINCT the duplicates remain.
	got = queryStrings(t, en, `select id from employee_salary`)
	if len(got) != 4 {
		t.Errorf("non-distinct = %v", got)
	}
}

// TestExactIntCompare runs the 2^53 neighbour repro on every read path
// that compares integers: the row filter, an equality-index probe, and
// a batch kernel. Through float64 both keys compare equal, so the
// point query returned both rows and ORDER BY kept insertion order.
func TestExactIntCompare(t *testing.T) {
	const lo, hi = "9007199254740992", "9007199254740993"
	point := `select v from t where k = ` + hi
	desc := `select k from t order by k desc`
	check := func(name string, en *Engine) {
		t.Helper()
		if got := queryStrings(t, en, point); fmt.Sprint(got) != "[b]" {
			t.Errorf("%s: %s = %v, want [b]", name, point, got)
		}
		if got := queryStrings(t, en, desc); fmt.Sprint(got) != "["+hi+" "+lo+"]" {
			t.Errorf("%s: %s = %v, want [%s %s]", name, desc, got, hi, lo)
		}
	}

	en := New(relstore.NewDatabase())
	en.MustExec(`create table t (k INT, v VARCHAR)`)
	en.MustExec(`insert into t values (` + lo + `, 'a')`)
	en.MustExec(`insert into t values (` + hi + `, 'b')`)
	check("row path", en)
	en.MustExec(`create index ix_t_k on t (k)`)
	check("indexed", en)

	bt := &batchTable{per: 1, sliceTable: sliceTable{schema: relstore.NewSchema("t",
		relstore.Col("k", relstore.TypeInt), relstore.Col("v", relstore.TypeString))}}
	for i, k := range []int64{1 << 53, 1<<53 + 1} {
		bt.rows = append(bt.rows, relstore.Row{relstore.Int(k), relstore.String_(string(rune('a' + i)))})
	}
	ben := New(relstore.NewDatabase())
	ben.RegisterVirtual("t", bt)
	ben.Workers = 1
	check("batch kernel", ben)
	if bt.scans.Load() != 0 {
		t.Errorf("batch kernel: %d row scans, want the batch drain only", bt.scans.Load())
	}
}

// TestRenderLimitAndDistinct pins the shared tail of every SELECT:
// LIMIT 0 returns no rows, and DISTINCT applies to grouped output as
// it does to projected rows.
func TestRenderLimitAndDistinct(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table t (g INT, v INT)`)
	for _, r := range [][2]int{{1, 5}, {1, 5}, {2, 5}, {3, 7}} {
		en.MustExec(fmt.Sprintf(`insert into t values (%d, %d)`, r[0], r[1]))
	}
	for _, tc := range []struct{ sql, want string }{
		{`select v from t limit 0`, `[]`},
		{`select count(*) from t group by g order by g limit 0`, `[]`},
		{`select v from t order by v desc limit 2`, `[7 5]`},
		{`select distinct v from t order by v`, `[5 7]`},
		{`select distinct sum(v) from t group by g order by sum(v)`, `[5 7 10]`},
		{`select distinct count(*) from t group by g`, `[2 1]`},
	} {
		if got := fmt.Sprint(queryStrings(t, en, tc.sql)); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}
