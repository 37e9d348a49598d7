package translator

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"archis/internal/dataset"
	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
	"archis/internal/xmltree"
	"archis/internal/xquery"
)

// fixture builds an archive with the paper's micro-history, a catalog
// for its two H-views, and an XQuery evaluator over the published
// H-documents (the cross-validation reference).
type fixture struct {
	archive *htable.Archive
	en      *sqlengine.Engine
	tr      *Translator
	ev      *xquery.Evaluator
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	en := sqlengine.New(relstore.NewDatabase())
	a, err := htable.New(en, htable.CaptureTrigger)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.RegisterPaperTables(a); err != nil {
		t.Fatal(err)
	}
	if err := dataset.LoadMicro(a); err != nil {
		t.Fatal(err)
	}
	cat := MapCatalog{
		"employees.xml": {
			DocName: "employees.xml", RootName: "employees", EntityName: "employee",
			KeyTable: "employee_id", KeyLeaf: "id", KeyColumn: "id",
			AttrTables: map[string]string{
				"name": "employee_name", "salary": "employee_salary",
				"title": "employee_title", "deptno": "employee_deptno",
			},
		},
		"depts.xml": {
			DocName: "depts.xml", RootName: "depts", EntityName: "dept",
			KeyTable: "dept_deptno", KeyLeaf: "deptno", KeyColumn: "deptno",
			AttrTables: map[string]string{
				"deptname": "dept_deptname", "mgrno": "dept_mgrno",
			},
		},
	}
	// Alias emp.xml to the employees view, as the paper's Q5/Q6 do.
	cat["emp.xml"] = cat["employees.xml"]

	empDoc, err := a.PublishHDoc("employee")
	if err != nil {
		t.Fatal(err)
	}
	deptDoc, err := a.PublishHDoc("dept")
	if err != nil {
		t.Fatal(err)
	}
	ev := xquery.NewEvaluator(func(name string) (*xmltree.Node, error) {
		switch name {
		case "employees.xml", "emp.xml":
			return empDoc, nil
		case "depts.xml":
			return deptDoc, nil
		}
		t.Fatalf("unexpected doc %q", name)
		return nil, nil
	})
	ev.Now = a.Clock()
	return &fixture{archive: a, en: en, tr: &Translator{Catalog: cat}, ev: ev}
}

// runSQL executes translated SQL and returns each row's values
// serialized.
func (f *fixture) runSQL(t *testing.T, sql string) []string {
	t.Helper()
	res, err := f.en.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Text()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

// crossValidate runs the query on both paths and compares the
// (sorted) serialized results.
func (f *fixture) crossValidate(t *testing.T, query string) {
	t.Helper()
	sql, err := f.tr.Translate(query)
	if err != nil {
		t.Fatalf("Translate(%s): %v", query, err)
	}
	sqlOut := f.runSQL(t, sql)

	seq, err := f.ev.Eval(query)
	if err != nil {
		t.Fatalf("Eval(%s): %v", query, err)
	}
	var xqOut []string
	for _, it := range seq {
		xqOut = append(xqOut, it.String())
	}
	sort.Strings(sqlOut)
	sort.Strings(xqOut)
	if strings.Join(sqlOut, "\n") != strings.Join(xqOut, "\n") {
		t.Errorf("paths disagree for %s\nSQL (%d):\n%s\nXML view (%d):\n%s\ntranslation: %s",
			query, len(sqlOut), strings.Join(sqlOut, "\n"), len(xqOut), strings.Join(xqOut, "\n"), sql)
	}
}

func TestQuery1TranslationShape(t *testing.T) {
	f := newFixture(t)
	sql, err := f.tr.Translate(`
element title_history{
  for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
  return $t }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"XMLElement(Name \"title_history\"", "XMLAgg(",
		"employee_title AS T1", "employee_name AS T2",
		"T2.id = T1.id", "T2.name = 'Bob'", "GROUP BY T1.id",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("translation missing %q:\n%s", want, sql)
		}
	}
	got := f.runSQL(t, sql)
	if len(got) != 1 {
		t.Fatalf("rows = %d", len(got))
	}
	if !strings.Contains(got[0], ">Engineer</title>") || !strings.Contains(got[0], ">TechLeader</title>") {
		t.Errorf("result = %s", got[0])
	}
}

func TestQuery2SnapshotTranslation(t *testing.T) {
	f := newFixture(t)
	q := `
for $m in doc("depts.xml")/depts/dept/mgrno
    [tstart(.)<=xs:date("1994-05-06") and tend(.) >= xs:date("1994-05-06")]
return $m`
	sql, err := f.tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dept_mgrno AS T1", "T1.tstart <= DATE '1994-05-06'", "T1.tend >= DATE '1994-05-06'"} {
		if !strings.Contains(sql, want) {
			t.Errorf("translation missing %q:\n%s", want, sql)
		}
	}
	got := f.runSQL(t, sql)
	if len(got) != 3 {
		t.Errorf("managers on 1994-05-06 = %v", got)
	}
	f.crossValidate(t, q)
}

func TestQuery3SlicingTranslation(t *testing.T) {
	f := newFixture(t)
	q := `
for $e in doc("employees.xml")/employees/employee[ toverlaps(.,
    telement( xs:date("1994-05-06"), xs:date("1995-05-06") ) ) ]
return $e/name`
	sql, err := f.tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"employee_id AS T1", "TOVERLAPS(T1.tstart, T1.tend, DATE '1994-05-06', DATE '1995-05-06')", "employee_name AS T2"} {
		if !strings.Contains(sql, want) {
			t.Errorf("translation missing %q:\n%s", want, sql)
		}
	}
	got := f.runSQL(t, sql)
	if len(got) != 3 { // Bob, Carol and Alice all existed in that window
		t.Errorf("slicing = %v", got)
	}
	f.crossValidate(t, q)
}

func TestQuery5TemporalAggregateTranslation(t *testing.T) {
	f := newFixture(t)
	q := `
let $s := document("emp.xml")/employees/employee/salary
return tavg($s)`
	sql, err := f.tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "TAVG(T1.salary, T1.tstart, T1.tend)") {
		t.Errorf("translation: %s", sql)
	}
	got := f.runSQL(t, sql)
	if len(got) != 1 || !strings.Contains(got[0], "step") {
		t.Fatalf("tavg = %v", got)
	}
	// Between 1995-03-01 and 1995-05-31 salaries are 60000/50000/55000.
	if !strings.Contains(got[0], `value="55000" tstart="1995-03-01"`) {
		t.Errorf("missing expected step: %s", got[0])
	}
}

func TestQuery7SinceTranslation(t *testing.T) {
	f := newFixture(t)
	// The overlap variant of the paper's since query (Alice matches).
	// The paper returns <employee>{$e/id, $e/name}</employee>: a
	// constructor over paths that bind every version, which falls back
	// to the XML path, so the translated form returns the names.
	const clauses = `
for $e in doc("employees.xml")/employees/employee
let $m := $e/title[.="Sr Engineer" and tend(.)=current-date()]
let $d := $e/deptno[.="d01" and toverlaps($m, .)]
where not(empty($d)) and not(empty($m))`
	if _, err := f.tr.Translate(clauses + ` return <employee>{$e/id, $e/name}</employee>`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("constructor over entity paths: err = %v, want ErrUnsupported", err)
	}
	q := clauses + ` return $e/name`
	sql, err := f.tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "T1.tend = DATE '9999-12-31'") {
		t.Errorf("tend(.)=current-date() not rewritten to the prunable form:\n%s", sql)
	}
	got := f.runSQL(t, sql)
	if len(got) != 1 || !strings.Contains(got[0], "Alice") {
		t.Errorf("since = %v\nsql: %s", got, sql)
	}
	f.crossValidate(t, q)
}

func TestContextDotEqualsValue(t *testing.T) {
	f := newFixture(t)
	q := `
for $d in doc("employees.xml")/employees/employee/deptno[.="d02"]
return $d`
	f.crossValidate(t, q)
}

func TestUnsupportedShapes(t *testing.T) {
	f := newFixture(t)
	cases := []string{
		// Q4: nested FLWOR inside a constructor.
		`element manages{
		  for $d in doc("depts.xml")/depts/dept
		  for $m in $d/mgrno
		  return element manage {$d/deptno, $m,
		    element employees {
		      for $e in doc("employees.xml")/employees/employee
		      where $e/deptno = $d/deptno
		      return $e/name }}}`,
		// Q6: restructuring.
		`for $e in doc("emp.xml")/employees/employee[name="Bob"]
		 let $d := $e/deptno
		 let $t := $e/title
		 let $overlaps := restructure($d, $t)
		 return max($overlaps)`,
		// Q8: quantified expressions.
		`for $e1 in doc("employees.xml")/employees/employee[name = "Bob"]
		 for $e2 in doc("employees.xml")/employees/employee[name != "Bob"]
		 where every $d1 in $e1/deptno satisfies some $d2 in $e2/deptno satisfies
		   (string($d1)=string($d2) and tequals($d2,$d1))
		 return <employee>{$e2/name}</employee>`,
		// Arbitrary unsupported scalar.
		`for $e in doc("employees.xml")/employees/employee return count(distinct-values($e/deptno))`,
	}
	for _, q := range cases {
		if _, err := f.tr.Translate(q); !errors.Is(err, ErrUnsupported) {
			t.Errorf("Translate(%q): err = %v, want ErrUnsupported", q, err)
		}
	}
}

func TestTranslateErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.tr.Translate(`for $x in doc("nosuch.xml")/a/b return $x`); err == nil {
		t.Error("unknown doc accepted")
	}
	if _, err := f.tr.Translate(`for $x in doc("employees.xml")/wrong/employee return $x`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("wrong root: %v", err)
	}
	if _, err := f.tr.Translate(`for $x in doc("employees.xml")/employees/employee/nosuchattr return $x`); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := f.tr.Translate(`for $x in`); err == nil {
		t.Error("parse error swallowed")
	}
}

func TestSegmentRestrictionInjection(t *testing.T) {
	f := newFixture(t)
	var askedLo, askedHi temporal.Date
	cat := f.tr.Catalog.(MapCatalog)
	v := *cat["employees.xml"]
	v.SegmentsFor = func(table string, lo, hi temporal.Date) (int64, int64, bool) {
		askedLo, askedHi = lo, hi
		if table != "employee_salary" {
			return 0, 0, false
		}
		return 3, 3, true
	}
	cat["employees.xml"] = &v

	const snapshot = `
for $s in doc("employees.xml")/employees/employee/salary
    [tstart(.)<=xs:date("1995-07-01") and tend(.)>=xs:date("1995-07-01")]
return `
	sql, err := f.tr.Translate(snapshot + `string($s)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "T1.segno = 3") {
		t.Errorf("missing segment restriction:\n%s", sql)
	}
	if askedLo.String() != "1995-07-01" || askedHi.String() != "1995-07-01" {
		t.Errorf("segment range asked = [%s, %s]", askedLo, askedHi)
	}

	// Slicing via toverlaps also restricts.
	sql, err = f.tr.Translate(`
for $s in doc("employees.xml")/employees/employee/salary
    [toverlaps(., telement(xs:date("1995-01-01"), xs:date("1995-12-31")))]
return string($s)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "T1.segno = 3") {
		t.Errorf("missing slicing segment restriction:\n%s", sql)
	}
	if askedLo.String() != "1995-01-01" || askedHi.String() != "1995-12-31" {
		t.Errorf("slicing range asked = [%s, %s]", askedLo, askedHi)
	}

	// A frozen copy of a version live at archive time keeps tend =
	// 9999-12-31, so SQL that reads tend — the element's tend
	// attribute, tend(), a temporal aggregate — must not be held to
	// one segment.
	for _, ret := range []string{`$s`, `<e at="{tend($s)}"/>`, `<e>{timespan($s)}</e>`} {
		sql, err := f.tr.Translate(snapshot + ret)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sql, "segno") {
			t.Errorf("return %s reads tend yet is restricted:\n%s", ret, sql)
		}
	}
}

func TestTableMode(t *testing.T) {
	f := newFixture(t)
	f.tr.TableMode = true
	sql, err := f.tr.Translate(`
for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary
return $s`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sql, "XMLElement") {
		t.Errorf("table mode emitted XML: %s", sql)
	}
	got := f.runSQL(t, sql)
	if len(got) != 2 || !strings.HasPrefix(got[0], "60000|1995-01-01|") {
		t.Errorf("table mode rows = %v", got)
	}
}

func TestCrossValidationSuite(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		`for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`,
		`for $t in doc("employees.xml")/employees/employee[name="Alice"]/title return $t`,
		// Snapshot dates must not exceed "now" (the clock is
		// 1997-01-01): beyond it the two paths legitimately diverge,
		// since tend() reads current tuples as ending at current-date.
		`for $m in doc("depts.xml")/depts/dept/mgrno[tstart(.)<=xs:date("1997-01-01") and tend(.)>=xs:date("1997-01-01")] return $m`,
		`for $e in doc("employees.xml")/employees/employee[toverlaps(., telement(xs:date("1996-06-01"), xs:date("1997-06-01")))] return $e/name`,
		`for $d in doc("employees.xml")/employees/employee/deptno[.="d01"] return $d`,
		`for $s in doc("employees.xml")/employees/employee/salary[. > 56000] return $s`,
	}
	for _, q := range queries {
		f.crossValidate(t, q)
	}
}
