package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"archis/internal/dataset"
	"archis/internal/temporal"
	"archis/internal/xquery"
)

func newLoadedSystem(t *testing.T, opts Options) *System {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(dataset.EmployeeSpec()); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(dataset.DeptSpec()); err != nil {
		t.Fatal(err)
	}
	if err := s.AliasDoc("emp.xml", "employee"); err != nil {
		t.Fatal(err)
	}
	if err := dataset.LoadMicro(s.Archive); err != nil {
		t.Fatal(err)
	}
	// The micro history is loaded through the archive directly, below
	// the statement paths — publish so snapshot readers see it.
	s.Publish()
	return s
}

func TestQueryViaSQLPath(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	res, err := s.Query(`
element title_history{
  for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
  return $t }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathSQL {
		t.Errorf("path = %s", res.Path)
	}
	if len(res.Items) != 1 || !strings.Contains(res.Items.Serialize(), "TechLeader") {
		t.Errorf("items = %s", res.Items.Serialize())
	}
	if !strings.Contains(res.SQL, "XMLAgg") {
		t.Errorf("sql = %s", res.SQL)
	}
}

func TestQueryFallsBackToXMLPath(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	// QUERY 6 (restructuring) is outside the translatable subset.
	res, err := s.Query(`
for $e in doc("emp.xml")/employees/employee[name="Bob"]
let $d := $e/deptno
let $t := $e/title
let $overlaps := restructure($d, $t)
return max($overlaps)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Path != PathXML {
		t.Fatalf("path = %s", res.Path)
	}
	if res.Items.Serialize() != "335" {
		t.Errorf("max overlap = %s", res.Items.Serialize())
	}
}

func TestBothPathsAgree(t *testing.T) {
	for _, opts := range []Options{
		{Layout: LayoutPlain},
		{Layout: LayoutClustered, MinSegmentRows: 4},
		{Layout: LayoutCompressed, MinSegmentRows: 4},
	} {
		s := newLoadedSystem(t, opts)
		if opts.Layout == LayoutCompressed {
			if err := s.CompressFrozen(); err != nil {
				t.Fatal(err)
			}
		}
		queries := []string{
			`for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`,
			`for $m in doc("depts.xml")/depts/dept/mgrno[tstart(.)<=xs:date("1994-05-06") and tend(.)>=xs:date("1994-05-06")] return $m`,
			`for $e in doc("employees.xml")/employees/employee[toverlaps(., telement(xs:date("1994-05-06"), xs:date("1995-05-06")))] return $e/name`,
		}
		for _, q := range queries {
			sqlRes, err := s.Query(q)
			if err != nil {
				t.Fatalf("layout %d: Query(%s): %v", opts.Layout, q, err)
			}
			if sqlRes.Path != PathSQL {
				t.Fatalf("layout %d: expected SQL path for %s", opts.Layout, q)
			}
			xmlRes, err := s.QueryXML(q)
			if err != nil {
				t.Fatal(err)
			}
			a := sortedItems(sqlRes.Items)
			b := sortedItems(xmlRes)
			if a != b {
				t.Errorf("layout %d: paths disagree for %s\nsql: %s\nxml: %s\ntranslation: %s",
					opts.Layout, q, a, b, sqlRes.SQL)
			}
		}
	}
}

func sortedItems(seq xquery.Seq) string {
	items := make([]string, len(seq))
	for i, it := range seq {
		items[i] = it.String()
	}
	sort.Strings(items)
	return strings.Join(items, "\n")
}

func TestSegmentRestrictionEndToEnd(t *testing.T) {
	s := newLoadedSystem(t, Options{Layout: LayoutClustered, MinSegmentRows: 2, Umin: 0.4})
	// Force archiving activity by updating Alice repeatedly.
	day := temporal.MustParseDate("1997-02-01")
	for i := 0; i < 40; i++ {
		s.SetClock(day.AddDays(i * 10))
		if _, err := s.Exec(`update employee set salary = salary + 100 where id = 1002`); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := s.SegmentStore("employee_salary")
	if !ok || st.Archives() == 0 {
		t.Fatalf("no archiving happened (store=%v)", ok)
	}
	// The restriction holds string($s) to one segment; the element form
	// reads tend, so it scans the range that makes tend authoritative.
	for _, tc := range []struct {
		ret   string
		segno bool
	}{{`string($s)`, true}, {`$s`, false}} {
		sql, err := s.Translate(`
for $s in doc("employees.xml")/employees/employee/salary
    [tstart(.)<=xs:date("1997-06-01") and tend(.)>=xs:date("1997-06-01")]
return ` + tc.ret)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(sql, ".segno") != tc.segno {
			t.Errorf("return %s: segment restriction %v, want %v, in:\n%s", tc.ret, !tc.segno, tc.segno, sql)
		}
		res, err := s.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("return %s: snapshot rows = %d", tc.ret, len(res.Rows))
		}
	}
}

func TestCompressedSystemQueryable(t *testing.T) {
	s := newLoadedSystem(t, Options{Layout: LayoutCompressed, MinSegmentRows: 2, Umin: 0.4})
	day := temporal.MustParseDate("1997-02-01")
	for i := 0; i < 40; i++ {
		s.SetClock(day.AddDays(i * 10))
		if _, err := s.Exec(`update employee set salary = salary + 100 where id = 1002`); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompressFrozen(); err != nil {
		t.Fatal(err)
	}
	cs, ok := s.CompressedStore("employee_salary")
	if !ok {
		t.Fatal("no compressed store")
	}
	if n, _ := cs.BlockCount(); n == 0 {
		t.Fatal("nothing compressed")
	}
	res, err := s.Query(`for $s in doc("employees.xml")/employees/employee[name="Alice"]/salary return $s`)
	if err != nil {
		t.Fatal(err)
	}
	// Alice: 2 micro versions + 40 raises = 42 logical versions.
	if len(res.Items) != 42 {
		t.Errorf("alice salary versions = %d", len(res.Items))
	}
}

func TestStorageBytesExcludesCurrent(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	total := s.StorageBytes()
	if total == 0 {
		t.Fatal("no storage accounted")
	}
	cur, _ := s.DB.Table("employee")
	all := 0
	for _, n := range s.DB.TableNames() {
		tb, _ := s.DB.Table(n)
		all += tb.ByteSize()
	}
	if total != all-cur.ByteSize()-mustBytes(s, "dept") {
		t.Errorf("StorageBytes = %d, all = %d", total, all)
	}
}

func mustBytes(s *System, table string) int {
	t, _ := s.DB.Table(table)
	return t.ByteSize()
}

func TestTranslateCostIsSmall(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	q := `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`
	// Not a benchmark, just a sanity guard: thousands of translations
	// must be trivially fast (the paper reports < 0.1 ms each).
	for i := 0; i < 1000; i++ {
		if _, err := s.Translate(q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownDocErrors(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	if _, err := s.Query(`for $x in doc("nosuch.xml")/a/b return $x`); err == nil {
		t.Error("unknown doc accepted")
	}
	if err := s.AliasDoc("x.xml", "nosuch"); err == nil {
		t.Error("alias for unknown table accepted")
	}
}

func TestPublishCacheInvalidation(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	before, err := s.QueryXML(`count(doc("employees.xml")/employees/employee/salary)`)
	if err != nil {
		t.Fatal(err)
	}
	s.SetClock(temporal.MustParseDate("1997-03-01"))
	if _, err := s.Exec(`update employee set salary = 99999 where id = 1002`); err != nil {
		t.Fatal(err)
	}
	after, err := s.QueryXML(`count(doc("employees.xml")/employees/employee/salary)`)
	if err != nil {
		t.Fatal(err)
	}
	if before.Serialize() == after.Serialize() {
		t.Errorf("published view not invalidated: %s vs %s", before.Serialize(), after.Serialize())
	}
}

func TestFirstKeywordSkipsCommentsAndParens(t *testing.T) {
	cases := map[string]string{
		"select 1":                       "select",
		"  \t\nSELECT 1":                 "select",
		"(select 1)":                     "select",
		"((select 1))":                   "select",
		"-- note\nselect 1":              "select",
		"-- note\n-- more\n  (select 1)": "select",
		"/* block */ select 1":           "select",
		"/* multi\nline */ ( /* again */ update t)": "update",
		"-- only a comment":                         "",
		"/* unterminated":                           "",
		"":                                          "",
		`for $x in doc("d") return $x`:              "for",
		"123":                                       "",
	}
	for q, want := range cases {
		if got := firstKeyword(q); got != want {
			t.Errorf("firstKeyword(%q) = %q, want %q", q, got, want)
		}
	}
}

// RunParallel's read-only gate must classify commented/parenthesized
// SQL as SQL (not XQuery) and still reject writes hidden behind
// comments.
func TestRunParallelGateSeesThroughCommentsParallel(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	res := s.RunParallel([]string{
		"(select name from employee_name where name = 'Bob')",
		"-- cold probe\nselect name from employee_name where name = 'Bob'",
		"/* gate test */ select name from employee_name where name = 'Bob'",
		"-- sneaky\ndelete from employee_name",
	}, 2)
	for i := 0; i < 3; i++ {
		if res[i].Err != nil {
			t.Errorf("query %d: %v", i, res[i].Err)
			continue
		}
		if got := fmt.Sprint(res[i].Result.Result.Rows); !strings.Contains(got, "Bob") {
			t.Errorf("query %d: rows = %s", i, got)
		}
	}
	if res[3].Err == nil || !strings.Contains(res[3].Err.Error(), "read-only") {
		t.Errorf("commented DELETE not rejected: %v", res[3].Err)
	}
}
