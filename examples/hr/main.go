// HR example: loads the exact history of the paper's Tables 1 and 2
// and runs all eight example queries of Sections 4 and 4.1 — temporal
// projection, snapshot, slicing, join, aggregation, restructuring,
// since, and period containment. Each query reports which execution
// path answered it: the XQuery→SQL/XML translator or direct
// evaluation on the XML view.
package main

import (
	"context"
	"fmt"
	"log"

	"archis"
	"archis/internal/dataset"
)

var queries = []struct {
	title string
	query string
}{
	{"QUERY 1 — Temporal projection: Bob's title history", `
element title_history{
  for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
  return $t }`},

	{"QUERY 2 — Temporal snapshot: managers on 1994-05-06", `
for $m in doc("depts.xml")/depts/dept/mgrno
    [tstart(.)<=xs:date("1994-05-06") and tend(.) >= xs:date("1994-05-06")]
return $m`},

	{"QUERY 3 — Temporal slicing: employees between 1994-05-06 and 1995-05-06", `
for $e in doc("employees.xml")/employees
    /employee[ toverlaps(., telement( xs:date("1994-05-06"), xs:date("1995-05-06") ) ) ]
return $e/name`},

	{"QUERY 4 — Temporal join: the history of employees each manager manages", `
element manages{
  for $d in doc("depts.xml")/depts/dept
  for $m in $d/mgrno
  return
    element manage {$d/deptno, $m,
      element employees {
        for $e in doc("employees.xml")/employees/employee
        where $e/deptno = $d/deptno and
              not(empty(overlapinterval($e, $m) ) )
        return($e/name, overlapinterval($e,$m)) }}}`},

	{"QUERY 5 — Temporal aggregate: the history of the average salary", `
let $s := document("emp.xml")/employees/employee/salary
return tavg($s)`},

	{"QUERY 6 — Restructuring: Bob's longest stretch without changing title or department", `
for $e in doc("emp.xml")/employees/employee[name="Bob"]
let $d := $e/deptno
let $t := $e/title
let $overlaps := restructure($d, $t)
return max($overlaps)`},

	{"QUERY 7 — A since B: current Sr Engineers in d01 since joining the dept", `
for $e in doc("employees.xml")/employees/employee
let $m := $e/title[.="Sr Engineer" and tend(.)=current-date()]
let $d := $e/deptno[.="d01" and tcontains($m, .)]
where not(empty($d)) and not(empty($m))
return <employee>{$e/id, $e/name}</employee>`},

	{"QUERY 8 — Period containment: employees with exactly Bob's employment history", `
for $e1 in doc("employees.xml")/employees/employee[name = "Bob"]
for $e2 in doc("employees.xml")/employees/employee[name != "Bob"]
where every $d1 in $e1/deptno satisfies
        some $d2 in $e2/deptno satisfies
          (string($d1)=string($d2) and tequals($d2,$d1))
  and every $d2 in $e2/deptno satisfies
        some $d1 in $e1/deptno satisfies
          (string($d2)=string( $d1) and tequals($d1,$d2))
return <employee>{$e2/name}</employee>`},
}

func main() {
	ctx := context.Background()
	sys, err := archis.New(archis.Options{Layout: archis.LayoutClustered})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(dataset.EmployeeSpec()); err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(dataset.DeptSpec()); err != nil {
		log.Fatal(err)
	}
	if err := sys.AliasDoc("emp.xml", "employee"); err != nil {
		log.Fatal(err)
	}
	if err := dataset.LoadMicro(sys.Archive); err != nil {
		log.Fatal(err)
	}
	sys.Publish()

	fmt.Println("ArchIS HR example — the paper's Tables 1-2 history, queries 1-8")
	fmt.Println()
	for _, q := range queries {
		res, err := sys.Do(ctx, q.query)
		if err != nil {
			log.Fatalf("%s: %v", q.title, err)
		}
		fmt.Printf("%s  [path: %s]\n", q.title, res.Path)
		if res.SQL != "" {
			fmt.Printf("  SQL/XML: %s\n", res.SQL)
		}
		out := res.Items.Serialize()
		if out == "" {
			out = "(empty)"
		}
		fmt.Printf("  result: %s\n\n", out)
	}
}
