package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"archis/internal/core"
)

// TestConstructorPathsAgree generates return-clause constructors over
// one employee and requires System.Query — translated SQL when the
// translator accepts the shape, the XML path otherwise — to return
// what QueryXML returns, on every layout. A constructor around
// $e/salary holds every salary version in one element; the flat join
// a translation builds yields one element per joined version, so such
// shapes must fall back. Constructors around a for-bound version
// variable stay translated. A snapshot query returning whole <salary>
// elements runs at one date inside every segment: its elements carry
// tend, which a frozen copy alone reports stale.
func TestConstructorPathsAgree(t *testing.T) {
	var dates []string // one per segment, from the first clustered layout
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"clustered", Options{Layout: core.LayoutClustered}},
		{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
		{"plain", Options{Layout: core.LayoutPlain}},
	} {
		e := buildExplainEnv(t, lay.opts)
		if st, ok := e.Sys.SegmentStore("employee_salary"); ok && dates == nil {
			segs, err := st.Segments()
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 2 {
				t.Fatalf("%s: %d frozen segments, want several", lay.name, len(segs))
			}
			for _, sg := range segs {
				dates = append(dates, sg.Start.AddDays(int(sg.End-sg.Start)/2).String())
			}
			dates = append(dates, segs[len(segs)-1].End.AddDays(1).String())
		}
		ent := fmt.Sprintf(`for $e in doc("employees.xml")/employees/employee[id=%d] `, e.SingleID)
		type constructorCase struct {
			q          string
			translated bool
		}
		var snapshots []constructorCase
		for _, d := range dates {
			snapshots = append(snapshots, constructorCase{fmt.Sprintf(
				`for $s in doc("employees.xml")/employees/employee/salary[tstart(.) <= xs:date("%s") and tend(.) >= xs:date("%s")] return $s`, d, d), true})
		}
		for _, c := range append([]constructorCase{
			{ent + `return <emp>{$e/name}{$e/salary}</emp>`, false},
			{ent + `return <emp>{$e/salary}</emp>`, false},
			{ent + `return <emp>{$e/id}</emp>`, false},
			{ent + `return <emp id="{$e/id}">{$e/title}</emp>`, false},
			{ent + `return element emp {$e/deptno, $e/name}`, false},
			{ent + `return <emp><pay>{$e/salary}</pay></emp>`, false},
			{ent + `let $t := $e/title return <t>{$t}</t>`, false},
			{ent + `for $s in $e/salary return <pay>{$s}</pay>`, true},
			{ent + `for $s in $e/salary return <pay at="{tstart($s)}">{string($s)}</pay>`, true},
		}, snapshots...) {
			res, err := e.Sys.Query(c.q)
			if err != nil {
				t.Fatalf("%s: %s: %v", lay.name, c.q, err)
			}
			if got := res.Path == core.PathSQL; got != c.translated {
				t.Errorf("%s: %s took %s, translated=%v expected", lay.name, c.q, res.Path, c.translated)
			}
			xml, err := e.Sys.QueryXML(c.q)
			if err != nil {
				t.Fatalf("%s: %s: %v", lay.name, c.q, err)
			}
			got, want := make([]string, len(res.Items)), make([]string, len(xml))
			for i, it := range res.Items {
				got[i] = it.String()
			}
			for i, it := range xml {
				want[i] = it.String()
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s: %s (path %s):\n  query: %v\n  xml:   %v\n  sql:   %s", lay.name, c.q, res.Path, got, want, res.SQL)
			}
		}
	}
}
