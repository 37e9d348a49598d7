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
// variable stay translated.
func TestConstructorPathsAgree(t *testing.T) {
	for _, lay := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Layout: core.LayoutPlain}},
		{"clustered", Options{Layout: core.LayoutClustered}},
		{"compressed", Options{Layout: core.LayoutCompressed, Compress: true}},
	} {
		e := buildExplainEnv(t, lay.opts)
		ent := fmt.Sprintf(`for $e in doc("employees.xml")/employees/employee[id=%d] `, e.SingleID)
		for _, c := range []struct {
			q          string
			translated bool
		}{
			{ent + `return <emp>{$e/name}{$e/salary}</emp>`, false},
			{ent + `return <emp>{$e/salary}</emp>`, false},
			{ent + `return <emp>{$e/id}</emp>`, false},
			{ent + `return <emp id="{$e/id}">{$e/title}</emp>`, false},
			{ent + `return element emp {$e/deptno, $e/name}`, false},
			{ent + `return <emp><pay>{$e/salary}</pay></emp>`, false},
			{ent + `let $t := $e/title return <t>{$t}</t>`, false},
			{ent + `for $s in $e/salary return <pay>{$s}</pay>`, true},
			{ent + `for $s in $e/salary return <pay at="{tstart($s)}">{string($s)}</pay>`, true},
		} {
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
