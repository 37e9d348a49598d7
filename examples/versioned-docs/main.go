// Versioned-documents example — the extension sketched in the paper's
// Section 9: the temporally grouped model also archives multi-version
// structured documents (standards, catalogs), supporting evolution
// queries such as "when was this section first introduced?" and "what
// did the document say on a given date?".
//
// A document is modeled as a table of sections keyed by section id,
// with the text and editor as attributes; every revision is an UPDATE
// and ArchIS keeps the full revision history queryable.
package main

import (
	"context"
	"fmt"
	"log"

	"archis"
)

func main() {
	ctx := context.Background()
	sys, err := archis.New(archis.Options{Layout: archis.LayoutClustered})
	if err != nil {
		log.Fatal(err)
	}
	err = sys.Register(archis.TableSpec{
		Name: "section",
		Columns: []archis.Column{
			archis.IntCol("id"),
			archis.StringCol("heading"),
			archis.StringCol("body"),
			archis.StringCol("editor"),
		},
		Key: []string{"id"},
	})
	if err != nil {
		log.Fatal(err)
	}

	revisions := []struct {
		day string
		sql string
	}{
		{"2000-06-01", `insert into section values (1, 'Introduction', 'XLink v0.9 draft text', 'deRose')`},
		{"2000-06-01", `insert into section values (2, 'Link Types', 'simple links only', 'deRose')`},
		{"2000-12-15", `update section set body = 'simple and extended links', editor = 'maler' where id = 2`},
		{"2001-03-02", `insert into section values (3, 'Conformance', 'initial conformance rules', 'orchard')`},
		{"2001-06-27", `update section set body = 'XLink 1.0 recommendation text' where id = 1`},
		{"2005-01-10", `update section set body = 'extended links with arcs', editor = 'walsh' where id = 2`},
		{"2006-05-20", `delete from section where id = 3`},
	}
	for _, r := range revisions {
		sys.SetClock(archis.MustDate(r.day))
		if _, err := sys.Do(ctx, r.sql); err != nil {
			log.Fatal(err)
		}
	}
	sys.SetClock(archis.MustDate("2006-07-01"))

	// Evolution query 1: when was each section first introduced?
	res, err := sys.Do(ctx, `
for $s in doc("sections.xml")/sections/section
return <introduced heading="{string($s/heading[1])}" on="{tstart($s)}"/>`, archis.ViaXML())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("when was each section introduced?")
	for _, it := range res.Items {
		fmt.Println("  " + it.String())
	}

	// Evolution query 2: the document as of 2001-01-01 (a snapshot).
	res, err = sys.Do(ctx, `
for $b in doc("sections.xml")/sections/section/body
    [tstart(.) <= xs:date("2001-01-01") and tend(.) >= xs:date("2001-01-01")]
return $b`, archis.ViaXML())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbody text as of 2001-01-01:")
	for _, it := range res.Items {
		fmt.Println("  " + it.String())
	}

	// Evolution query 3: how many revisions did section 2 go through,
	// and who edited it? (translated to SQL/XML)
	q := `for $b in doc("sections.xml")/sections/section[id=2]/body return $b`
	out, err := sys.Do(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsection 2 went through %d revisions [path: %s]\n", len(out.Items), out.Path)

	editors, err := sys.Do(ctx, `
for $e in doc("sections.xml")/sections/section[id=2]/editor
return concat(string($e), " [", tstart($e), " .. ", tend($e), "]")`, archis.ViaXML())
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range editors.Items {
		fmt.Println("  edited by " + it.String())
	}

	// Evolution query 4: sections no longer part of the document.
	gone, err := sys.Do(ctx, `
for $s in doc("sections.xml")/sections/section
where tend($s) != current-date()
return string($s/heading[1])`, archis.ViaXML())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nretired sections: %s\n", gone.Items.Serialize())
}
