// Quickstart: archive a table, change it over time, and ask temporal
// questions — both through the XQuery→SQL/XML translator and directly
// on the XML view of the history.
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

	// Register the table to archive. From now on every change to it is
	// captured into H-tables with transaction-time intervals.
	err = sys.Register(archis.TableSpec{
		Name: "employee",
		Columns: []archis.Column{
			archis.IntCol("id"),
			archis.StringCol("name"),
			archis.IntCol("salary"),
			archis.StringCol("title"),
		},
		Key: []string{"id"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Drive the current database through some history.
	steps := []struct {
		day string
		sql string
	}{
		{"1995-01-01", `insert into employee values (1001, 'Bob', 60000, 'Engineer')`},
		{"1995-06-01", `update employee set salary = 70000 where id = 1001`},
		{"1995-10-01", `update employee set title = 'Sr Engineer' where id = 1001`},
		{"1996-02-01", `update employee set title = 'TechLeader' where id = 1001`},
	}
	for _, s := range steps {
		sys.SetClock(archis.MustDate(s.day))
		if _, err := sys.Do(ctx, s.sql); err != nil {
			log.Fatal(err)
		}
	}

	// 1. Temporal projection: Bob's full title history, already
	// coalesced thanks to the temporally grouped representation.
	q1 := `element title_history {
	  for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
	  return $t }`
	res, err := sys.Do(ctx, q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("title history (via %s):\n  %s\n\n", res.Path, res.Items.Serialize())
	fmt.Printf("translated SQL/XML:\n  %s\n\n", res.SQL)

	// 2. Snapshot: what was Bob's salary on 1995-03-15?
	q2 := `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary
	        [tstart(.) <= xs:date("1995-03-15") and tend(.) >= xs:date("1995-03-15")]
	       return string($s)`
	res, err = sys.Do(ctx, q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("salary on 1995-03-15: %s\n\n", res.Items.Serialize())

	// 3. The raw XML view (H-document) of the history.
	doc, err := sys.PublishHDoc("employee")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("the H-document:")
	fmt.Println(archis.PrettyXML(doc))
}
