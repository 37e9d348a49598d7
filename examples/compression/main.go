// Compression example: generates a multi-year employee history,
// watches usefulness-based clustering freeze segments as updates
// accumulate, compresses the frozen segments with BlockZIP, and shows
// that snapshot queries still run — decompressing only the blocks they
// touch — while storage shrinks.
package main

import (
	"context"
	"fmt"
	"log"

	"archis"
	"archis/internal/dataset"
)

func main() {
	ctx := context.Background()
	sys, err := archis.New(archis.Options{
		Layout:         archis.LayoutCompressed,
		Umin:           0.4,
		MinSegmentRows: 512,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(dataset.EmployeeSpec()); err != nil {
		log.Fatal(err)
	}
	if err := sys.Register(dataset.DeptSpec()); err != nil {
		log.Fatal(err)
	}

	cfg := dataset.DefaultConfig()
	cfg.Employees = 300
	cfg.Years = 10
	fmt.Printf("generating %d employees over %d years...\n", cfg.Employees, cfg.Years)
	st, err := dataset.Generate(sys.Archive, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Publish()
	fmt.Printf("history: %d inserts, %d updates, %d deletes\n\n", st.Inserts, st.Updates, st.Deletes)

	seg, _ := sys.SegmentStore("employee_salary")
	segs, _ := seg.Segments()
	fmt.Printf("employee_salary: %d frozen segments + 1 live (usefulness %.2f)\n",
		len(segs), seg.Usefulness())
	for _, sg := range segs {
		fmt.Printf("  segment %d covers [%s, %s]\n", sg.SegNo, sg.Start, sg.End)
	}

	before := sys.StorageBytes()
	if err := sys.CompressFrozen(); err != nil {
		log.Fatal(err)
	}
	after := sys.StorageBytes()
	fmt.Printf("\nstorage: %d KiB -> %d KiB after BlockZIP (ratio %.2f)\n",
		before/1024, after/1024, float64(after)/float64(before))

	cs, _ := sys.CompressedStore("employee_salary")
	blocks, _ := cs.BlockCount()
	fmt.Printf("employee_salary blocks: %d\n\n", blocks)

	// A snapshot query over compressed history.
	mid := cfg.Start
	if mid == 0 {
		mid = archis.MustDate("1985-01-01")
	}
	day := mid.AddDays(5 * 365)
	q := fmt.Sprintf(`for $s in doc("employees.xml")/employees/employee/salary
	  [tstart(.) <= xs:date(%q) and tend(.) >= xs:date(%q)]
	return $s`, day, day)
	cs.Decompressions = 0
	res, err := sys.Do(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot at %s: %d salaries, %d blocks decompressed\n",
		day, len(res.Items), cs.Decompressions)
	fmt.Printf("translated SQL/XML: %s\n", res.SQL)

	// A single-object history query: block pruning via the sid ranges.
	cs.Decompressions = 0
	res, err = sys.Do(ctx, `for $s in doc("employees.xml")/employees/employee[id=100007]/salary return $s`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhistory of employee 100007: %d versions, %d blocks decompressed\n",
		len(res.Items), cs.Decompressions)
}
