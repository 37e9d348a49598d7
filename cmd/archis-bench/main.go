// archis-bench regenerates the paper's evaluation tables and figures
// (Sections 7–8) on the synthetic temporal employee workload and
// prints paper-shaped rows: per-query times for each system
// configuration, storage ratios for the Umin sweep and for
// compression, scalability factors, and update costs.
//
// Usage:
//
//	archis-bench [-employees N] [-years Y] [-scale K] [-runs R] [-fig LIST]
//
// where LIST is a comma-separated subset of
// fig7,fig8,fig9,fig10,fig11,fig13,fig14,upd,trans (default all).
//
// Everything beyond the paper's figures — warm and mixed workloads,
// the served path, durability, per-layer timings — is measured by the
// benchmark under benchmark/ (`go run ./benchmark`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"archis/internal/bench"
	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/htable"
	"archis/internal/segment"
	"archis/internal/xmltree"
)

var (
	employees = flag.Int("employees", 800, "steady-state employee population (S=1)")
	years     = flag.Int("years", 17, "years of history")
	scale     = flag.Int("scale", 4, "figure 10 scale factor (paper: 7)")
	runs      = flag.Int("runs", 3, "cold runs per query; the average is reported")
	figs      = flag.String("fig", "all", "comma-separated figures to run")
)

func main() {
	flag.Parse()
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	h := &harness{}
	fmt.Printf("ArchIS evaluation harness — %d employees, %d years (S=1)\n\n", *employees, *years)

	if all || want["trans"] {
		h.translationCost()
	}
	if all || want["fig7"] {
		h.fig7()
	}
	if all || want["fig8"] {
		h.fig8()
	}
	if all || want["fig9"] {
		h.fig9()
	}
	if all || want["fig10"] {
		h.fig10()
	}
	if all || want["fig11"] {
		h.fig11()
	}
	if all || want["fig13"] {
		h.fig13()
	}
	if all || want["fig14"] {
		h.fig14()
	}
	if all || want["upd"] {
		h.updates()
	}
}

type harness struct {
	plain      *bench.Env
	clustered  *bench.Env
	compressed *bench.Env
	xdb        *bench.XMLEnv
}

func cfg1() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Employees = *employees
	cfg.Years = *years
	return cfg
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "archis-bench:", err)
		os.Exit(1)
	}
}

func (h *harness) getPlain() *bench.Env {
	if h.plain == nil {
		e, err := bench.Build(cfg1(), bench.Options{Layout: core.LayoutPlain})
		die(err)
		h.plain = e
	}
	return h.plain
}

func (h *harness) getClustered() *bench.Env {
	if h.clustered == nil {
		e, err := bench.Build(cfg1(), bench.Options{Layout: core.LayoutClustered})
		die(err)
		h.clustered = e
	}
	return h.clustered
}

func (h *harness) getCompressed() *bench.Env {
	if h.compressed == nil {
		e, err := bench.Build(cfg1(), bench.Options{Layout: core.LayoutCompressed, Compress: true})
		die(err)
		h.compressed = e
	}
	return h.compressed
}

func (h *harness) getXDB() *bench.XMLEnv {
	if h.xdb == nil {
		x, err := bench.BuildXMLBaseline(h.getPlain(), true)
		die(err)
		h.xdb = x
	}
	return h.xdb
}

// timeQuery returns the average cold latency of one query. One
// untimed warm-up run absorbs lazy-initialization noise; every timed
// run is still cold (caches dropped).
func timeQuery(cold func(), run func() error) time.Duration {
	cold()
	die(run())
	var total time.Duration
	for i := 0; i < *runs; i++ {
		cold()
		start := time.Now()
		die(run())
		total += time.Since(start)
	}
	return total / time.Duration(*runs)
}

func (h *harness) archisTimes(e *bench.Env) map[bench.QueryID]time.Duration {
	out := map[bench.QueryID]time.Duration{}
	for _, q := range bench.AllQueries {
		q := q
		out[q] = timeQuery(e.Cold, func() error { _, err := e.Run(q); return err })
	}
	return out
}

func (h *harness) xmlTimes(x *bench.XMLEnv) map[bench.QueryID]time.Duration {
	out := map[bench.QueryID]time.Duration{}
	for _, q := range bench.AllQueries {
		q := q
		out[q] = timeQuery(x.Cold, func() error { _, err := x.Run(q); return err })
	}
	return out
}

func ms(d time.Duration) string { return fmt.Sprintf("%8.2f", float64(d.Microseconds())/1000) }

func printQueryTable(headers []string, cols []map[bench.QueryID]time.Duration) {
	fmt.Printf("  %-6s", "query")
	for _, hd := range headers {
		fmt.Printf("  %10s", hd)
	}
	fmt.Println("   (ms)")
	for _, q := range bench.AllQueries {
		fmt.Printf("  Q%-5d", q)
		for _, c := range cols {
			fmt.Printf("  %10s", ms(c[q]))
		}
		fmt.Println()
	}
	fmt.Println()
}

func (h *harness) translationCost() {
	fmt.Println("== §7.1 query translation cost (paper: < 0.1 ms per query) ==")
	e := h.getClustered()
	q := `element title_history{
	  for $t in doc("employees.xml")/employees/employee[name="Bob"]/title
	  return $t }`
	n := 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		_, err := e.Sys.Translate(q)
		die(err)
	}
	per := time.Since(start) / time.Duration(n)
	fmt.Printf("  QUERY 1 translation: %.4f ms per query\n\n", float64(per.Microseconds())/1000)
}

func (h *harness) fig7() {
	fmt.Println("== Figure 7: storage size vs Umin (segment redundancy) ==")
	plainRows := 0
	{
		e := h.getPlain()
		if t, ok := e.Sys.DB.Table("employee_salary"); ok {
			plainRows = t.LiveRows()
		}
	}
	fmt.Printf("  %-6s  %-9s  %-10s  %-14s  %-12s\n", "Umin", "segments", "tuples", "ratio(meas.)", "bound(Eq.3)")
	for _, umin := range []float64{0.20, 0.26, 0.36, 0.40} {
		e, err := bench.Build(cfg1(), bench.Options{Layout: core.LayoutClustered, Umin: umin})
		die(err)
		st, _ := e.Sys.SegmentStore("employee_salary")
		segs, _ := st.SegmentCount()
		rows := st.Table().LiveRows()
		fmt.Printf("  %-6.2f  %-9d  %-10d  %-14.3f  %-12.3f\n",
			umin, segs, rows, float64(rows)/float64(plainRows), segment.StorageBound(umin))
	}
	fmt.Println()
}

func (h *harness) fig8() {
	fmt.Println("== Table 3 / Figure 8: ArchIS (clustered) vs native XML DB, cold runs ==")
	at := h.archisTimes(h.getClustered())
	xt := h.xmlTimes(h.getXDB())
	printQueryTable([]string{"ArchIS", "XML-DB"}, []map[bench.QueryID]time.Duration{at, xt})
	for _, q := range bench.AllQueries {
		fmt.Printf("  Q%d speedup over XML DB: %.1fx\n", q, float64(xt[q])/float64(at[q]))
	}
	fmt.Println()
}

func (h *harness) fig9() {
	fmt.Println("== Figure 9: with vs without segment clustering ==")
	ct := h.archisTimes(h.getClustered())
	pt := h.archisTimes(h.getPlain())
	printQueryTable([]string{"clustered", "plain"}, []map[bench.QueryID]time.Duration{ct, pt})

	// §7.1 snapshot-vs-current comparison.
	e := h.getClustered()
	cur := timeQuery(e.Cold, func() error {
		_, err := e.Sys.Exec(`select avg(salary) from employee`)
		return err
	})
	fmt.Printf("  snapshot on archive (Q2) vs current DB: %s ms vs %s ms (paper: ~27%% slower)\n\n",
		strings.TrimSpace(ms(ct[bench.Q2])), strings.TrimSpace(ms(cur)))
}

func (h *harness) fig10() {
	fmt.Printf("== Figure 10: scalability, S=1 vs S=%d ==\n", *scale)
	t1 := h.archisTimes(h.getClustered())
	cfgS := cfg1().Scaled(*scale)
	eS, err := bench.Build(cfgS, bench.Options{Layout: core.LayoutClustered})
	die(err)
	tS := h.archisTimes(eS)
	printQueryTable(
		[]string{"S=1", fmt.Sprintf("S=%d", *scale)},
		[]map[bench.QueryID]time.Duration{t1, tS})
	for _, q := range bench.AllQueries {
		fmt.Printf("  Q%d growth: %.1fx (data grew %dx)\n", q, float64(tS[q])/float64(t1[q]), *scale)
	}
	fmt.Println()
}

// hdocBytes measures the uncompressed H-document size — the paper's
// denominator for compression ratios.
func (h *harness) hdocBytes(e *bench.Env) int {
	total := 0
	for _, table := range []string{"employee", "dept"} {
		doc, err := e.Sys.PublishHDoc(table)
		die(err)
		total += len(xmltree.String(doc))
	}
	return total
}

func (h *harness) fig11() {
	fmt.Println("== Figure 11: storage ratios without BlockZIP (vs H-document size) ==")
	base := h.hdocBytes(h.getPlain())
	xdbPlain, err := bench.BuildXMLBaseline(h.getPlain(), false)
	die(err)
	fmt.Printf("  H-documents (uncompressed):    %8d KiB  ratio 1.00\n", base/1024)
	fmt.Printf("  XML DB, compressed (Tamino):   %8d KiB  ratio %.2f\n",
		h.getXDB().DB.StorageBytes()/1024, float64(h.getXDB().DB.StorageBytes())/float64(base))
	fmt.Printf("  XML DB, uncompressed:          %8d KiB  ratio %.2f\n",
		xdbPlain.DB.StorageBytes()/1024, float64(xdbPlain.DB.StorageBytes())/float64(base))
	fmt.Printf("  ArchIS H-tables, plain:        %8d KiB  ratio %.2f\n",
		h.getPlain().Sys.StorageBytes()/1024, float64(h.getPlain().Sys.StorageBytes())/float64(base))
	fmt.Printf("  ArchIS H-tables, clustered:    %8d KiB  ratio %.2f\n",
		h.getClustered().Sys.StorageBytes()/1024, float64(h.getClustered().Sys.StorageBytes())/float64(base))
	fmt.Println()
}

func (h *harness) fig13() {
	fmt.Println("== Figure 13: storage ratios with BlockZIP ==")
	base := h.hdocBytes(h.getPlain())
	fmt.Printf("  XML DB, compressed (Tamino):   %8d KiB  ratio %.2f\n",
		h.getXDB().DB.StorageBytes()/1024, float64(h.getXDB().DB.StorageBytes())/float64(base))
	fmt.Printf("  ArchIS clustered+BlockZIP:     %8d KiB  ratio %.2f\n",
		h.getCompressed().Sys.StorageBytes()/1024, float64(h.getCompressed().Sys.StorageBytes())/float64(base))
	fmt.Println()
}

func (h *harness) fig14() {
	fmt.Println("== Figure 14: query performance with compression ==")
	comp := h.archisTimes(h.getCompressed())
	uncomp := h.archisTimes(h.getClustered())
	xt := h.xmlTimes(h.getXDB())
	printQueryTable(
		[]string{"ArchIS+zip", "ArchIS", "XML-DB"},
		[]map[bench.QueryID]time.Duration{comp, uncomp, xt})
}

func (h *harness) updates() {
	fmt.Println("== §8.4 update performance ==")
	trig, err := bench.Build(cfg1(), bench.Options{Layout: core.LayoutClustered, Capture: htable.CaptureTrigger})
	die(err)
	logd, err := bench.Build(cfg1(), bench.Options{Layout: core.LayoutClustered, Capture: htable.CaptureLog})
	die(err)

	one := func(e *bench.Env) time.Duration {
		start := time.Now()
		die(e.UpdateOne())
		return time.Since(start)
	}
	batch := func(e *bench.Env) time.Duration {
		start := time.Now()
		die(e.DailyBatch(50))
		return time.Since(start)
	}
	fmt.Printf("  single update, trigger capture: %s ms\n", strings.TrimSpace(ms(one(trig))))
	fmt.Printf("  single update, log capture:     %s ms\n", strings.TrimSpace(ms(one(logd))))
	fmt.Printf("  daily batch (50), trigger:      %s ms\n", strings.TrimSpace(ms(batch(trig))))

	x := h.getXDB()
	start := time.Now()
	die(x.XMLUpdateOne())
	fmt.Printf("  single update, XML DB (rewrite+recompress doc): %s ms\n", strings.TrimSpace(ms(time.Since(start))))

	// Segment-archive event cost (the occasional expensive operation).
	st, ok := trig.Sys.SegmentStore("employee_salary")
	if ok {
		start = time.Now()
		die(st.ArchiveNow())
		fmt.Printf("  forced segment archive of employee_salary: %s ms (happens once per segment)\n",
			strings.TrimSpace(ms(time.Since(start))))
	}
	fmt.Println()
}
