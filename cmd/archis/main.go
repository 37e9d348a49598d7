// archis is an interactive shell for the ArchIS temporal database: it
// loads a demo or generated employee history and accepts XQuery
// (against the H-views) and SQL (against current tables and H-tables)
// on stdin.
//
// Usage:
//
//	archis [-layout plain|clustered|compressed] [-employees N] [-years Y] [-demo]
//	archis [-wal DIR] [-sync always|batch|none]   durable mode: log every change
//	archis [-sync MODE] recover DIR               recover a durable system, then shell
//	archis wal-stats DIR                          recover and print durability counters
//
// Reopening an existing durable directory (-wal or recover) keeps the
// commit policy recorded in its snapshot unless -sync is passed
// explicitly, which overrides it from this run on.
//
// Commands inside the shell:
//
//	xquery <query>     run a temporal XQuery (translated when possible)
//	sql <statement>    run SQL directly (durable mode: acked after fsync)
//	translate <query>  show the SQL/XML translation only
//	doc <table>        print the H-document of a table
//	clock [date]       show or set the archive clock
//	stats              physical counters and storage (and WAL counters)
//	metrics            JSON dump of every counter, gauge and histogram
//	checkpoint         snapshot a durable system and truncate its log
//	help, quit
//
// With -trace, every xquery also prints its execution trace tree; -slow
// DURATION logs queries at least that slow to stderr. SQL EXPLAIN
// [ANALYZE] SELECT ... works through the sql command.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"archis"
	"archis/internal/dataset"
)

var (
	layout    = flag.String("layout", "clustered", "attribute-table layout: plain, clustered or compressed")
	employees = flag.Int("employees", 0, "generate a synthetic history with this many employees")
	yearsN    = flag.Int("years", 10, "years of synthetic history")
	demo      = flag.Bool("demo", true, "load the paper's Tables 1-2 micro history")
	dbPath    = flag.String("db", "", "open an existing system file (and save back on 'save')")
	workers   = flag.Int("workers", 0, "intra-query scan workers (0 = GOMAXPROCS, 1 = serial)")
	walDir    = flag.String("wal", "", "run durably: write-ahead log and snapshots in this directory")
	syncMode  = flag.String("sync", "always", "WAL commit policy: always, batch or none")
	columnar  = flag.Bool("columnar", true, "columnar frozen blocks + vectorized execution on the compressed layout (false = legacy row-in-blob)")
	traceOn   = flag.Bool("trace", false, "print the execution trace tree after every xquery")
	slowQ     = flag.Duration("slow", 0, "log queries at least this slow to stderr (0 = off)")
	asOfLSN   = flag.Uint64("as-of-lsn", 0, "recover: stop replay at this LSN (read-only point-in-time system)")
)

func main() {
	flag.Parse()
	switch flag.Arg(0) {
	case "recover":
		dir := flag.Arg(1)
		if dir == "" {
			fmt.Fprintln(os.Stderr, "usage: archis recover DIR")
			os.Exit(2)
		}
		sys := recoverDir(dir)
		repl(sys)
		check(sys.Close())
		return
	case "wal-stats":
		dir := flag.Arg(1)
		if dir == "" {
			fmt.Fprintln(os.Stderr, "usage: archis wal-stats DIR")
			os.Exit(2)
		}
		sys := recoverDir(dir)
		printWALStats(sys)
		check(sys.Close())
		return
	}
	if *dbPath != "" {
		if _, err := os.Stat(*dbPath); err == nil {
			sys, err := archis.Open(*dbPath)
			check(err)
			fmt.Println("opened", *dbPath)
			repl(sys)
			return
		}
	}
	var lay archis.Layout
	switch *layout {
	case "plain":
		lay = archis.LayoutPlain
	case "clustered":
		lay = archis.LayoutClustered
	case "compressed":
		lay = archis.LayoutCompressed
	default:
		fmt.Fprintln(os.Stderr, "unknown layout", *layout)
		os.Exit(2)
	}
	sync := parseSyncMode(*syncMode)
	if *walDir != "" {
		if _, err := os.Stat(*walDir); err == nil {
			// An existing durable directory is recovered, not reloaded.
			sys := recoverDir(*walDir)
			repl(sys)
			check(sys.Close())
			return
		}
	}
	colMode := archis.ColumnarOn
	if !*columnar {
		colMode = archis.ColumnarOff
	}
	sys, err := archis.New(archis.Options{Layout: lay, Workers: *workers, Columnar: colMode,
		WALDir: *walDir, WALSync: sync,
		SlowQueryThreshold: *slowQ,
		SlowQueryLog:       func(rec string) { fmt.Fprintln(os.Stderr, rec) }})
	check(err)
	check(sys.Register(dataset.EmployeeSpec()))
	check(sys.Register(dataset.DeptSpec()))
	check(sys.AliasDoc("emp.xml", "employee"))

	switch {
	case *employees > 0:
		cfg := dataset.DefaultConfig()
		cfg.Employees = *employees
		cfg.Years = *yearsN
		fmt.Printf("generating %d employees over %d years...\n", cfg.Employees, cfg.Years)
		st, err := dataset.Generate(sys.Archive, cfg)
		check(err)
		sys.Publish()
		fmt.Printf("loaded: %d inserts, %d updates, %d deletes\n", st.Inserts, st.Updates, st.Deletes)
	case *demo:
		check(dataset.LoadMicro(sys.Archive))
		sys.Publish()
		fmt.Println("loaded the paper's Tables 1-2 micro history (employees Bob, Alice, Carol; depts d01-d03)")
	}
	if lay == archis.LayoutCompressed {
		check(sys.CompressFrozen())
	}
	if sys.Durable() {
		// The generated history was loaded through the fast path; make
		// it durable in one fsync before handing over the prompt.
		check(sys.SyncWAL())
		fmt.Printf("durable: logging to %s (sync=%s)\n", *walDir, *syncMode)
	}
	repl(sys)
	check(sys.Close())
}

func parseSyncMode(s string) archis.SyncMode {
	switch s {
	case "always":
		return archis.SyncAlways
	case "batch":
		return archis.SyncBatch
	case "none":
		return archis.SyncNone
	}
	fmt.Fprintln(os.Stderr, "unknown sync mode", s)
	os.Exit(2)
	return 0
}

// explicitSyncFlag returns the -sync mode only when the flag was
// passed on the command line, nil otherwise.
func explicitSyncFlag() *archis.SyncMode {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sync" {
			set = true
		}
	})
	if !set {
		return nil
	}
	m := parseSyncMode(*syncMode)
	return &m
}

// recoverDir rebuilds a durable system from its directory and reports
// what recovery did. An explicitly passed -sync flag overrides the
// commit policy recorded in the snapshot; otherwise the recorded
// policy sticks.
func recoverDir(dir string) *archis.System {
	start := time.Now()
	sys, err := archis.Recover(dir, archis.RecoverOptions{Sync: explicitSyncFlag(), MaxLSN: *asOfLSN})
	check(err)
	st := sys.Stats()
	fmt.Printf("recovered %s in %s: replayed %d records, log at lsn %d (%d segments)\n",
		dir, time.Since(start).Round(time.Microsecond), st.WALReplayedRecords,
		st.WALAppendedLSN, st.WALSegments)
	if reason := sys.ReadOnlyReason(); reason != "" {
		fmt.Printf("read-only: %s\n", reason)
	}
	return sys
}

func printWALStats(sys *archis.System) {
	st := sys.Stats()
	fmt.Printf("appends:          %d\n", st.WALAppends)
	fmt.Printf("fsyncs:           %d\n", st.WALFsyncs)
	fmt.Printf("grouped commits:  %d\n", st.WALGroupedCommits)
	fmt.Printf("replayed records: %d\n", st.WALReplayedRecords)
	fmt.Printf("segments:         %d\n", st.WALSegments)
	fmt.Printf("appended lsn:     %d\n", st.WALAppendedLSN)
	fmt.Printf("durable lsn:      %d\n", st.WALDurableLSN)
}

func repl(sys *archis.System) {
	ctx := context.Background()
	fmt.Println(`type "help" for commands`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("archis> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("  xquery <q>  | sql <stmt> | translate <q> | doc <table> | clock [date] | stats | metrics | checkpoint | save <path> | quit")
			fmt.Println("  vsql <date> <select>           run a SELECT over versions valid at <date>")
			fmt.Println("  vwrite <vstart> <vend> <stmt>  run a write asserting valid interval [vstart, vend]")
		case "save":
			if rest == "" && *dbPath != "" {
				rest = *dbPath
			}
			if rest == "" {
				fmt.Println("usage: save <path>")
				continue
			}
			if err := sys.SaveFile(rest); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("saved to", rest)
		case "xquery":
			if *traceOn {
				res, trace, err := sys.QueryTraced(rest)
				show(res, err)
				if err == nil {
					fmt.Print(trace.Tree())
				}
				continue
			}
			show(sys.Do(ctx, rest, archis.ReadOnly()))
		case "sql":
			// Durable systems acknowledge writes only after their log
			// records are fsynced.
			show(sys.Do(ctx, rest, archis.Durable()))
		case "vsql":
			// vsql <date> <select>: bitemporal read — the SELECT sees only
			// versions whose valid interval covers the date.
			dateStr, stmt, _ := strings.Cut(rest, " ")
			d, err := archis.ParseDate(dateStr)
			if err != nil || strings.TrimSpace(stmt) == "" {
				fmt.Println("usage: vsql <yyyy-mm-dd> <select>")
				continue
			}
			show(sys.Do(ctx, strings.TrimSpace(stmt), archis.AsOfValidTime(d)))
		case "vwrite":
			// vwrite <vstart> <vend> <stmt>: the mutation asserts its
			// value holds over [vstart, vend] in the modeled world.
			vsStr, rest2, _ := strings.Cut(rest, " ")
			veStr, stmt, _ := strings.Cut(strings.TrimSpace(rest2), " ")
			vs, err1 := archis.ParseDate(vsStr)
			ve, err2 := archis.ParseDate(veStr)
			if err1 != nil || err2 != nil || strings.TrimSpace(stmt) == "" {
				fmt.Println("usage: vwrite <vstart> <vend> <stmt>")
				continue
			}
			show(sys.Do(ctx, strings.TrimSpace(stmt), archis.Durable(),
				archis.WithValidTime(archis.Interval{Start: vs, End: ve})))
		case "translate":
			sql, err := sys.Translate(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(sql)
		case "doc":
			doc, err := sys.PublishHDoc(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(archis.PrettyXML(doc))
		case "clock":
			if rest == "" {
				fmt.Println(sys.Clock())
				continue
			}
			d, err := archis.ParseDate(rest)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			sys.SetClock(d)
			fmt.Println("clock set to", d)
		case "stats":
			st := sys.DB.Stats()
			fmt.Printf("block reads: %d  cache hits: %d  pages skipped: %d\n",
				st.BlockReads, st.CacheHits, st.PagesSkipped)
			fmt.Printf("morsels: %d  rows borrowed: %d  rows copied: %d\n",
				st.Morsels, st.RowsBorrowed, st.RowsCopied)
			fmt.Printf("history storage: %d KiB\n", sys.StorageBytes()/1024)
			if sys.Durable() {
				printWALStats(sys)
			}
		case "metrics":
			os.Stdout.Write(sys.MetricsJSON())
			fmt.Println()
		case "checkpoint":
			if err := sys.Checkpoint(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("checkpoint written; log truncated")
		default:
			fmt.Println("unknown command; type help")
		}
	}
}

// show prints one statement's outcome: a SQL result's rows, or an
// XQuery's path, translation and items.
func show(res *archis.QueryResult, err error) {
	switch {
	case err != nil:
		fmt.Println("error:", err)
	case res.Result != nil:
		if len(res.Result.Columns) > 0 {
			fmt.Println(strings.Join(res.Result.Columns, " | "))
		}
		for _, row := range res.Result.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.Text()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		if res.Result.RowsAffected > 0 {
			fmt.Printf("%d rows affected\n", res.Result.RowsAffected)
		}
	default:
		fmt.Printf("[path: %s]\n", res.Path)
		if res.SQL != "" {
			fmt.Println("sql:", res.SQL)
		}
		fmt.Println(res.Items.Serialize())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "archis:", err)
		os.Exit(1)
	}
}
