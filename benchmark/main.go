// Command benchmark is the repository's one benchmark: four workloads
// over one seeded history, fifteen end-to-end numbers from an untraced
// run and the per-layer numbers from a separate traced run. README.md
// describes the workloads, the metrics and how to read the output.
//
//	go run ./benchmark -seed 1                       all four workloads
//	go run ./benchmark -workload warm-clustered -trace 1
//	go run ./benchmark -repeat 3 -out a.json         medians and quartiles
//	go run ./benchmark compare a.json b.json         apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

const schema = "archis-benchmark/1"

// spec is BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// host is where a result set was measured. Reads are served from the
// operating system's page cache and fsync is the sandbox's, so the
// latencies are this host's and not a device's.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	FSType     string `json:"fs_type"` // statfs f_type of the work directory
}

// summaryRow is the spread of one metric over the repeats of a set.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
}

// resultSet is the versioned JSON a run writes with -out.
type resultSet struct {
	Schema  string       `json:"schema"`
	Host    host         `json:"host"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*result    `json:"runs"`
	Summary []summaryRow `json:"summary,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain())
}

// runMain runs the selected workloads and returns the exit status: 1
// when a run failed, an answer was wrong or an acked write was lost.
func runMain() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file")
		repeat  = flag.Int("repeat", 1, "run the set this many times and report median and quartiles")
		out     = flag.String("out", "", "write the result set to this JSON file (the span file goes beside it)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-out FILE] | benchmark compare A.json B.json")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	// Everything is written under .bench_build in the current directory.
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(work)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { // an interrupted run leaves nothing behind
		<-sig
		os.RemoveAll(work)
		os.Exit(1)
	}()
	set := resultSet{Schema: schema, Seed: *seed, Seconds: *seconds, Host: host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, FSType: fsType(work),
	}}
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			tracePath := filepath.Join(filepath.Dir(work), fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
			if *out != "" {
				tracePath = strings.TrimSuffix(*out, ".json") + "." + w.name + ".trace.json"
			}
			dir := filepath.Join(work, w.name)
			res, err := runWorkload(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: fullScale, workDir: dir, tracePath: tracePath})
			os.RemoveAll(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			set.Runs = append(set.Runs, res)
			printResult(res)
			ok = ok && res.Correct
		}
	}
	if *repeat > 1 {
		set.Summary = summarize(set.Runs)
		for _, r := range set.Summary {
			fmt.Printf("%s %s median %.6g q1 %.6g q3 %.6g %s n=%d\n", r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Unit, r.N)
		}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	fmt.Println(driverLine(set.Runs[len(set.Runs)-1]))
	if !ok {
		return 1
	}
	return 0
}

// printResult prints every metric of a run as "workload metric value unit".
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if m.Value == nil {
			fmt.Printf("%s %s null %s\n", r.Workload, n, m.Unit)
		} else {
			fmt.Printf("%s %s %.6g %s\n", r.Workload, n, *m.Value, m.Unit)
		}
	}
	fmt.Printf("%s fail_frac %.6g ratio\n", r.Workload, ratio(float64(r.Failed), float64(r.Attempted)))
	if r.FirstError != "" {
		fmt.Printf("%s first_error %s\n", r.Workload, r.FirstError)
	}
}

// driverLine is the one JSON object the driver reads from the last
// line of standard output. Every value is a number there: a metric the
// host cannot measure reads 0.
func driverLine(r *result) string {
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]dm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]dm{}}
	for n, m := range r.Metrics {
		v := 0.0
		if m.Value != nil {
			v = *m.Value
		}
		line.Metrics[n] = dm{v, m.Unit}
	}
	data, _ := json.Marshal(line)
	return string(data)
}

// summarize reduces repeated runs to median and quartiles per
// (workload, metric).
func summarize(runs []*result) []summaryRow {
	type key struct{ w, m string }
	values := map[key][]float64{}
	units := map[key]string{}
	for _, r := range runs {
		for n, m := range r.Metrics {
			if m.Value != nil {
				k := key{r.Workload, n}
				values[k] = append(values[k], *m.Value)
				units[k] = m.Unit
			}
		}
	}
	var rows []summaryRow
	for k, xs := range values {
		rows = append(rows, summaryRow{k.w, k.m, units[k], len(xs), median(xs), quantile(xs, 0.25), quantile(xs, 0.75)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// compareMain applies each end-to-end metric's bound from
// BENCHMARK.json to two result sets and prints one row per workload
// and metric: improved, unchanged, worse, or unresolved when the
// run-to-run quartile spread of either side is wider than the bound.
// It returns 1 when any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json   (run where BENCHMARK.json is)")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err == nil && sets[i].Schema != schema {
			err = fmt.Errorf("schema %q, want %q", sets[i].Schema, schema)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", path, err)
			return 2
		}
	}
	worse := false
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := valuesOf(sets[0].Runs, w.Name, m.Name), valuesOf(sets[1].Runs, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict, change, spread := judge(a, b, m)
			worse = worse || verdict == "worse"
			fmt.Printf("%-16s %-28s %12.6g -> %-12.6g %s %+7.2f%%  spread %5.2f%%  bound %g%%  %s\n",
				w.Name, m.Name, median(a), median(b), m.Unit, 100*change, 100*spread, 100*m.Bound, verdict)
		}
		fa, fb := failFrac(sets[0].Runs, w.Name), failFrac(sets[1].Runs, w.Name)
		verdict := "unchanged"
		if fb > fa {
			verdict, worse = "worse", true
		} else if fb < fa {
			verdict = "improved"
		}
		fmt.Printf("%-16s %-28s %12.6g -> %-12.6g ratio (may not rise)  %s\n", w.Name, "fail_frac", fa, fb, verdict)
	}
	if worse {
		return 1
	}
	return 0
}

func valuesOf(runs []*result, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace && m.Value != nil {
			out = append(out, *m.Value)
		}
	}
	return out
}

func failFrac(runs []*result, workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// judge compares side b with side a: change is the share of a's median
// by which b is worse (negative when better), spread the wider of the
// two sides' quartile distances as a share of their medians.
func judge(a, b []float64, m specMetric) (verdict string, change, spread float64) {
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma)
	if m.Better == "higher" {
		change = -change
	}
	for _, xs := range [][]float64{a, b} {
		if len(xs) > 1 {
			spread = max(spread, ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs)))
		}
	}
	switch {
	case spread > m.Bound:
		verdict = "unresolved"
	case change > m.Bound:
		verdict = "worse"
	case change < -m.Bound:
		verdict = "improved"
	default:
		verdict = "unchanged"
	}
	return verdict, change, spread
}
