package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported number. A nil value means the host cannot
// measure it (sqlengine.workers_speedup on one CPU).
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	AckedLost  int               `json:"acked_lost"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: &v, Unit: unit}
}

// classLatency is the geometric mean, in µs, of the medians of the
// class's queries.
func classLatency(ps *phaseStats, c opClass) float64 {
	var medians []float64
	for k := opKind(0); k < numKinds; k++ {
		if k.class() == c && len(ps.lat[k]) > 0 {
			medians = append(medians, median(micros(ps.lat[k])))
		}
	}
	return geomean(medians)
}

// rssMB is the process's resident set (VmRSS of /proc/self/status) in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rssWatch samples the process's resident set every 50 ms and keeps the
// peak. VmHWM would be exact but is the peak of the whole process, and
// one process may run several workloads (-repeat, no -workload).
type rssWatch struct {
	stop, done chan struct{}
	once       sync.Once
	peakMB     float64
}

func watchRSS() *rssWatch {
	debug.FreeOSMemory() // what an earlier run left is not this run's
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			w.peakMB = max(w.peakMB, rssMB())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the sampling (once) and returns the peak in MB.
func (w *rssWatch) end() float64 {
	w.once.Do(func() { close(w.stop) })
	<-w.done
	return w.peakMB
}

// runWorkload sets the workload up (three times when untraced: setup_s
// is the median), runs the measured phase and the lifecycle phase, and
// assembles the metrics: the end-to-end set from an untraced run, the
// per-layer set from a traced one.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	res := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Metrics: map[string]metric{}}
	goroutines := runtime.NumGoroutine()
	reps := 1
	var rss *rssWatch
	if !cfg.trace {
		reps = min(setupReps, cfg.scale.reps)
		rss = watchRSS()
		defer rss.end()
	}
	var e *env
	var setupS []float64
	for i := 0; i < reps; i++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		m := newModel(cfg.seed, cfg.scale, w.validTime)
		var err error
		if e, err = setup(w, cfg, m, m.history(), dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < reps-1 {
			e.teardown(true)
			os.RemoveAll(dir)
			// A discarded set-up is not part of the system measured next:
			// give its memory back so it does not shape the collector's
			// pacing or the peak RSS.
			debug.FreeOSMemory()
		}
	}
	e.verifyAnswers()

	var plain, traced *phaseStats
	if !cfg.trace {
		plain = e.phase(cfg.seconds, 0)
	} else {
		// A quarter-length untraced replay, then the same length traced:
		// the difference between the two is the recorder's overhead.
		plain = e.phase(cfg.seconds/4, 0)
		e.traceOn()
		traced = e.phase(cfg.seconds/4, 0)
		e.traceOff()
	}
	rejected := 0.0
	for _, n := range []*httpNode{e.nodeP, e.nodeF} {
		if n != nil {
			rejected += float64(n.rejected())
		}
	}
	end := e.counters()
	lc, err := e.lifecycle()
	if err != nil {
		e.teardown(false)
		return nil, fmt.Errorf("lifecycle: %w", err)
	}
	defer lc.recovered.close()

	if !cfg.trace {
		res.set("setup_s", median(setupS), "s")
		res.set("point_p50_us", classLatency(plain, classPoint), "us")
		res.set("scan_p50_ms", classLatency(plain, classScan)/1e3, "ms")
		res.set("join_p50_ms", classLatency(plain, classJoin)/1e3, "ms")
		res.set("xquery_p50_ms", classLatency(plain, classXQuery)/1e3, "ms")
		res.set("query_ops_per_s", float64(plain.reads)/plain.wall.Seconds(), "1/s")
		res.set("write_p50_us", median(micros(plain.writeLat)), "us")
		res.set("writes_per_s", float64(len(plain.writeLat))/plain.wall.Seconds(), "1/s")
		res.set("ckpt_stall_ms", median(lc.burst.stalls()), "ms")
		res.set("recover_s", median(lc.recoverS), "s")
		res.set("catchup_s", median(lc.catchupS), "s")
		res.set("stored_bytes_per_user_byte", e.loadRatio, "ratio")
		res.set("wal_bytes_per_write", ratio(float64(plain.walBytes), float64(len(plain.writeLat))), "B")
		res.set("rss_peak_mb", rss.end(), "MB")
	} else {
		probes, err := lc.recovered.probes(cfg.seed, e.m, cfg.workDir, cfg.scale.probeDiv)
		if err != nil {
			e.fail(fmt.Errorf("probes: %w", err))
		}
		for name, v := range probes {
			res.set(name, v, unitOf(name))
		}
		if runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1 {
			res.Metrics["sqlengine.workers_speedup"] = metric{Unit: "ratio"}
		}
		e.layerMetrics(res, plain, traced, lc, end, rejected)
		if err := writeTrace(cfg.tracePath, w.name, cfg.seed, e.spans); err != nil {
			e.fail(err)
		}
		lost, err := faultPass(cfg.seed, filepath.Join(cfg.workDir, "fault"), cfg.scale.faultWrites)
		if err != nil {
			e.fail(err)
		}
		for ; lost > 0; lost-- {
			e.lost(fmt.Errorf("fault pass: an acked write did not survive the injected crash"))
		}
		res.set("core.acked_lost", float64(e.acksLost), "count")
		// Everything the run started has been told to stop; connection
		// goroutines of the stopped listeners exit a moment later.
		for t0 := time.Now(); runtime.NumGoroutine() > goroutines && time.Since(t0) < time.Second; {
			time.Sleep(5 * time.Millisecond)
		}
		res.set("process.goroutines_end", float64(runtime.NumGoroutine()-goroutines), "count")
		res.set("process.rss_end_mb", rssMB(), "MB")
	}

	res.Attempted = plain.attempted + lc.burst.attempted + cfg.scale.tailWrites
	if traced != nil {
		res.Attempted += traced.attempted
	}
	res.Failed, res.AckedLost = e.failed, e.acksLost
	if e.firstErr != nil {
		res.FirstError = e.firstErr.Error()
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// unitOf derives a per-layer metric's unit from its name; the first
// matching suffix wins, so the longer ones come first.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_mb_s", "MB/s"}, {"_per_s", "1/s"}, {"_s_per_kop", "s"}, {"_kb_per_op", "kB"}, {"_ns_per_interval", "ns"},
		{"_us", "us"}, {"_ms", "ms"}, {"_mb", "MB"}, {"_frac", "ratio"}, {"_bytes", "B"}, {"bytes_read_per_op", "B"},
		{"_speedup", "ratio"}, {"usefulness_end", "ratio"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// layerMetrics adds the per-layer metrics that come from the phases
// rather than from probes: counter deltas over the traced replay's
// fixed prefix, per-query latencies, maintenance and lifecycle times.
func (e *env) layerMetrics(res *result, plain, traced *phaseStats, lc *lifecycle, end counters, rejected float64) {
	set := func(name string, v float64) { res.set(name, v, unitOf(name)) }

	// Exact counts over the fixed prefix of the traced replay.
	whole := end.sub(traced.startCount)
	d, ops, writes := whole, float64(traced.reads), float64(len(traced.writeLat))
	if traced.prefix != nil {
		d, ops = *traced.prefix, float64(traced.prefixOps)
	}
	set("sqlengine.rows_examined_per_op", ratio(d[rowsExamined], ops))
	set("sqlengine.join_rows_copied_per_op", ratio(d[joinRowsCopied], ops))
	set("blockzip.inflates_per_op", ratio(d[inflates], ops))
	set("blockzip.block_cache_hit_frac", ratio(d[blockHits], d[blockHits]+d[blockMisses]))
	set("relstore.page_reads_per_op", ratio(d[pageReads], ops))
	set("relstore.bytes_read_per_op", ratio(d[bytesRead], ops))
	set("relstore.pages_skipped_per_op", ratio(d[pagesSkipped], ops))
	set("relstore.cache_hit_frac", ratio(d[cacheHits], d[cacheHits]+d[pageReads]))
	set("relstore.rows_copied_frac", ratio(d[rowsCopied], d[rowsCopied]+d[rowsBorrowed]))

	// Whole traced replay: log, allocation, GC and CPU per op.
	allOps := float64(traced.reads) + writes
	set("wal.fsyncs_per_write", ratio(whole[walFsyncs], writes))
	set("wal.grouped_commit_frac", ratio(whole[walGrouped], writes))
	set("relstore.versions_reclaimed", whole[reclaimed])
	set("process.alloc_kb_per_op", ratio(whole[allocBytes]/1024, allOps))
	set("process.gc_pause_ms", whole[gcPauseNS]/1e6)
	set("process.cpu_s_per_kop", ratio(whole[cpuNS]/1e9, allOps/1000))
	xq := len(traced.lat[x1]) + len(traced.lat[x3]) + len(traced.lat[xf])
	set("translator.fallback_frac", ratio(float64(len(traced.lat[xf])), float64(xq)))
	set("server.rejected_frac", ratio(rejected, float64(plain.attempted+traced.attempted)))
	set("repl.lag_lsns_p50", orZero(median(traced.lagLSNs)))

	// Per-query latencies of the untraced replay, and what the
	// recorder added to them in the traced one.
	var slowdown []float64
	for k := opKind(0); k < numKinds; k++ {
		us := micros(plain.lat[k])
		set("core."+k.String()+"_p50_us", orZero(median(us)))
		set("core."+k.String()+"_p95_us", orZero(quantile(us, 0.95)))
		set("core."+k.String()+"_n", float64(len(us)))
		if t := micros(traced.lat[k]); len(t) > 0 && len(us) > 0 {
			slowdown = append(slowdown, median(t)/median(us))
		}
	}
	set("bench.trace_overhead_frac", geomean(slowdown)-1)
	set("core.write_p95_us", orZero(quantile(micros(plain.writeLat), 0.95)))

	// Maintenance calls, wherever in the run they happened.
	var ckpt, compact, compress, stalls []float64
	for _, ps := range []*phaseStats{plain, traced, lc.burst} {
		ckpt = append(ckpt, ps.ckptMS...)
		compact = append(compact, ps.compact...)
		compress = append(compress, ps.compress...)
		stalls = append(stalls, ps.stalls()...)
	}
	set("core.checkpoint_ms", orZero(median(ckpt)))
	set("core.compact_ms", orZero(median(compact)))
	set("core.compress_frozen_ms", orZero(median(compress)))
	set("core.ckpt_stall_max_ms", orZero(quantile(stalls, 1)))

	// Lifecycle.
	set("core.recover_records", float64(lc.replayed))
	set("core.recover_records_per_s", ratio(float64(lc.replayed), median(lc.recoverS)))
	set("repl.bootstrap_ms", median(lc.bootstrapMS))
	set("repl.pull_once_ms", median(lc.pullMS))
	set("repl.apply_records_per_s", ratio(float64(lc.pulled), median(lc.pullMS)/1e3))
	set("htable.load_ops_per_s", ratio(float64(e.m.loadOps), e.loadS))
	_, pinned, segments := lc.recovered.recoveryStats()
	set("relstore.pinned_readers_end", float64(pinned))
	set("wal.segments_end", float64(segments))
}

// orZero maps the NaN of an empty sample to 0: the workload did not
// exercise the thing measured.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
