package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"archis"
)

// role is what one client does in the measured phase. Every client is
// a closed loop: it issues its next op when the previous one returns.
type role struct {
	reads      []opKind // the round it cycles through; nil = no reads
	writeEvery int      // one write after this many reads; -1 = writes only; 0 = never
	follower   bool     // its reads go to the follower
}

// workload fixes a configuration of the system and a client mix. All
// four run the same query set over the same generated history; they
// differ in which layer does the work and which is bypassed (README.md
// has the table, BENCHMARK.json the one-line reasons).
type workload struct {
	name            string
	layout          archis.Layout
	workers         int  // 0 = GOMAXPROCS
	cold            bool // DropCaches before every read
	blockCacheBytes int
	served          bool // clients go through HTTP; a follower replicates
	maintain        bool // Compact+CompressFrozen and Checkpoint run beside the clients
	validTime       bool // one write in four asserts a valid interval
	roles           []role
}

var pointOps = []opKind{q1, q3, b1}

// roundNoSelfJoin is the round with a second q6 in place of q6j:
// mixed-durable's reader shares two cores with the writer and the
// maintenance goroutine, and the self join (a third of the round's time
// there) would leave every other query too few samples in a ten-second
// phase.
var roundNoSelfJoin = append(append([]opKind(nil), round[:len(round)-1]...), q6)

// mixedBlockCacheBytes is a quarter of the decoded size of the frozen
// salary history at fullScale (about 410 KB over seeds 1-10), so
// mixed-durable's cache is smaller than its working set.
const mixedBlockCacheBytes = 100 << 10

var workloads = []workload{
	{
		name:   "cold-compressed",
		layout: archis.LayoutCompressed, workers: 0, cold: true, validTime: true,
		roles: []role{{reads: round, writeEvery: 5}},
	},
	{
		name:   "warm-clustered",
		layout: archis.LayoutClustered, workers: 1, validTime: true,
		roles: []role{{reads: round, writeEvery: 5}, {reads: round}},
	},
	{
		name:   "mixed-durable",
		layout: archis.LayoutCompressed, workers: 1, blockCacheBytes: mixedBlockCacheBytes, maintain: true, validTime: true,
		roles: []role{{writeEvery: -1}, {reads: roundNoSelfJoin}},
	},
	{
		name:   "served-replica",
		layout: archis.LayoutClustered, workers: 1, served: true,
		roles: []role{{reads: pointOps, writeEvery: 4}, {reads: round, follower: true}},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Background work is triggered by the count of acked writes, never by
// timers, so the same script gets the same maintenance.
const (
	compactEvery    = 1000 // Compact + CompressFrozen
	checkpointEvery = 2500
	setupReps       = 3
	checkOneIn      = 20 // timed reads re-check this share of answers
	compareEvery    = 50 // served-replica: every this-many follower reads are re-asked on both nodes
	prefixRounds    = 3  // counters of the traced run are read over this fixed prefix of the script
)

// runConfig is one invocation.
type runConfig struct {
	seed      int64
	seconds   float64
	trace     bool
	scale     scale
	rounds    int    // > 0: each reading client runs exactly this many rounds instead of for seconds (smoke test)
	workDir   string // everything the run writes lives here
	tracePath string
}

// ledger is the benchmark's own record of acked writes: the LSN the
// primary had reached when write i was acked.
type ledger struct {
	mu     sync.Mutex
	ackLSN []uint64
}

func (l *ledger) ack(lsn uint64) {
	l.mu.Lock()
	l.ackLSN = append(l.ackLSN, lsn)
	l.mu.Unlock()
}

// indexAt is the number of acked writes a node at lsn has applied.
func (l *ledger) indexAt(lsn uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return sort.Search(len(l.ackLSN), func(i int) bool { return l.ackLSN[i] > lsn })
}

func (l *ledger) acked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ackLSN)
}

// env is one set-up system with everything a phase needs.
type env struct {
	w         workload
	cfg       runConfig
	m         *model
	primary   *sut
	follower  *followerNode // served workloads
	nodeP     *httpNode
	nodeF     *httpNode
	stopFol   func() // cancels the follower's apply loop and waits for it
	led       ledger
	rec       *recorder // non-nil while a traced phase runs
	spans     *recorder // the traced phase's spans, kept for the trace file
	loadS     float64   // time the history load took
	loadRatio float64   // stored bytes per user byte once the history is loaded and laid out
	opSeq     atomic.Int64
	readOps   atomic.Int64

	failMu   sync.Mutex
	failed   int
	acksLost int // acked writes a recovered or caught-up system did not hold
	firstErr error
}

func (e *env) fail(err error) {
	e.failMu.Lock()
	e.failed++
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.failMu.Unlock()
}

// setup builds the workload's system from the history script: open,
// load, build the layout, start the wire where the workload has one,
// and run two warm-up rounds. Its wall time is setup_s.
func setup(w workload, cfg runConfig, m *model, hist []stmt, dir string) (*env, error) {
	e := &env{w: w, cfg: cfg, m: m}
	var err error
	e.primary, err = openSUT(filepath.Join(dir, "primary"), sutOptions{
		layout: w.layout, workers: w.workers, blockCacheBytes: w.blockCacheBytes,
		minSegmentRows: 2 * cfg.scale.employees,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := e.primary.load(hist); err != nil {
		return nil, err
	}
	e.loadS = time.Since(t0).Seconds()
	e.loadRatio = ratio(float64(e.primary.storedBytes()), float64(m.userBytes))
	if w.served {
		if e.nodeP, err = e.primary.serve(true); err != nil {
			return nil, err
		}
		if e.follower, err = follow(e.nodeP.url, filepath.Join(dir, "follower")); err != nil {
			return nil, err
		}
		if e.nodeF, err = e.follower.serve(false); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); e.follower.run(ctx) }()
		e.stopFol = func() { cancel(); <-done }
	}
	warm := newScript(cfg.seed, 99, m)
	for i := 0; i < 2*len(round); i++ {
		o := warm.next()
		for _, t := range e.readTargets() {
			if _, err := t.read(o, t.prepare(o), t.lsn()); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", o.kind, err)
			}
		}
	}
	return e, nil
}

// traceOn makes the following phases traced; traceOff ends that.
func (e *env) traceOn() {
	e.rec = newRecorder()
	e.spans = e.rec
	for _, n := range []*httpNode{e.nodeP, e.nodeF} {
		if n != nil {
			n.rec.Store(e.rec)
		}
	}
}

func (e *env) traceOff() {
	e.rec = nil
	for _, n := range []*httpNode{e.nodeP, e.nodeF} {
		if n != nil {
			n.rec.Store(nil)
		}
	}
}

func (e *env) readTargets() []target {
	if e.w.served {
		return []target{e.nodeP, e.nodeF}
	}
	return []target{e.primary}
}

// writeTarget is where the workload's writes, and the reads not bound
// for the follower, go.
func (e *env) writeTarget() target {
	if e.w.served {
		return e.nodeP
	}
	return e.primary
}

// teardown stops everything the env started. abandoned systems are
// not closed: that is the crash the recovery measures.
func (e *env) teardown(closePrimary bool) {
	if e.stopFol != nil {
		e.stopFol()
		e.stopFol = nil
	}
	for _, n := range []*httpNode{e.nodeP, e.nodeF} {
		if n != nil {
			n.stop()
		}
	}
	e.nodeP, e.nodeF = nil, nil
	if e.follower != nil {
		e.follower.close()
		e.follower = nil
	}
	if closePrimary && e.primary != nil {
		e.primary.close()
	}
}

// verifyAnswers checks every query at 20 seeded draws (fullScale) against the
// model on each read target, the SQL and XQuery forms of Q1/Q3
// included: the model's q1/x1 and q3/x3 answers are derived from the
// same versions, so both forms agreeing with it agree with each other.
func (e *env) verifyAnswers() {
	s := newScript(e.cfg.seed, 98, e.m)
	for i := 0; i < e.cfg.scale.verifyDraws*len(round); i++ {
		o := s.next()
		for _, t := range e.readTargets() {
			got, err := t.read(o, t.prepare(o), t.lsn())
			if err != nil {
				e.fail(fmt.Errorf("verify %s: %w", o.kind, err))
			} else if !e.m.matches(o, got, 0, 0) {
				e.fail(fmt.Errorf("verify %s: got %.80q, want %.80q", o.kind, got, e.m.answer(o, 0)))
			}
		}
	}
}

// phaseStats is what one measured phase observed.
type phaseStats struct {
	wall      time.Duration
	lat       [numKinds][]int64 // successful reads, ns
	writeLat  []int64
	writeSpan [][2]int64 // issue and ack of each write, ns since phase start
	attempted int
	reads     int // successful
	walBytes  int64
	lagLSNs   []float64

	ckpt     [][2]int64 // start and end of each checkpoint, ns since phase start
	ckptMS   []float64
	compact  []float64 // ms per Compact call
	compress []float64 // ms per CompressFrozen call

	prefix     *counters // counter deltas over the fixed script prefix
	prefixOps  int
	startCount counters
}

// phase runs the workload's clients against the env: for cfg.seconds
// (or cfg.rounds), or, when burst > 0, the writer role alone for
// exactly that many writes under twenty checkpoints.
func (e *env) phase(seconds float64, burst int) *phaseStats {
	ps := &phaseStats{startCount: e.counters()}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var walStart int64
	if e.primary.fs != nil {
		walStart = e.primary.fs.bytes.Load()
	}
	e.readOps.Store(0)

	// Maintenance: one goroutine, fed by the writer after acks.
	const kCompact, kCheckpoint = 0, 1
	jobs := make(chan int, 4) // a few pending triggers; beyond that they coalesce
	var maintWG sync.WaitGroup
	var maintMu sync.Mutex
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		for k := range jobs {
			t0 := time.Now()
			switch k {
			case kCompact:
				compactMS, compressMS, err := e.primary.compact()
				if err != nil {
					e.fail(fmt.Errorf("compact: %w", err))
				}
				maintMu.Lock()
				ps.compact = append(ps.compact, compactMS)
				ps.compress = append(ps.compress, compressMS)
				maintMu.Unlock()
			case kCheckpoint:
				if err := e.primary.checkpoint(); err != nil {
					e.fail(fmt.Errorf("checkpoint: %w", err))
				}
				t1 := time.Now()
				maintMu.Lock()
				ps.ckpt = append(ps.ckpt, [2]int64{int64(t0.Sub(start)), int64(t1.Sub(start))})
				ps.ckptMS = append(ps.ckptMS, ms(t1.Sub(t0)))
				maintMu.Unlock()
			}
		}
	}()
	trigger := func(k int) {
		select {
		case jobs <- k:
		default:
		}
	}
	afterAck := func(n int) {
		switch {
		case burst > 0:
			if n%(burst/21) == 0 && n < burst { // twenty checkpoints, each with writes still to come
				jobs <- kCheckpoint // the burst waits: each checkpoint must overlap the writer
			}
		case e.w.maintain:
			if n%compactEvery == 0 {
				trigger(kCompact)
			}
			if n%checkpointEvery == 0 {
				trigger(kCheckpoint)
			}
		}
	}

	roles := e.w.roles
	if burst > 0 {
		roles = []role{{writeEvery: -1}}
	}
	readers := 0
	for _, r := range roles {
		if r.reads != nil {
			readers++
		}
	}
	var wg, readersWG sync.WaitGroup
	readersDone := make(chan struct{})
	clients := make([]*client, len(roles))
	for i, r := range roles {
		c := &client{e: e, ps: ps, role: r, start: start, deadline: deadline, afterAck: afterAck,
			burst: burst, readersDone: readersDone, readers: readers}
		if r.reads != nil {
			c.script = newScript(e.cfg.seed, i, e.m)
			c.script.kinds = r.reads
			readersWG.Add(1)
		}
		c.reads = e.writeTarget()
		if r.follower {
			c.reads = e.nodeF
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run()
			if c.script != nil {
				readersWG.Done()
			}
		}()
	}
	go func() { readersWG.Wait(); close(readersDone) }()
	wg.Wait()
	ps.wall = time.Since(start)
	close(jobs)
	maintWG.Wait()

	for _, c := range clients {
		for k := range c.lat {
			ps.lat[k] = append(ps.lat[k], c.lat[k]...)
			ps.reads += len(c.lat[k])
		}
		ps.writeLat = append(ps.writeLat, c.writeLat...)
		ps.writeSpan = append(ps.writeSpan, c.writeSpan...)
		ps.attempted += c.attempted
		ps.lagLSNs = append(ps.lagLSNs, c.lagLSNs...)
	}
	if e.primary.fs != nil {
		ps.walBytes = e.primary.fs.bytes.Load() - walStart
	}
	return ps
}

// client is one closed-loop client of a phase.
type client struct {
	e           *env
	ps          *phaseStats
	role        role
	script      *script
	reads       target
	start       time.Time
	deadline    time.Time
	burst       int
	afterAck    func(acked int)
	readersDone chan struct{}
	readers     int

	lat       [numKinds][]int64
	writeLat  []int64
	writeSpan [][2]int64
	attempted int
	lagLSNs   []float64
}

func (c *client) run() {
	e := c.e
	if c.script == nil { // writes only
		for n := 0; ; n++ {
			switch {
			case c.burst > 0:
				if n == c.burst {
					return
				}
			case e.cfg.rounds > 0:
				select {
				case <-c.readersDone:
					return
				default:
				}
			default:
				if time.Now().After(c.deadline) {
					return
				}
			}
			if !c.write() {
				return
			}
		}
	}
	for n := 1; ; n++ {
		if e.cfg.rounds > 0 {
			if n > e.cfg.rounds*len(c.script.kinds) {
				return
			}
		} else if time.Now().After(c.deadline) {
			return
		}
		c.read(n)
		if c.role.writeEvery > 0 && n%c.role.writeEvery == 0 && !c.write() {
			return
		}
	}
}

// write issues the next statement of the write stream. A failed write
// leaves the model ahead of the system, so the client stops.
func (c *client) write() bool {
	e := c.e
	st := e.m.nextWrite()
	t := e.writeTarget()
	c.attempted++
	t0 := time.Now()
	var err error
	if e.rec != nil {
		err = writeTraced(e.rec, int(e.opSeq.Add(1)), t, st)
	} else {
		err = t.write(st)
	}
	t1 := time.Now()
	if err != nil {
		e.fail(fmt.Errorf("write %d %q: %w", st.index, st.sql, err))
		return false
	}
	e.led.ack(e.primary.lsn())
	c.writeLat = append(c.writeLat, int64(t1.Sub(t0)))
	c.writeSpan = append(c.writeSpan, [2]int64{int64(t0.Sub(c.start)), int64(t1.Sub(c.start))})
	c.afterAck(len(c.writeLat))
	return true
}

// read issues the client's n-th read and checks a seeded share of the
// answers. A read that overlapped writes may have seen any state
// between the writes its node had applied when it was issued and the
// writes issued by the time it returned.
func (c *client) read(n int) {
	e := c.e
	o := c.script.next()
	t := c.reads
	text := t.prepare(o)
	if e.w.cold {
		t.dropCaches()
	}
	lsn := t.lsn()
	lo := e.led.indexAt(lsn)
	c.attempted++
	t0 := time.Now()
	var got string
	var err error
	if e.rec != nil {
		got, err = t.readTraced(e.rec, int(e.opSeq.Add(1)), o, text, lsn)
	} else {
		got, err = t.read(o, text, lsn)
	}
	d := time.Since(t0)
	hi := int(e.m.issued.Load())
	if err != nil {
		e.fail(fmt.Errorf("%s %q: %w", o.kind, text, err))
		return
	}
	c.lat[o.kind] = append(c.lat[o.kind], int64(d))
	if (n+int(e.cfg.seed))%checkOneIn == 0 && !e.m.matches(o, got, lo, hi) {
		e.fail(fmt.Errorf("%s %q: got %.80q, want %.80q in states %d..%d", o.kind, text, got, e.m.answer(o, hi), lo, hi))
	}
	if c.role.follower {
		if n%compareEvery == 0 && !o.kind.isXQuery() && o.validAt == 0 {
			c.attempted++
			if err := sameRows(e.nodeP, e.nodeF, text, e.follower.lsn()); err != nil {
				e.fail(err)
			}
		}
		if n%100 == 0 {
			c.lagLSNs = append(c.lagLSNs, float64(e.follower.lag()))
		}
	}
	// The read that completes the fixed prefix freezes the counters.
	if e.readOps.Add(1) == int64(prefixRounds*len(round)*c.readers) && e.rec != nil {
		now := e.counters()
		d := now.sub(c.ps.startCount)
		c.ps.prefix, c.ps.prefixOps = &d, prefixRounds*len(round)*c.readers
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// stalls is, per checkpoint, the longest write (issue to ack) that
// overlapped it.
func (ps *phaseStats) stalls() []float64 {
	var out []float64
	for _, ck := range ps.ckpt {
		worst := int64(-1)
		for _, w := range ps.writeSpan {
			if w[0] < ck[1] && w[1] > ck[0] && w[1]-w[0] > worst {
				worst = w[1] - w[0]
			}
		}
		if worst >= 0 {
			out = append(out, float64(worst)/1e6)
		}
	}
	return out
}

// lifecycle is what the phase after the measured one observed:
// checkpoints under a running writer, recovery of the abandoned
// directory, catch-up of fresh followers.
type lifecycle struct {
	burst       *phaseStats
	recoverS    []float64
	replayed    int64
	bootstrapMS []float64
	pullMS      []float64
	pulled      int
	catchupS    []float64
	recovered   *sut // kept open for the probes; closed by the caller
}

func (e *env) lifecycle() (*lifecycle, error) {
	lc := &lifecycle{}
	// Each timed step below starts from a collected heap. What the
	// measured phase left behind would otherwise put a mark phase of
	// its size beside some checkpoints, recoveries and catch-ups and
	// not others, and their medians would flip between the two modes.
	runtime.GC()
	lc.burst = e.phase(0, e.cfg.scale.burstWrites)
	// Compact before the last checkpoint: the live segments start fresh,
	// so no usefulness-triggered archive (a 100 ms event) can fall into
	// the tail that recovery replays and followers pull — its length in
	// records, and so recover_s and catchup_s, are fixed by the script.
	compactMS, compressMS, err := e.primary.compact()
	if err != nil {
		return nil, err
	}
	lc.burst.compact = append(lc.burst.compact, compactMS)
	lc.burst.compress = append(lc.burst.compress, compressMS)
	if err := e.primary.checkpoint(); err != nil {
		return nil, err
	}
	wt := e.writeTarget()
	for i := 0; i < e.cfg.scale.tailWrites; i++ {
		if err := wt.write(e.m.nextWrite()); err != nil {
			return nil, fmt.Errorf("tail write: %w", err)
		}
		e.led.ack(e.primary.lsn())
	}
	if e.w.served {
		e.awaitFollower()
	}
	final := e.led.acked()
	e.teardown(false) // the primary handle is abandoned, neither closed nor checkpointed

	for i := 0; i < e.cfg.scale.reps; i++ {
		runtime.GC()
		t0 := time.Now()
		r, err := reopen(e.primary.dir, e.w.layout)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		lc.recoverS = append(lc.recoverS, time.Since(t0).Seconds())
		lc.replayed, _, _ = r.recoveryStats()
		if i == 0 {
			e.verifyLedger(r, final)
		}
		if i < e.cfg.scale.reps-1 {
			r.close() // reopened next
			continue
		}
		lc.recovered = r
	}

	node, err := lc.recovered.serve(true)
	if err != nil {
		return nil, err
	}
	defer node.stop()
	want := lc.recovered.applied()
	for i := 0; i < e.cfg.scale.reps; i++ {
		dir := filepath.Join(e.cfg.workDir, fmt.Sprintf("catchup-%d", i))
		runtime.GC()
		t0 := time.Now()
		fol, err := follow(node.url, dir)
		if err != nil {
			return nil, fmt.Errorf("catch-up bootstrap: %w", err)
		}
		t1 := time.Now()
		pulled := 0
		for fol.applied() < want {
			n, err := fol.pull()
			if err != nil {
				return nil, fmt.Errorf("catch-up pull: %w", err)
			}
			pulled += n
		}
		t2 := time.Now()
		lc.bootstrapMS = append(lc.bootstrapMS, ms(t1.Sub(t0)))
		lc.pullMS = append(lc.pullMS, ms(t2.Sub(t1)))
		lc.catchupS = append(lc.catchupS, t2.Sub(t0).Seconds())
		lc.pulled = pulled
		if i == 0 {
			e.verifyLedger(fol.sut, final)
		}
		fol.close()
		os.RemoveAll(dir)
	}
	return lc, nil
}

// awaitFollower waits for the follower to apply everything the
// primary has, then compares the two at that LSN.
func (e *env) awaitFollower() {
	want := e.primary.applied()
	for t0 := time.Now(); e.follower.applied() < want; {
		if time.Since(t0) > 10*time.Second {
			e.fail(fmt.Errorf("follower stuck at lsn %d, primary at %d", e.follower.applied(), want))
			return
		}
		time.Sleep(time.Millisecond)
	}
	e.follower.settle()
	if err := sameRows(e.nodeP, e.nodeF, `select count(*) from employee_salary S`, want); err != nil {
		e.fail(err)
	}
}

// verifyLedger requires a recovered (or caught-up) system to hold
// every acked write: the count of salary versions and the current row
// of 200 sampled employees must match the model after `final` writes.
func (e *env) verifyLedger(s *sut, final int) {
	m := e.m
	want := m.answer(op{kind: q4}, final)
	if got, err := s.scalar(`select count(*) from employee_salary S`); err != nil || got != want {
		e.lost(fmt.Errorf("after recovery: %s salary versions (err %v), ledger has %s", got, err, want))
	}
	ids := make([]int64, 0, len(m.byID))
	for id := range m.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	step := len(ids)/200 + 1
	for i := 0; i < len(ids); i += step {
		vs := m.byID[ids[i]]
		want := ""
		if last := vs[len(vs)-1]; last.tendAt(final) == archis.Forever {
			want = fmt.Sprint(last.salary)
		}
		got, err := s.scalar(fmt.Sprintf(`select salary from employee where id = %d`, ids[i]))
		if err != nil || got != want {
			e.lost(fmt.Errorf("after recovery: employee %d has salary %q (err %v), ledger has %q", ids[i], got, err, want))
		}
	}
}

// lost records a lost acked write: the run reports correct=false.
func (e *env) lost(err error) {
	e.fail(err)
	e.failMu.Lock()
	e.acksLost++
	e.failMu.Unlock()
}

// faultPass is the durability check an intact operating-system cache
// cannot give: a small durable system whose log lives on wal.FaultFS
// takes up to `writes` acked writes until an injected crash stops the
// file system after a seeded number of fsyncs, with a torn tail; what
// Survivor() kept is recovered and must hold every acked write (and at
// most the one in flight). It returns the number of acked writes lost.
func faultPass(seed int64, dir string, writes int) (int, error) {
	m := newModel(seed, toyScale, true)
	ffs := newFaultFS()
	s, err := openSUT(dir, sutOptions{layout: archis.LayoutClustered, workers: 1, minSegmentRows: 2 * toyScale.employees, walFS: ffs})
	if err != nil {
		return 0, err
	}
	if err := s.load(m.history()); err != nil {
		return 0, err
	}
	crashAfter(ffs, writes/10+int(seed)%(writes*3/4))
	acked := 0
	for ; acked < writes; acked++ {
		if err := s.write(m.nextWrite()); err != nil {
			break // the injected crash: this write was never acked
		}
	}
	r, err := recoverSurvivor(dir, ffs)
	if err != nil {
		return 0, fmt.Errorf("fault pass: recover after %d acked writes: %w", acked, err)
	}
	defer r.close()
	got, err := r.scalar(`select count(*) from employee_salary S`)
	if err != nil {
		return 0, err
	}
	for i := acked; i <= m.writes; i++ {
		if got == m.answer(op{kind: q4}, i) {
			return 0, nil
		}
	}
	have, _ := strconv.Atoi(got)
	want, _ := strconv.Atoi(m.answer(op{kind: q4}, acked))
	return max(want-have, 1), nil
}
