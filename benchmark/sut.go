package main

// The adapter: every call into the system under test goes through this
// file, so a change of the system's API (ROADMAP 3c folds the
// Exec/Query/ReadAsOf variants into one Do) needs a follow-up here and
// nowhere else. The root archis package is used wherever it suffices;
// internal/dataset gives the table specs, internal/server and
// internal/repl the wire, and the layer packages appear only in the
// probes of the traced run. README.md lists every imported symbol.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"archis"
	"archis/internal/blockzip"
	"archis/internal/dataset"
	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/repl"
	"archis/internal/server"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
	"archis/internal/wal"
	"archis/internal/xquery"
)

// sut is one system under test: a durable archis.System in its own
// directory, optionally behind an HTTP server.
type sut struct {
	sys     *archis.System
	dir     string
	layout  archis.Layout
	replica bool
	fs      *countingFS
}

// countingFS is the real file system, counting the bytes the log
// writes: the numerator of wal_bytes_per_write.
type countingFS struct {
	wal.OSFS
	bytes atomic.Int64
}

type countingFile struct {
	wal.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

func (fs *countingFS) Create(name string) (wal.File, error) {
	f, err := fs.OSFS.Create(name)
	return countingFile{f, &fs.bytes}, err
}

func (fs *countingFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.OSFS.OpenAppend(name)
	return countingFile{f, &fs.bytes}, err
}

// sutOptions is what a workload fixes about its system.
type sutOptions struct {
	layout          archis.Layout
	workers         int // intra-query parallelism: 0 = GOMAXPROCS, 1 = serial
	blockCacheBytes int
	minSegmentRows  int
	walFS           wal.FS // nil counts on the real file system
}

// openSUT starts a fresh durable system in dir with the paper's two
// tables registered. The flush policy is SyncAlways everywhere: an ack
// means the statement's log records were fsynced.
func openSUT(dir string, o sutOptions) (*sut, error) {
	s := &sut{dir: dir, layout: o.layout}
	fs := o.walFS
	if fs == nil {
		s.fs = &countingFS{}
		fs = s.fs
	}
	sys, err := archis.New(archis.Options{
		Layout:          o.layout,
		MinSegmentRows:  o.minSegmentRows,
		Workers:         o.workers,
		BlockCacheBytes: o.blockCacheBytes,
		WALDir:          dir,
		WALFS:           fs,
		WALSync:         archis.SyncAlways,
	})
	if err != nil {
		return nil, err
	}
	s.sys = sys
	registerMaxRaise(sys)
	if err := sys.Register(dataset.EmployeeSpec()); err != nil {
		return nil, err
	}
	return s, sys.Register(dataset.DeptSpec())
}

// load runs the history script through the statement path without
// waiting for fsyncs (a bulk load), then builds the layout: compress
// the frozen segments where the layout has them, and checkpoint so the
// loaded state is one snapshot and the log starts empty.
func (s *sut) load(script []stmt) error {
	for _, st := range script {
		if st.day != s.sys.Clock() {
			s.sys.SetClock(st.day)
		}
		if _, err := s.sys.Exec(st.sql); err != nil {
			return fmt.Errorf("load %q: %w", st.sql, err)
		}
	}
	if s.layout == archis.LayoutCompressed {
		if err := s.sys.CompressFrozen(); err != nil {
			return err
		}
	}
	return s.sys.Checkpoint()
}

// write issues one statement of the write stream and returns when it
// is durable.
func (s *sut) write(st stmt) error {
	if st.day != s.sys.Clock() {
		s.sys.SetClock(st.day)
	}
	var err error
	if st.valid != nil {
		_, err = s.sys.ExecDurable(st.sql, archis.WithValidTime(*st.valid))
	} else {
		_, err = s.sys.ExecDurable(st.sql)
	}
	return err
}

// applied is the newest LSN in the system's log.
func (s *sut) applied() uint64 { return s.sys.AppliedLSN() }

// lsn is the newest LSN whose version a read can be sure to find
// published. A follower appends a shipped record to its log before it
// replays and publishes it, so there the newest one may still be in
// flight.
func (s *sut) lsn() uint64 {
	l := s.sys.AppliedLSN()
	if s.replica && l > 0 {
		l--
	}
	return l
}

// settle returns once every record the follower's log holds has been
// replayed and published: Publish takes the lock the apply path holds
// from append to publication.
func (s *sut) settle() { s.sys.Publish() }

func (s *sut) dropCaches() { s.sys.DB.DropCaches() }

// prepare finishes an op's statement outside the timed region: the
// Section 6.3 segno restriction for the op's period, from the store's
// segment directory (sound under concurrent archiving: frozen segments
// keep every version that was live when they froze).
func (s *sut) prepare(o op) string {
	if o.segLo == 0 {
		return o.text
	}
	st, ok := s.sys.SegmentStore("employee_salary")
	if !ok {
		return o.text
	}
	segs, err := st.SegmentsFor(o.segLo, o.segHi)
	if err != nil || len(segs) == 0 {
		return o.text
	}
	lo, hi := segs[0], segs[0]
	for _, n := range segs[1:] {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == hi {
		return fmt.Sprintf("%s and S.segno = %d", o.text, lo)
	}
	return fmt.Sprintf("%s and S.segno >= %d and S.segno <= %d", o.text, lo, hi)
}

// read runs one read op in-process and returns its canonical answer.
// lsn scopes b1 to a retained version.
func (s *sut) read(o op, text string, lsn uint64) (string, error) {
	if o.kind.isXQuery() {
		res, err := s.sys.Query(text)
		if err != nil {
			return "", err
		}
		if err := checkPath(o.kind, string(res.Path)); err != nil {
			return "", err
		}
		items := make([]string, len(res.Items))
		for i, it := range res.Items {
			items[i] = it.StringValue()
		}
		return canonRows(o.kind, items), nil
	}
	var opts []archis.ExecOpt
	if o.validAt != 0 {
		opts = append(opts, archis.AsOfValidTime(o.validAt))
	}
	if o.asOf {
		opts = append(opts, archis.AsOfTransactionTime(lsn))
	}
	res, err := s.sys.Exec(text, opts...)
	if err != nil {
		return "", err
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = rowText(r)
	}
	return canonRows(o.kind, rows), nil
}

// checkPath requires the execution path the query set promises: the
// translated SQL/XML path for x1 and x3, the XML-view fallback for xf.
func checkPath(k opKind, got string) error {
	want := archis.PathSQL
	if k == xf {
		want = archis.PathXML
	}
	if got != string(want) {
		return fmt.Errorf("%s took path %q, want %q", k, got, want)
	}
	return nil
}

func rowText(r relstore.Row) string {
	cols := make([]string, len(r))
	for i, v := range r {
		cols[i] = v.Text()
	}
	return strings.Join(cols, "|")
}

// canonRows joins result rows in the model's canonical form: q3 keeps
// its ORDER BY, everything else is a set.
func canonRows(k opKind, rows []string) string {
	if k != q3 {
		sort.Strings(rows)
	}
	return strings.Join(rows, ";")
}

// registerMaxRaise installs the user-defined aggregate the paper uses
// to run Q6's temporal join in one scan (Section 8.3):
// MAXRAISE(id, salary, tstart, window_days) is the largest salary
// increase between two versions of one employee whose starts lie
// within the window. Copied from internal/bench, which is slated for
// deletion.
func registerMaxRaise(sys *archis.System) {
	sys.Engine.RegisterAggregate("MAXRAISE", func() sqlengine.AggState {
		return &maxRaise{byID: map[int64][][2]int64{}}
	})
}

type maxRaise struct {
	byID   map[int64][][2]int64 // id -> (tstart, salary)
	window int64
}

func (s *maxRaise) Add(args []relstore.Value) error {
	if len(args) != 4 {
		return fmt.Errorf("MAXRAISE expects (id, salary, tstart, window_days)")
	}
	var a [4]int64
	for i, v := range args {
		n, ok := v.AsInt()
		if !ok {
			return fmt.Errorf("MAXRAISE: non-numeric argument")
		}
		a[i] = n
	}
	s.window = a[3]
	s.byID[a[0]] = append(s.byID[a[0]], [2]int64{a[2], a[1]})
	return nil
}

func (s *maxRaise) Merge(other sqlengine.AggState) error {
	o, ok := other.(*maxRaise)
	if !ok {
		return fmt.Errorf("MAXRAISE: cannot merge partial of type %T", other)
	}
	if o.window != 0 {
		s.window = o.window
	}
	for id, vs := range o.byID {
		s.byID[id] = append(s.byID[id], vs...)
	}
	return nil
}

func (s *maxRaise) Result() relstore.Value {
	if len(s.byID) == 0 {
		return relstore.Null
	}
	best := int64(0)
	for _, vs := range s.byID {
		sort.Slice(vs, func(i, j int) bool { return vs[i][0] < vs[j][0] })
		for i, v := range vs {
			for j := i + 1; j < len(vs) && vs[j][0]-v[0] <= s.window; j++ {
				if d := vs[j][1] - v[1]; d > best {
					best = d
				}
			}
		}
	}
	return relstore.Int(best)
}

// target is where a client sends its ops: a system in-process, or the
// same system behind its HTTP front end.
type target interface {
	prepare(o op) string
	read(o op, text string, lsn uint64) (string, error)
	readTraced(rec *recorder, opID int, o op, text string, lsn uint64) (string, error)
	write(st stmt) error
	lsn() uint64
	dropCaches()
}

// readTraced is read with the call decomposed into the layers' public
// functions, a span around each: Parse and ExecStmt for plain SQL,
// Translate + Parse + ExecStmt for a translatable XQuery, ParseQuery +
// QueryXML for the fallback. Bitemporal reads stay one Exec call: their
// scoping has no public decomposition.
func (s *sut) readTraced(rec *recorder, opID int, o op, text string, lsn uint64) (string, error) {
	root := rec.start("op."+o.kind.String(), opID, 0)
	defer rec.finish(root)
	timed := func(name string, fn func() error) error {
		id := rec.start(name, opID, root)
		defer rec.finish(id)
		return fn()
	}
	switch {
	case o.kind == xf:
		if err := timed("xquery.ParseQuery", func() error { _, err := xquery.ParseQuery(text); return err }); err != nil {
			return "", err
		}
		var seq xquery.Seq
		err := timed("core.QueryXML", func() (err error) { seq, err = s.sys.QueryXML(text); return })
		items := make([]string, len(seq))
		for i, it := range seq {
			items[i] = it.StringValue()
		}
		return canonRows(o.kind, items), err
	case o.validAt != 0:
		var out string
		err := timed("core.Exec", func() (err error) { out, err = s.read(o, text, lsn); return })
		return out, err
	case o.kind.isXQuery():
		if err := timed("translator.Translate", func() (err error) { text, err = s.sys.Translate(text); return }); err != nil {
			return "", err
		}
	}
	var stmt sqlengine.Statement
	if err := timed("sqlengine.Parse", func() (err error) { stmt, err = sqlengine.Parse(text); return }); err != nil {
		return "", err
	}
	var res *archis.Result
	if err := timed("sqlengine.ExecStmt", func() (err error) { res, err = s.sys.Engine.ExecStmt(stmt); return }); err != nil {
		return "", err
	}
	var rows []string
	for _, r := range res.Rows {
		for _, v := range r {
			// A translated XQuery returns one item per non-null value.
			if o.kind.isXQuery() {
				if v.Kind == relstore.TypeXML && v.X != nil {
					rows = append(rows, v.X.TextContent())
				} else if !v.IsNull() {
					rows = append(rows, v.Text())
				}
			}
		}
		if !o.kind.isXQuery() {
			rows = append(rows, rowText(r))
		}
	}
	return canonRows(o.kind, rows), nil
}

func writeTraced(rec *recorder, opID int, t target, st stmt) error {
	id := rec.start("op.write", opID, 0)
	defer rec.finish(id)
	return t.write(st)
}

// httpNode is a system behind its HTTP front end on a loopback
// listener: the benchmark owns the listener and the mux, so the
// handler span of a traced request is recorded here, outside the
// program, and tied to the client's span by a request header.
type httpNode struct {
	*sut
	url    string
	client *http.Client
	srv    *http.Server
	front  *server.Server
	rec    atomic.Pointer[recorder]
}

const opHeader = "X-Bench-Op" // "<op id>.<parent span id>"

// serve puts the system behind server.Server (and, when primary is
// set, the replication endpoints) on 127.0.0.1.
func (s *sut) serve(primary bool) (*httpNode, error) {
	n := &httpNode{sut: s, client: &http.Client{}}
	mux := http.NewServeMux()
	n.front = server.New(s.sys, nil, server.Config{})
	n.front.Attach(mux)
	if primary {
		p, err := repl.NewPrimary(s.sys)
		if err != nil {
			return nil, err
		}
		p.Attach(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rec := n.rec.Load(); rec != nil {
			var opID, parent int
			if _, err := fmt.Sscanf(r.Header.Get(opHeader), "%d.%d", &opID, &parent); err == nil {
				id := rec.start("server.Handler", opID, parent)
				defer rec.finish(id)
			}
		}
		mux.ServeHTTP(w, r)
	})}
	go func() { _ = n.srv.Serve(ln) }() // returns ErrServerClosed at stop
	return n, nil
}

// stop shuts the listener down and waits for its goroutines.
func (n *httpNode) stop() {
	n.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // best effort at teardown
}

type wireRequest struct {
	SQL       string `json:"sql"`
	AsOfLSN   uint64 `json:"as_of_lsn,omitempty"`
	ValidAsOf string `json:"valid_as_of,omitempty"`
}

// post sends one request and returns the raw response body; any status
// but 200 is an error (503/504 are the server's refusals).
func (n *httpNode) post(path string, req wireRequest, header string) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if header != "" {
		hr.Header.Set(opHeader, header)
	}
	resp, err := n.client.Do(hr)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (n *httpNode) query(o op, text string, lsn uint64, header string) (string, error) {
	req := wireRequest{SQL: text}
	if o.asOf {
		req.AsOfLSN = lsn
	}
	if o.validAt != 0 {
		req.ValidAsOf = o.validAt.String()
	}
	data, err := n.post("/query", req, header)
	if err != nil {
		return "", err
	}
	return decodeAnswer(o, data)
}

// decodeAnswer turns a /query body into the canonical answer. Cells
// arrive as JSON numbers, strings or null.
func decodeAnswer(o op, data []byte) (string, error) {
	var resp struct {
		Rows  [][]any  `json:"rows"`
		Items []string `json:"items"`
		Path  string   `json:"path"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return "", err
	}
	if o.kind.isXQuery() {
		if err := checkPath(o.kind, resp.Path); err != nil {
			return "", err
		}
		return canonRows(o.kind, resp.Items), nil
	}
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		cols := make([]string, len(r))
		for j, v := range r {
			if v != nil {
				cols[j] = fmt.Sprint(v)
			}
		}
		rows[i] = strings.Join(cols, "|")
	}
	return canonRows(o.kind, rows), nil
}

func (n *httpNode) read(o op, text string, lsn uint64) (string, error) {
	return n.query(o, text, lsn, "")
}

func (n *httpNode) readTraced(rec *recorder, opID int, o op, text string, lsn uint64) (string, error) {
	id := rec.start("client.rtt."+o.kind.String(), opID, 0)
	defer rec.finish(id)
	return n.query(o, text, lsn, fmt.Sprintf("%d.%d", opID, id))
}

// write sends the statement to /exec. The wire has no clock or
// valid-time field: the clock is moved in-process, and served writes
// assert no valid interval.
func (n *httpNode) write(st stmt) error {
	if st.day != n.sys.Clock() {
		n.sys.SetClock(st.day)
	}
	_, err := n.post("/exec", wireRequest{SQL: st.sql}, "")
	return err
}

// sameRows asks both nodes the same SELECT at the same as_of_lsn and
// compares the rows they return byte for byte.
func sameRows(a, b *httpNode, text string, lsn uint64) error {
	var bodies [2]json.RawMessage
	for i, n := range []*httpNode{a, b} {
		data, err := n.post("/query", wireRequest{SQL: text, AsOfLSN: lsn}, "")
		if err != nil {
			return err
		}
		var resp struct {
			Rows json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		bodies[i] = resp.Rows
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		return fmt.Errorf("primary and follower differ at lsn %d on %q", lsn, text)
	}
	return nil
}

// followerNode is a WAL-shipping follower and its replica system.
type followerNode struct {
	*sut
	f *repl.Follower
}

// follow bootstraps a follower of the primary at url into dir.
func follow(url, dir string) (*followerNode, error) {
	f, err := repl.Bootstrap(url, dir, repl.FollowerOptions{PollInterval: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	registerMaxRaise(f.Sys)
	return &followerNode{&sut{sys: f.Sys, dir: dir, replica: true}, f}, nil
}

// run pulls and applies until ctx is cancelled. A fatal apply error
// ends it early; the run then fails on a follower that never catches up.
func (n *followerNode) run(ctx context.Context) { _ = n.f.Run(ctx) }

// pull is one pull round trip; it returns the records applied.
func (n *followerNode) pull() (int, error) { return n.f.PullOnce(context.Background()) }

// lag is how many LSNs the follower is behind the primary's durable end.
func (n *followerNode) lag() uint64 { l, _ := n.f.Lag(); return l }

// compact archives the live segments and, on the compressed layout,
// compresses what froze; it returns the time each call took in ms.
func (s *sut) compact() (compactMS, compressMS float64, err error) {
	t0 := time.Now()
	if _, err = s.sys.Compact(); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	if s.layout == archis.LayoutCompressed {
		err = s.sys.CompressFrozen()
	}
	return float64(t1.Sub(t0)) / 1e6, float64(time.Since(t1)) / 1e6, err
}

func (s *sut) checkpoint() error { return s.sys.Checkpoint() }

// close syncs and closes the log. Errors are dropped: it runs at
// teardown, after everything that could be lost has been checked.
func (s *sut) close() { _ = s.sys.Close() }

func (s *sut) storedBytes() int { return s.sys.StorageBytes() }

// recoveryStats reports what the last recovery replayed and what the
// recovered system holds open.
func (s *sut) recoveryStats() (replayed, pinnedReaders int64, walSegments int) {
	st := s.sys.Stats()
	return st.WALReplayedRecords, st.PinnedReaders, st.WALSegments
}

// reopen recovers the durable directory the way a restart would.
func reopen(dir string, layout archis.Layout) (*sut, error) {
	sys, err := archis.Open(dir)
	if err != nil {
		return nil, err
	}
	registerMaxRaise(sys)
	return &sut{sys: sys, dir: dir, layout: layout}, nil
}

// newFaultFS, crashAfter and recoverSurvivor drive the log's
// fault-injection file system: crash after n more successful fsyncs,
// keeping a few unsynced bytes of each file as a torn tail, then
// recover from what a power loss would have left.
func newFaultFS() *wal.FaultFS { return wal.NewFaultFS() }

func crashAfter(fs *wal.FaultFS, n int) {
	fs.TornTailBytes = 7
	fs.StopAfterSyncs = fs.SyncCount() + n
}

func recoverSurvivor(dir string, fs *wal.FaultFS) (*sut, error) {
	sys, err := archis.Recover(dir, archis.RecoverOptions{FS: fs.Survivor()})
	if err != nil {
		return nil, err
	}
	return &sut{sys: sys, dir: dir}, nil
}

// scalar runs a single-value SELECT (ledger checks).
func (s *sut) scalar(sql string) (string, error) {
	res, err := s.sys.Exec(sql)
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 {
		return "", nil
	}
	return rowText(res.Rows[0]), nil
}

// counters is every cumulative count the per-layer metrics difference
// over a phase: storage counters summed over the nodes that serve
// reads, the primary's log counters, and the process's own.
type counters [numCounters]float64

const (
	rowsExamined = iota
	joinRowsCopied
	pageReads
	bytesRead
	pagesSkipped
	cacheHits
	rowsCopied
	rowsBorrowed
	blockHits
	blockMisses
	inflates
	walFsyncs
	walGrouped
	reclaimed
	allocBytes
	gcPauseNS
	cpuNS
	numCounters
)

func (e *env) counters() counters {
	var c counters
	nodes := []*sut{e.primary}
	if e.follower != nil {
		nodes = append(nodes, e.follower.sut)
	}
	for _, s := range nodes {
		st := s.sys.Stats()
		c[rowsExamined] += float64(st.RowsBorrowed + st.RowsCopied + st.ColBatchRows)
		c[joinRowsCopied] += float64(st.JoinRowsCopied)
		c[pageReads] += float64(st.BlockReads)
		c[bytesRead] += float64(st.BytesRead)
		c[pagesSkipped] += float64(st.PagesSkipped)
		c[cacheHits] += float64(st.CacheHits)
		c[rowsCopied] += float64(st.RowsCopied)
		c[rowsBorrowed] += float64(st.RowsBorrowed)
		c[blockHits] += float64(st.BlockCacheHits)
		c[blockMisses] += float64(st.BlockCacheMisses)
		c[reclaimed] += float64(st.ReclaimedVersions)
		if cs, ok := s.sys.CompressedStore("employee_salary"); ok {
			c[inflates] += float64(cs.DecompressionCount())
		}
	}
	st := e.primary.sys.Stats()
	c[walFsyncs], c[walGrouped] = float64(st.WALFsyncs), float64(st.WALGroupedCommits)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[allocBytes], c[gcPauseNS] = float64(ms.TotalAlloc), float64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c[cpuNS] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

func (c counters) sub(p counters) counters {
	for i := range c {
		c[i] -= p[i]
	}
	return c
}

// rejected is the number of requests the node's front end refused
// (503 for a full or slow admission queue).
func (n *httpNode) rejected() int64 {
	return n.sys.MetricsSnapshot().Counters["server.rejected"]
}

// prober times probe functions; after the first error it runs nothing
// more and the error is returned with the results.
type prober struct {
	err error
	div int // iteration counts are divided by this (the smoke test's toy scale)
}

// us runs fn n times and returns its median duration in µs.
func (p *prober) us(n int, fn func() error) float64 {
	n = max(n/p.div, 1)
	xs := make([]float64, 0, n)
	for i := 0; i < n && p.err == nil; i++ {
		t0 := time.Now()
		p.err = fn()
		xs = append(xs, float64(time.Since(t0))/1e3)
	}
	if p.err != nil {
		return 0
	}
	return median(xs)
}

// probes times the public functions of each layer on a quiescent
// system holding the run's final state, and on scratch objects built
// from the seed. Each entry is one per-layer metric; a layer the
// workload's configuration does not have (blockzip on the clustered
// layout) reports 0.
func (s *sut) probes(seed int64, m *model, scratch string, div int) (map[string]float64, error) {
	out := map[string]float64{}
	p := &prober{div: div}
	sys := s.sys
	sc := newScript(seed, 97, m)
	sample := map[opKind]op{}
	text := map[opKind]string{}
	for len(sample) < int(numKinds) {
		o := sc.next()
		sample[o.kind], text[o.kind] = o, s.prepare(o)
	}
	execStmt := func(q string) func() error {
		stmt, err := sqlengine.Parse(q)
		if err != nil {
			return func() error { return err }
		}
		return func() error { _, err := sys.Engine.ExecStmt(stmt); return err }
	}
	parseSQL := func(q string) func() error {
		return func() error { _, err := sqlengine.Parse(q); return err }
	}

	// sqlengine: parse, plan (EXPLAIN minus parse) and execution of the
	// pre-parsed statement, per class.
	var parse, plan []float64
	exec := map[opClass][]float64{}
	for k := opKind(0); k < numKinds; k++ {
		if k.isXQuery() {
			continue
		}
		q := text[k]
		t := p.us(200, parseSQL(q))
		parse = append(parse, t)
		ex := p.us(50, func() error { _, err := sys.Exec("explain " + q); return err })
		plan = append(plan, max(ex-t, 0))
		if sample[k].validAt != 0 {
			continue // bitemporal scope has no pre-parsed entry point
		}
		reps := 200
		if k.class() != classPoint {
			reps = 15
		}
		exec[k.class()] = append(exec[k.class()], p.us(reps, execStmt(q)))
	}
	out["sqlengine.parse_us"] = median(parse)
	out["sqlengine.plan_us"] = median(plan)
	out["sqlengine.exec_point_us"] = geomean(exec[classPoint])
	out["sqlengine.exec_scan_ms"] = geomean(exec[classScan]) / 1e3
	out["sqlengine.exec_join_ms"] = geomean(exec[classJoin]) / 1e3

	// Intra-query parallelism on q4: serial over GOMAXPROCS workers.
	saved := sys.Engine.Workers
	sys.Engine.Workers = 1
	serial := p.us(30, execStmt(text[q4]))
	sys.Engine.Workers = 0
	parallel := p.us(30, execStmt(text[q4]))
	sys.Engine.Workers = saved
	out["sqlengine.workers_speedup"] = ratio(serial, parallel)

	// core: entry overhead on the warm point query, the as-of read, and
	// the cost of the system's own tracer.
	q := text[q1]
	whole := p.us(500, func() error { _, err := sys.Exec(q); return err })
	out["core.exec_self_us"] = max(whole-p.us(500, parseSQL(q))-p.us(500, execStmt(q)), 0)
	lsn := s.lsn()
	out["core.read_as_of_us"] = p.us(500, func() error { _, err := sys.ReadAsOf(lsn, q); return err })
	plainX := p.us(300, func() error { _, err := sys.Query(text[x1]); return err })
	tracedX := p.us(300, func() error { _, _, err := sys.QueryTraced(text[x1]); return err })
	out["obs.traced_overhead_frac"] = ratio(tracedX-plainX, plainX)

	// translator, xquery, xmltree, temporal.
	out["translator.translate_us"] = median([]float64{
		p.us(200, func() error { _, err := sys.Translate(text[x1]); return err }),
		p.us(200, func() error { _, err := sys.Translate(text[x3]); return err }),
	})
	out["xquery.parse_us"] = p.us(200, func() error { _, err := xquery.ParseQuery(text[xf]); return err })
	out["xquery.eval_fallback_ms"] = p.us(100, func() error { _, err := sys.QueryXML(text[xf]); return err }) / 1e3
	var doc *archis.XMLNode
	out["htable.publish_hdoc_ms"] = p.us(30, func() (err error) { doc, err = sys.PublishHDoc("dept"); return }) / 1e3
	if doc != nil {
		n := len(archis.XMLString(doc))
		out["xmltree.serialize_mb_s"] = ratio(float64(n), p.us(100, func() error { _ = archis.XMLString(doc); return nil }))
	}
	rng := rand.New(rand.NewSource(seed))
	timed := make([]temporal.Timed, 4096)
	for i := range timed {
		lo := archis.Date(rng.Intn(6000))
		timed[i] = temporal.Timed{Value: fmt.Sprint(rng.Intn(40)), Interval: archis.Interval{Start: lo, End: lo.AddDays(rng.Intn(90))}}
	}
	out["temporal.coalesce_ns_per_interval"] = p.us(30, func() error { temporal.Coalesce(timed); return nil }) * 1e3 / float64(len(timed))

	// segment and blockzip: full drains of the salary store.
	day := int64(sample[q2].d1)
	dayBounds := []relstore.ZoneBound{{Col: 3, Op: "<=", Bound: day}, {Col: 4, Op: ">=", Bound: day}}
	sink := func(relstore.Row) bool { return true }
	if st, ok := sys.SegmentStore("employee_salary"); ok {
		out["segment.scan_ms"] = p.us(15, func() error { return st.Scan(nil, sink) }) / 1e3
		before := sys.Stats()
		out["segment.scan_pruned_ms"] = p.us(15, func() error { return st.Scan(dayBounds, sink) }) / 1e3
		d := sys.Stats().Stats.Sub(before.Stats)
		out["segment.pages_skipped_frac"] = ratio(float64(d.PagesSkipped), float64(d.PagesSkipped+d.BlockReads+d.CacheHits))
		out["segment.usefulness_end"] = st.Usefulness()
		n, err := st.SegmentCount()
		if err != nil {
			return nil, err
		}
		out["segment.count_end"] = float64(n)
		if ix := st.Table().IndexOn(1); ix != nil {
			key := []relstore.Value{relstore.Int(sample[q1].id)}
			out["relstore.index_lookup_us"] = p.us(2000, func() error { ix.Lookup(key); return nil })
		}
	}
	for _, name := range []string{"blockzip.scan_batches_ms", "blockzip.scan_batches_proj_ms", "blockzip.scan_rows_ms", "blockzip.stored_bytes"} {
		out[name] = 0
	}
	if cs, ok := sys.CompressedStore("employee_salary"); ok {
		drain := func(needed []bool) func() error {
			return func() error {
				s.dropCaches()
				fns, err := cs.ScanBatches(nil, needed)
				for i := 0; i < len(fns) && err == nil; i++ {
					_, err = fns[i](func(*relstore.ColBatch) bool { return true })
				}
				return err
			}
		}
		oneCol := make([]bool, len(cs.Schema().Columns))
		oneCol[2] = true
		out["blockzip.scan_batches_ms"] = p.us(15, drain(nil)) / 1e3
		out["blockzip.scan_batches_proj_ms"] = p.us(15, drain(oneCol)) / 1e3
		out["blockzip.scan_rows_ms"] = p.us(15, func() error { s.dropCaches(); return cs.Scan(nil, sink) }) / 1e3
		out["blockzip.stored_bytes"] = float64(cs.StorageBytes())
	}
	rows := make([]relstore.Row, (1<<16)/div)
	for i := range rows {
		t0 := archis.Date(rng.Intn(6000))
		rows[i] = relstore.Row{relstore.Int(int64(1 + i*8/len(rows))), relstore.Int(int64(firstEmployeeID + rng.Intn(2000))), relstore.Int(int64(40000 + rng.Intn(60000))),
			relstore.DateV(t0), relstore.DateV(t0.AddDays(rng.Intn(700))), relstore.DateV(t0), relstore.DateV(archis.Forever)}
	}
	rawBytes := float64(len(rows) * 7 * 8) // bytes per µs = MB/s
	var blocks []blockzip.Block
	out["blockzip.encode_mb_s"] = ratio(rawBytes, p.us(3, func() (err error) {
		blocks, err = blockzip.CompressColumnar(rows, blockzip.DefaultBlockSize)
		return
	}))
	var batch relstore.ColBatch
	out["blockzip.decode_mb_s"] = ratio(rawBytes, p.us(5, func() error {
		for _, b := range blocks {
			if err := blockzip.DecodeColumnarBatch(b.Data, nil, &batch); err != nil {
				return err
			}
		}
		return nil
	}))

	// relstore: a snapshot file of the whole database.
	snap := filepath.Join(scratch, "probe.snapshot")
	out["relstore.savefile_ms"] = p.us(5, func() error { return sys.DB.SaveFile(snap) }) / 1e3
	if fi, err := os.Stat(snap); err == nil {
		out["relstore.savefile_bytes"] = float64(fi.Size())
	}

	// wal: replay speed over the run's own log tail, then append and
	// commit on a scratch log with the run's median record size.
	var sizes []float64
	total := 0
	rangeUS := p.us(5, func() error {
		sizes, total = sizes[:0], 0
		return sys.WAL().Range(1, func(_ uint64, rec []byte) error {
			sizes = append(sizes, float64(len(rec)))
			total += len(rec)
			return nil
		})
	})
	out["wal.range_mb_s"] = ratio(float64(total), rangeUS)
	log, err := wal.Open(filepath.Join(scratch, "probe-wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, int(median(sizes)))
	out["wal.append_us"] = p.us(500, func() error { _, err := log.Append(payload); return err })
	out["wal.commit_us"] = p.us(200, func() error {
		lsn, err := log.Append(payload)
		if err != nil {
			return err
		}
		return log.Commit(lsn)
	})
	if err := log.Close(); err != nil {
		return nil, err
	}

	// htable: captured updates ingested below the statement path, on a
	// scratch non-durable system of the same layout.
	scr, err := archis.New(archis.Options{Layout: s.layout})
	if err != nil {
		return nil, err
	}
	if err := scr.Register(dataset.EmployeeSpec()); err != nil {
		return nil, err
	}
	scr.SetClock(m.start)
	row := func(id, salary int) relstore.Row {
		return relstore.Row{relstore.Int(int64(id)), relstore.String_(fmt.Sprintf("E%d", id)), relstore.Int(int64(salary)), relstore.String_("Engineer"), relstore.String_("d01")}
	}
	people := max(200/div, 10)
	for i := 1; i <= people && p.err == nil; i++ {
		_, p.err = scr.Exec(fmt.Sprintf(`insert into employee values (%d, 'E%d', 50000, 'Engineer', 'd01')`, i, i))
	}
	var ingest []float64
	for d := 1; d <= 5; d++ {
		scr.SetClock(m.start.AddDays(d))
		for i := 1; i <= people; i++ {
			o := htable.Op{Table: "employee", Type: sqlengine.ChangeUpdate, Old: row(i, 50000+d-1), New: row(i, 50000+d), At: m.start.AddDays(d)}
			ingest = append(ingest, p.us(p.div, func() error { return scr.Archive.Ingest(o) }))
		}
	}
	out["htable.ingest_us"] = median(ingest)

	// server: the handler driven without sockets, against the same
	// query in-process (above) and over a loopback connection.
	node, err := s.serve(false)
	if err != nil {
		return nil, err
	}
	defer node.stop()
	body, _ := json.Marshal(wireRequest{SQL: q})
	h := node.front.Handler()
	handler := p.us(500, func() error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			return fmt.Errorf("handler probe: status %d", w.Code)
		}
		return nil
	})
	rtt := p.us(500, func() error { _, err := node.read(sample[q1], q, 0); return err })
	out["server.handler_us"] = handler
	out["server.overhead_frac"] = ratio(handler-whole, whole)
	out["server.rtt_overhead_us"] = rtt - handler
	return out, p.err
}
