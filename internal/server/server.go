// Package server is the network front end over a core.System: an
// HTTP/JSON API serving SQL, temporal XQuery, point-in-time reads and
// the observability surfaces, with connection admission (a bounded
// in-flight pool plus a bounded-wait queue) and per-query timeouts
// wired into the engine's cancellation probes so a cancelled query
// stops mid-scan, releases its pinned snapshot and frees its slot
// (DESIGN.md §15.1).
//
// Endpoints:
//
//	POST /query    {"sql", "as_of_lsn", "timeout_ms"} → rows (read-only)
//	POST /exec     {"sql", "timeout_ms"}              → rows (durable write path)
//	GET  /healthz                                     → role, LSNs, lag
//	GET  /metrics                                     → full metrics JSON
//
// /query also accepts GET with ?sql=&as_of_lsn= for interactive use.
// Statements route by first keyword: SELECT/EXPLAIN run on the SQL
// engine, DML/DDL through /query is rejected (use /exec), anything
// else is evaluated as a temporal XQuery over the H-views. On a
// follower every write is rejected with 403 by the system itself.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"archis/internal/core"
	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/repl"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// Config tunes admission control and timeouts.
type Config struct {
	// MaxInFlight caps concurrently executing queries (GOMAXPROCS if
	// zero).
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for a slot beyond
	// MaxInFlight (4×MaxInFlight if zero); requests past it get 503
	// immediately.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before 503 (1s if zero).
	QueueWait time.Duration
	// DefaultTimeout applies to queries that do not set timeout_ms
	// (0 = unbounded).
	DefaultTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	return c
}

// Server serves one System. Follower is non-nil when the system is a
// replica fed by that follower (healthz then reports its lag).
type Server struct {
	sys *core.System
	fol *repl.Follower
	cfg Config

	sem      chan struct{}
	queued   atomic.Int64
	rejected atomic.Int64 // queue full or queue wait exceeded

	hServe *obs.Histogram // server.query_ns: served-path latency
	hQueue *obs.Histogram // server.queue_wait_ns: time spent waiting for a slot
}

// New builds a Server and registers its admission metrics on the
// system's registry.
func New(sys *core.System, fol *repl.Follower, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys: sys,
		fol: fol,
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInFlight),
	}
	r := sys.Metrics()
	s.hServe = r.Histogram("server.query_ns")
	s.hQueue = r.Histogram("server.queue_wait_ns")
	r.GaugeFunc("server.in_flight", func() int64 { return int64(len(s.sem)) })
	r.GaugeFunc("server.queued", func() int64 { return s.queued.Load() })
	r.CounterFunc("server.rejected", func() int64 { return s.rejected.Load() })
	return s
}

// Attach registers the serving endpoints on mux.
func (s *Server) Attach(mux *http.ServeMux) {
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/exec", s.handleExec)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
}

// Handler returns a mux with the server's endpoints attached.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Attach(mux)
	return mux
}

// request is the /query and /exec body.
type request struct {
	SQL     string `json:"sql"`
	AsOfLSN uint64 `json:"as_of_lsn,omitempty"`
	// ValidAsOf ("yyyy-mm-dd") scopes a SELECT/EXPLAIN to versions
	// valid at that date; composes with as_of_lsn for bitemporal reads.
	ValidAsOf string `json:"valid_as_of,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// response carries a SQL result or an XQuery item sequence.
type response struct {
	Columns      []string `json:"columns,omitempty"`
	Rows         [][]any  `json:"rows,omitempty"`
	RowsAffected int      `json:"rows_affected,omitempty"`
	Items        []string `json:"items,omitempty"`
	Path         string   `json:"path,omitempty"`
	LSN          uint64   `json:"lsn"`
}

var (
	errQueueFull = errors.New("server: admission queue full")
	errQueueWait = errors.New("server: timed out waiting for an execution slot")
)

// admit acquires an execution slot: immediately when one is free,
// otherwise by waiting in the bounded queue up to QueueWait. The
// returned release must be called exactly once.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return nil, errQueueFull
	}
	defer s.queued.Add(-1)
	start := time.Now()
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.hQueue.Observe(time.Since(start))
		return func() { <-s.sem }, nil
	case <-t.C:
		s.rejected.Add(1)
		return nil, errQueueWait
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// parseRequest accepts a JSON POST body or GET query parameters.
func parseRequest(r *http.Request) (request, error) {
	var req request
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		req.SQL = q.Get("sql")
		if v, err := strconv.ParseUint(q.Get("as_of_lsn"), 10, 64); err == nil {
			req.AsOfLSN = v
		}
		req.ValidAsOf = q.Get("valid_as_of")
		if v, err := strconv.ParseInt(q.Get("timeout_ms"), 10, 64); err == nil {
			req.TimeoutMS = v
		}
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if req.SQL == "" {
		return req, errors.New("missing sql")
	}
	return req, nil
}

// queryCtx derives the statement context: the request's own context
// (cancelled on client disconnect) bounded by the requested or
// default timeout.
func (s *Server) queryCtx(r *http.Request, req request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	kw := core.FirstKeyword(req.SQL)
	var opts []core.ExecOpt
	if req.AsOfLSN > 0 && (kw == "select" || kw == "explain") {
		// Pin the version before queueing for a slot: the wait for one
		// cannot carry as_of_lsn past the retention horizon (DESIGN.md
		// §14.3).
		sn, err := s.sys.DB.SnapshotAt(req.AsOfLSN)
		if err != nil {
			writeErr(w, err)
			return
		}
		defer sn.Release()
		opts = append(opts, core.AtSnapshot(sn))
	}
	release, err := s.admit(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	ctx, cancel := s.queryCtx(r, req)
	defer cancel()

	start := time.Now()
	if req.ValidAsOf != "" {
		d, perr := temporal.ParseDate(req.ValidAsOf)
		if perr != nil {
			http.Error(w, "bad valid_as_of: "+perr.Error(), http.StatusBadRequest)
			return
		}
		opts = append(opts, core.AsOfValidTime(d))
	}
	var resp *response
	switch {
	case kw == "select" || kw == "explain":
		// Transaction-time and valid-time scoping both ride the option
		// list; AsOfLSN alone is the classic ReadAsOf path.
		var res *sqlengine.Result
		res, err = s.sys.ExecCtx(ctx, req.SQL, opts...)
		resp = sqlResponse(res)
	case req.AsOfLSN > 0:
		err = fmt.Errorf("server: as_of_lsn applies to SELECT/EXPLAIN only")
	case kw == "insert" || kw == "update" || kw == "delete" || kw == "create" || kw == "drop":
		err = fmt.Errorf("server: /query is read-only; send %s to /exec", kw)
	case req.ValidAsOf != "":
		// The XQuery path has its own valid-time library (vsnapshot,
		// vslice); a request-level date would silently not apply.
		err = fmt.Errorf("server: valid_as_of applies to SELECT/EXPLAIN; use vsnapshot()/vslice() in XQuery")
	default:
		// Temporal XQuery over the H-views.
		var qr *core.QueryResult
		qr, err = s.sys.QueryCtx(ctx, req.SQL)
		if err == nil {
			resp = &response{Path: string(qr.Path)}
			for _, it := range qr.Items {
				resp.Items = append(resp.Items, it.StringValue())
			}
		}
	}
	rows := 0
	if resp != nil {
		rows = len(resp.Rows) + len(resp.Items)
	}
	s.sys.ServeObserve(s.hServe, "served", req.SQL, time.Since(start), rows, err)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp.LSN = s.sys.AppliedLSN()
	writeJSON(w, resp)
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	req, err := parseRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	ctx, cancel := s.queryCtx(r, req)
	defer cancel()

	start := time.Now()
	res, err := s.sys.ExecDurableCtx(ctx, req.SQL)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	s.sys.ServeObserve(s.hServe, "served", req.SQL, time.Since(start), rows, err)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := sqlResponse(res)
	resp.LSN = s.sys.AppliedLSN()
	writeJSON(w, resp)
}

// health is the /healthz body.
type health struct {
	Status     string  `json:"status"`
	Role       string  `json:"role"`
	AppliedLSN uint64  `json:"applied_lsn"`
	DurableLSN uint64  `json:"durable_lsn"`
	LagLSNs    uint64  `json:"lag_lsns"`
	LagSeconds float64 `json:"lag_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := health{Status: "ok", Role: "primary"}
	h.AppliedLSN = s.sys.AppliedLSN()
	h.DurableLSN = s.sys.WALStats().DurableLSN
	if s.sys.Replica() {
		h.Role = "follower"
	}
	if s.fol != nil {
		lsns, behind := s.fol.Lag()
		h.LagLSNs = lsns
		h.LagSeconds = behind.Seconds()
		if err := s.fol.Err(); err != nil {
			h.Status = "replication stopped: " + err.Error()
		}
	}
	writeJSON(w, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.sys.MetricsJSON())
}

// sqlResponse converts an engine result to the wire shape.
func sqlResponse(res *sqlengine.Result) *response {
	if res == nil {
		return &response{}
	}
	out := &response{Columns: res.Columns, RowsAffected: res.RowsAffected}
	out.Rows = make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = renderValue(v)
		}
		out.Rows[i] = vals
	}
	return out
}

// renderValue maps a storage value to its JSON form: numbers stay
// numbers, booleans stay booleans, NULL is null, and dates, strings,
// bytes and XML fragments serialize through their text form.
func renderValue(v relstore.Value) any {
	switch v.Kind {
	case relstore.TypeNull:
		return nil
	case relstore.TypeInt:
		return v.I
	case relstore.TypeFloat:
		return v.F
	case relstore.TypeBool:
		return v.AsBool()
	default:
		return v.Text()
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeErr maps an execution error to a status: read-only rejections
// are 403, admission pressure 503, timeouts 504, everything else 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, core.ErrReadOnly):
		code = http.StatusForbidden
	case errors.Is(err, relstore.ErrHorizonPassed):
		code = http.StatusGone
	case errors.Is(err, errQueueFull) || errors.Is(err, errQueueWait):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}
