package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
	"archis/internal/translator"
	"archis/internal/xquery"
)

// The statement surface (DESIGN.md §14, §16): Do runs every statement
// the system accepts — SQL reads, SQL writes and temporal XQuery over
// the H-views — and ExecOpt values scope it. The remaining methods
// below are one-line conveniences over Do.

// ExecutionPath reports which engine answered a query.
type ExecutionPath string

const (
	PathSQL ExecutionPath = "sql/xml" // translated, ran on H-tables
	PathXML ExecutionPath = "xml"     // evaluated on the H-view
)

// QueryResult is the unified result of a statement. A SQL statement
// fills Result only; an XQuery fills Items, Path and (when translated)
// SQL.
type QueryResult struct {
	Items  xquery.Seq
	Path   ExecutionPath
	SQL    string            // the translation, when Path == PathSQL
	Result *sqlengine.Result // a SQL statement's rows
}

// ExecOpt modifies one Do call (and the wrappers over it).
type ExecOpt func(*execOptions)

type execOptions struct {
	valid     *temporal.Interval // write: assert this valid interval
	validAsOf *temporal.Date     // read: valid-time point predicate
	asOfLSN   *uint64            // read: transaction-time snapshot
	asOf      *relstore.Snapshot // read: a transaction-time version the caller pinned
	sp        *obs.Span          // trace under this span
	durable   bool               // write: wait for the WAL commit
	readOnly  bool               // reject writes
	viaXML    bool               // XQuery: skip translation
	sqlOnly   bool               // reject XQuery (the SQL-only wrappers)
}

var (
	durableOpt  ExecOpt = func(o *execOptions) { o.durable = true }
	readOnlyOpt ExecOpt = func(o *execOptions) { o.readOnly = true }
	viaXMLOpt   ExecOpt = func(o *execOptions) { o.viaXML = true }
	sqlOnlyOpt  ExecOpt = func(o *execOptions) { o.sqlOnly = true }
)

// Durable makes a write return only after its log records are durable
// under the configured sync policy. Writers serialize on the write
// lock but their final fsyncs overlap, so concurrent committers
// coalesce into shared fsyncs. No effect on reads or on a system
// without a WAL; rejected on XQuery.
func Durable() ExecOpt { return durableOpt }

// Traced records the statement's execution spans (parse, translate,
// per-operator SQL execution or XQuery evaluation) as children of sp.
func Traced(sp *obs.Span) ExecOpt {
	return func(o *execOptions) { o.sp = sp }
}

// ReadOnly rejects DML and DDL: the statement must be a SELECT,
// EXPLAIN or XQuery.
func ReadOnly() ExecOpt { return readOnlyOpt }

// ViaXML evaluates the statement as an XQuery directly over the
// published H-documents, skipping translation to SQL/XML.
func ViaXML() ExecOpt { return viaXMLOpt }

// ErrWriteStatement marks DML or DDL that ReadOnly() rejected; front
// ends match it with errors.Is to point the caller at a write path.
var ErrWriteStatement = errors.New("read-only execution")

// stmtClass is what Do does with a statement.
type stmtClass uint8

const (
	classRead   stmtClass = iota // SELECT, EXPLAIN: lock-free on a pinned snapshot
	classWrite                   // DML, DDL: under the write lock, then publish
	classXQuery                  // temporal XQuery over the H-views
)

// resolveExecOpts folds the option list, classifies the statement by
// its first keyword kw (ViaXML forces the XQuery class) and validates
// the combination against the class.
func resolveExecOpts(opts []ExecOpt, kw string) (execOptions, stmtClass, error) {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	class := classXQuery
	switch {
	case o.viaXML:
	case kw == "select" || kw == "explain":
		class = classRead
	case kw == "insert" || kw == "update" || kw == "delete" || kw == "create" || kw == "drop":
		class = classWrite
	}
	asOf := o.validAsOf != nil || o.asOfLSN != nil || o.asOf != nil
	switch {
	case class == classWrite && o.readOnly:
		return o, class, fmt.Errorf("core: %w; %s requires exclusive access", ErrWriteStatement, strings.ToUpper(kw))
	case class == classWrite && asOf:
		return o, class, fmt.Errorf("core: AsOfValidTime/AsOfTransactionTime/AtSnapshot apply to SELECT/EXPLAIN only")
	case class == classXQuery && o.sqlOnly:
		return o, class, fmt.Errorf("core: not a SQL statement; use Query or Do for XQuery")
	case class == classRead && o.valid != nil:
		return o, class, fmt.Errorf("core: WithValidTime applies to mutations; use AsOfValidTime to query")
	case class == classXQuery && o.validAsOf != nil:
		// The XQuery library has its own valid-time functions; a
		// statement-level date would silently not apply.
		return o, class, fmt.Errorf("core: AsOfValidTime applies to SELECT/EXPLAIN; use vsnapshot()/vslice() in XQuery")
	case class == classXQuery && (asOf || o.valid != nil || o.durable):
		return o, class, fmt.Errorf("core: AsOfTransactionTime, AtSnapshot, WithValidTime and Durable apply to SQL statements only")
	case o.valid != nil && !o.valid.Valid():
		return o, class, fmt.Errorf("core: WithValidTime: empty interval %s", *o.valid)
	}
	return o, class, nil
}

// Do runs one statement, the system's single entry point. The text is
// classified by its first keyword: SELECT and EXPLAIN run lock-free on
// a pinned snapshot of the latest published version (or the retained
// one AsOfTransactionTime/AtSnapshot names), so they never block on and
// are never blocked by a writer; INSERT, UPDATE, DELETE, CREATE and
// DROP take the write lock and publish a new version on completion;
// anything else is a temporal XQuery over the H-views, translated to
// SQL/XML when the shape is supported and evaluated on the published
// H-documents otherwise (the paper's bypass for restructuring and
// quantified queries). Reads honor ctx mid-scan; a mutation checks ctx
// once before it starts and always finishes once started (there is no
// rollback below this layer); the XML bypass checks ctx once before
// evaluation. Latency lands in the path's histogram (query.sql_ns,
// query.sqlxml_ns, query.xml_ns) and, past Options.SlowQueryThreshold,
// in the slow-query log. A failed translated XQuery still returns its
// Path and SQL beside the error; other failures return no result.
func (s *System) Do(ctx context.Context, stmt string, opts ...ExecOpt) (*QueryResult, error) {
	start := time.Now()
	o, class, err := resolveExecOpts(opts, firstKeyword(stmt))
	if err != nil {
		return nil, err
	}
	if class == classWrite && s.readOnly != "" {
		return nil, s.readOnlyErr()
	}
	var qr *QueryResult
	h, path := s.qhSQL, "sql"
	switch class {
	case classRead:
		qr, err = s.doRead(ctx, stmt, o)
	case classWrite:
		qr, err = s.doWrite(ctx, stmt, o)
	default:
		qr, err = s.doXQuery(ctx, stmt, o)
		h, path = s.qhXML, "xml"
		if qr != nil && qr.Path == PathSQL {
			h, path = s.qhTrans, "sql/xml"
		}
	}
	s.observeQuery(h, path, stmt, time.Since(start), qr.rows(), err)
	return qr, err
}

// rows counts the answer: SQL rows for a SQL statement, items for an
// XQuery, 0 for no result.
func (qr *QueryResult) rows() int {
	switch {
	case qr == nil:
		return 0
	case qr.Result != nil:
		return len(qr.Result.Rows)
	}
	return len(qr.Items)
}

// doRead runs a SELECT/EXPLAIN: a transaction-time option pins a
// retained version, a valid-time option rides the context into the
// scan layer.
func (s *System) doRead(ctx context.Context, stmt string, o execOptions) (*QueryResult, error) {
	ctx = o.readCtx(ctx)
	sn := o.asOf
	if sn == nil && o.asOfLSN != nil {
		var err error
		if sn, err = s.DB.SnapshotAt(*o.asOfLSN); err != nil {
			return nil, err
		}
		defer sn.Release()
	}
	res, err := s.Engine.Run(ctx, stmt, o.sp, sn)
	return sqlQueryResult(res), err
}

// doWrite runs DML/DDL under the write lock and publishes the result
// stamped with the statement's final WAL position: the version becomes
// visible to lock-free readers exactly once, whole, and ReadAsOf(lsn)
// later resolves to it. Visibility precedes durability (the Commit
// below) — an acked durable statement is always durable, an unacked
// one may be visible, which the crash matrix pins as "acked-or-later
// prefix".
func (s *System) doWrite(ctx context.Context, stmt string, o execOptions) (*QueryResult, error) {
	s.writeMu.Lock()
	res, err := s.withPendingValid(o, func() (*sqlengine.Result, error) {
		return s.Engine.Run(ctx, stmt, o.sp, nil)
	})
	// Publish even on error: a failed statement may have applied
	// partial effects (no rollback below this layer), and live reads
	// always saw them — snapshot reads must converge too.
	lsn := s.publishLocked()
	s.writeMu.Unlock()
	if err == nil && o.durable && lsn > 0 {
		if err = s.wal.Commit(lsn); err != nil {
			err = fmt.Errorf("core: statement executed but not durable: %w", err)
		}
	}
	return sqlQueryResult(res), err
}

// doXQuery answers a temporal XQuery. The translated path pins one
// snapshot across translate and execute, so the executed SQL reads
// exactly the version the query started on. Translation itself
// consults the live segment directories (ViewInfo.SegmentsFor under
// the store lock); segments are append-only and their boundaries
// immutable once frozen, so the live-computed segno window only widens
// relative to the pinned version's — the rewrite stays sound, never
// excluding a visible row.
func (s *System) doXQuery(ctx context.Context, query string, o execOptions) (*QueryResult, error) {
	if !o.viaXML {
		qr, err := s.translated(ctx, query, o.sp)
		if qr != nil || !errors.Is(err, translator.ErrUnsupported) {
			return qr, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: query cancelled: %w", context.Cause(ctx))
	}
	ev := xquery.NewEvaluator(s.resolveDoc)
	ev.Now = s.Clock()
	ev.Trace = o.sp
	seq, err := ev.Eval(query)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Items: seq, Path: PathXML}, nil
}

// translated runs the SQL/XML translation of query; an error wrapping
// translator.ErrUnsupported sends the caller to the XML bypass. When
// the translated SQL fails, the error comes with a result that names
// the path and the SQL, so the failure is logged under sql/xml.
func (s *System) translated(ctx context.Context, query string, sp *obs.Span) (*QueryResult, error) {
	sn := s.DB.Snapshot()
	defer sn.Release()
	sql, err := s.translator.TranslateTraced(query, sp)
	if err != nil {
		return nil, err
	}
	qr := &QueryResult{Path: PathSQL, SQL: sql}
	res, err := s.Engine.Run(ctx, sql, sp, sn)
	if err != nil {
		return qr, fmt.Errorf("core: translated query failed: %w\nsql: %s", err, sql)
	}
	qr.Items = rowsToSeq(res)
	return qr, nil
}

func sqlQueryResult(res *sqlengine.Result) *QueryResult {
	if res == nil {
		return nil
	}
	return &QueryResult{Result: res}
}

// sqlResult unwraps Do's answer for the SQL-only wrappers, which pass
// sqlOnlyOpt so an XQuery is rejected before it runs.
func sqlResult(qr *QueryResult, err error) (*sqlengine.Result, error) {
	if qr == nil {
		return nil, err
	}
	return qr.Result, err
}

// items unwraps Do's answer for QueryXML.
func items(qr *QueryResult, err error) (xquery.Seq, error) {
	if qr == nil {
		return nil, err
	}
	return qr.Items, err
}

// Exec is Do for a SQL statement without a context; bitemporal options
// (bitemporal.go) scope it. XQuery text is rejected before it runs.
func (s *System) Exec(sql string, opts ...ExecOpt) (*sqlengine.Result, error) {
	return sqlResult(s.Do(context.TODO(), sql, append(opts[:len(opts):len(opts)], sqlOnlyOpt)...))
}

// ExecDurable is Exec under Durable().
func (s *System) ExecDurable(sql string, opts ...ExecOpt) (*sqlengine.Result, error) {
	return sqlResult(s.Do(context.TODO(), sql, append(opts[:len(opts):len(opts)], sqlOnlyOpt, Durable())...))
}

// ReadAsOf runs one read-only SQL statement against the newest
// retained version whose publish LSN is at or below lsn — the
// point-in-time query primitive. It errors when lsn predates the
// retention horizon (the storage layer keeps a bounded ring of
// versions).
func (s *System) ReadAsOf(lsn uint64, sql string) (*sqlengine.Result, error) {
	return sqlResult(s.Do(context.TODO(), sql, AsOfTransactionTime(lsn), ReadOnly(), sqlOnlyOpt))
}

// Query is Do for a read-only statement without a context.
func (s *System) Query(query string) (*QueryResult, error) {
	return s.Do(context.TODO(), query, ReadOnly())
}

// QueryXML evaluates a query directly over the published H-documents.
func (s *System) QueryXML(query string) (xquery.Seq, error) {
	return items(s.Do(context.TODO(), query, ViaXML()))
}

// QueryTraced is Query under a fresh tracer: the returned QueryTrace
// holds the full span tree — translation, per-operator SQL execution
// or XQuery evaluation — plus the query's storage-counter deltas as
// attributes on the root span. The deltas come from global counters,
// so concurrent queries bleed into each other's attribution; trace
// serially when exact per-query numbers matter.
func (s *System) QueryTraced(query string) (*QueryResult, *obs.QueryTrace, error) {
	tr := obs.NewTracer("query")
	root := tr.Root()
	prev := s.DB.Stats()
	res, err := s.Do(context.TODO(), query, ReadOnly(), Traced(root))
	d := s.DB.Stats().Sub(prev)
	root.SetInt("block_reads", d.BlockReads)
	root.SetInt("bytes_read", d.BytesRead)
	root.SetInt("cache_hits", d.CacheHits)
	root.SetInt("pages_skipped", d.PagesSkipped)
	root.SetInt("block_cache_hits", d.BlockCacheHits)
	root.SetInt("block_cache_misses", d.BlockCacheMisses)
	if res != nil {
		root.SetAttr("path", string(res.Path))
		root.AddRows(0, int64(res.rows()))
	}
	return res, tr.Finish(query), err
}

// ParallelResult is the outcome of one query in a RunParallel batch.
type ParallelResult struct {
	Query  string
	Result *QueryResult
	Err    error
}

// RunParallel executes a batch of read-only statements (XQuery, SELECT
// or EXPLAIN) concurrently over a worker pool and returns the outcomes
// in input order; workers <= 0 uses GOMAXPROCS. DML and DDL are
// rejected: writers require exclusive access to the system (see the
// concurrency model in DESIGN.md), so they must not ride in a parallel
// batch.
func (s *System) RunParallel(queries []string, workers int) []ParallelResult {
	out := make([]ParallelResult, len(queries))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				res, err := s.Do(context.TODO(), queries[i], ReadOnly())
				out[i] = ParallelResult{Query: queries[i], Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// firstKeyword returns the first SQL keyword of q in lower case,
// skipping leading whitespace, parentheses and SQL comments (`-- …`
// to end of line, `/* … */`), so Do classifies statements like
// `(select …)` or `-- note\nselect …` correctly instead of falling
// through to the XQuery path.
func firstKeyword(q string) string {
	i := 0
	for i < len(q) {
		c := q[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(':
			i++
		case strings.HasPrefix(q[i:], "--"):
			nl := strings.IndexByte(q[i:], '\n')
			if nl < 0 {
				return ""
			}
			i += nl + 1
		case strings.HasPrefix(q[i:], "/*"):
			end := strings.Index(q[i+2:], "*/")
			if end < 0 {
				return ""
			}
			i += 2 + end + 2
		default:
			j := i
			for j < len(q) && (q[j] == '_' ||
				('a' <= q[j] && q[j] <= 'z') || ('A' <= q[j] && q[j] <= 'Z')) {
				j++
			}
			return strings.ToLower(q[i:j])
		}
	}
	return ""
}

// rowsToSeq flattens a translated query's SQL/XML result into an
// XQuery sequence.
func rowsToSeq(res *sqlengine.Result) xquery.Seq {
	var out xquery.Seq
	for _, row := range res.Rows {
		for _, v := range row {
			switch v.Kind {
			case relstore.TypeXML:
				if v.X != nil {
					out = append(out, xquery.NodeItem(v.X))
				}
			case relstore.TypeNull:
				// skip
			case relstore.TypeInt:
				out = append(out, xquery.NumberItem(float64(v.I)))
			case relstore.TypeFloat:
				out = append(out, xquery.NumberItem(v.F))
			case relstore.TypeDate:
				out = append(out, xquery.DateItem(v.Date()))
			case relstore.TypeBool:
				out = append(out, xquery.BoolItem(v.Truth))
			default:
				out = append(out, xquery.StringItem(v.Text()))
			}
		}
	}
	return out
}
