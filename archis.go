// Package archis is a transaction-time temporal database system built
// on an embedded relational engine, reproducing "Using XML to Build
// Efficient Transaction-Time Temporal Database Systems on Relational
// Databases" (Wang, Zhou, Zaniolo — TimeCenter TR-81 / ICDE 2006).
//
// ArchIS tracks every change to registered tables and exposes each
// table's full history as a temporally grouped XML view (an
// H-document) that can be queried with an XQuery subset, including the
// paper's temporal function library (tstart, tend, toverlaps,
// overlapinterval, coalesce, restructure, tavg, …). Queries are
// translated to SQL/XML over internal H-tables when possible and
// evaluated directly over the XML view otherwise. Attribute histories
// can be clustered into temporal segments by usefulness and compressed
// with block-granular zlib (BlockZIP) while remaining queryable.
//
// Quick start:
//
//	sys, _ := archis.New(archis.Options{Layout: archis.LayoutClustered})
//	sys.Register(archis.TableSpec{
//	    Name:    "employee",
//	    Columns: []archis.Column{archis.IntCol("id"), archis.StringCol("name"), archis.IntCol("salary")},
//	    Key:     []string{"id"},
//	})
//	ctx := context.Background()
//	sys.Do(ctx, `insert into employee values (1, 'Bob', 60000)`)
//	sys.SetClock(archis.MustDate("1995-06-01"))
//	sys.Do(ctx, `update employee set salary = 70000 where id = 1`)
//	res, _ := sys.Do(ctx, `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`)
//	fmt.Println(res.Items.Serialize())
//
// System.Do is the one statement entry point: SQL reads, SQL writes and
// XQuery alike, scoped by ExecOpt values (AsOfValidTime,
// AsOfTransactionTime, WithValidTime, Durable, ReadOnly, ViaXML,
// Traced). Exec, ExecDurable, ReadAsOf, Query and QueryXML are
// shorthands over it.
package archis

import (
	"archis/internal/core"
	"archis/internal/htable"
	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
	"archis/internal/wal"
	"archis/internal/xmltree"
)

// XMLNode is a node of an H-document (the XML view of a table's
// history) or of a query result.
type XMLNode = xmltree.Node

// PrettyXML renders a node with indentation.
func PrettyXML(n *XMLNode) string { return xmltree.Pretty(n) }

// XMLString renders a node compactly.
func XMLString(n *XMLNode) string { return xmltree.String(n) }

// System is the assembled ArchIS instance. Do runs every statement;
// the rest of the method set (Register, SetClock, Translate,
// CompressFrozen, PublishHDoc, Checkpoint, …) is in internal/core.
type System = core.System

// Options configure a System.
type Options = core.Options

// Layout selects the physical layout of attribute-history tables.
type Layout = core.Layout

// Physical layouts.
const (
	LayoutPlain      = core.LayoutPlain
	LayoutClustered  = core.LayoutClustered
	LayoutCompressed = core.LayoutCompressed
)

// ColumnarMode toggles columnar frozen blocks and vectorized
// execution on the compressed layout (DESIGN.md §13).
type ColumnarMode = core.ColumnarMode

// Columnar modes.
const (
	ColumnarOn  = core.ColumnarOn
	ColumnarOff = core.ColumnarOff
)

// Capture modes.
const (
	CaptureTrigger = htable.CaptureTrigger
	CaptureLog     = htable.CaptureLog
)

// ExecutionPath values for QueryResult.Path.
const (
	PathSQL = core.PathSQL
	PathXML = core.PathXML
)

// QueryResult is the unified result of a statement: Result for SQL,
// Items (and Path) for XQuery.
type QueryResult = core.QueryResult

// Result is a SQL statement result (rows, columns, rows affected).
type Result = sqlengine.Result

// ParallelResult is the outcome of one query in a System.RunParallel
// batch: ArchIS serves read-mostly archives, so batches of temporal
// queries (XQuery or SQL SELECT) can be fanned out across a worker
// pool while sharing one page cache and one set of H-tables.
//
//	results := sys.RunParallel([]string{q1, q2, q3}, 0) // 0 → GOMAXPROCS
//	for _, r := range results {
//	    if r.Err != nil { ... }
//	}
type ParallelResult = core.ParallelResult

// TableSpec declares a table to archive.
type TableSpec = htable.TableSpec

// Column describes one table attribute.
type Column = relstore.Column

// Date is a day-granularity timestamp.
type Date = temporal.Date

// Interval is an inclusive [start, end] time interval.
type Interval = temporal.Interval

// ExecOpt modifies one System.Do call (DESIGN.md §14, §16).
type ExecOpt = core.ExecOpt

// Durable makes a write return only once its log records are durable.
func Durable() ExecOpt { return core.Durable() }

// Traced records the statement's execution spans under sp.
func Traced(sp *obs.Span) ExecOpt { return core.Traced(sp) }

// ReadOnly rejects DML and DDL.
func ReadOnly() ExecOpt { return core.ReadOnly() }

// ViaXML evaluates an XQuery on the H-documents, skipping translation.
func ViaXML() ExecOpt { return core.ViaXML() }

// WithValidTime asserts the valid interval a mutation records
// (default [clock, Forever]).
func WithValidTime(iv Interval) ExecOpt { return core.WithValidTime(iv) }

// AsOfValidTime scopes a SELECT/EXPLAIN to versions valid at d.
func AsOfValidTime(d Date) ExecOpt { return core.AsOfValidTime(d) }

// AsOfTransactionTime scopes a SELECT/EXPLAIN to the retained MVCC
// version published at the given LSN.
func AsOfTransactionTime(lsn uint64) ExecOpt { return core.AsOfTransactionTime(lsn) }

// Forever is the internal encoding of "now" (9999-12-31).
var Forever = temporal.Forever

// New builds a System.
func New(opts Options) (*System, error) { return core.New(opts) }

// Open reconstructs a System from a file written by System.SaveFile —
// or, when path is the directory of a durable system (Options.WALDir),
// recovers it: the latest checkpoint snapshot is loaded and the
// write-ahead log tail replayed, tolerating a torn final record.
func Open(path string) (*System, error) { return core.Open(path) }

// RecoverOptions tune recovery of a durable directory: snapshot
// metadata supplies the defaults, non-zero fields win (a non-nil Sync
// changes the WAL commit policy of the reopened system).
type RecoverOptions = core.RecoverOptions

// Recover is Open for a durable directory with explicit overrides.
func Recover(dir string, opts RecoverOptions) (*System, error) {
	return core.RecoverWithOptions(dir, opts)
}

// SyncMode selects the WAL commit durability policy
// (Options.WALSync).
type SyncMode = wal.SyncMode

// WAL commit policies: every commit fsyncs (grouped), commits coalesce
// in a batch window, or durability waits for checkpoint/close.
const (
	SyncAlways = wal.SyncAlways
	SyncBatch  = wal.SyncBatch
	SyncNone   = wal.SyncNone
)

// Stats combines storage-engine and durability counters
// (System.Stats).
type Stats = core.Stats

// MustDate parses an ISO date ("2006-01-02"), panicking on bad input.
func MustDate(s string) Date { return temporal.MustParseDate(s) }

// ParseDate parses an ISO date.
func ParseDate(s string) (Date, error) { return temporal.ParseDate(s) }

// IntCol, FloatCol, StringCol and DateCol build column specs.
func IntCol(name string) Column    { return relstore.Col(name, relstore.TypeInt) }
func FloatCol(name string) Column  { return relstore.Col(name, relstore.TypeFloat) }
func StringCol(name string) Column { return relstore.Col(name, relstore.TypeString) }
func DateCol(name string) Column   { return relstore.Col(name, relstore.TypeDate) }
