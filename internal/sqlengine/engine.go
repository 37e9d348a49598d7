package sqlengine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/temporal"
)

// VirtualTable is a read-only table-valued source; ArchIS registers
// BlockZIP-compressed attribute tables as virtual tables so translated
// queries run unchanged against compressed storage.
//
// Its rows are read through relstore.MorselSource, the engine's one
// row-read interface: bounds are page/block pruning hints in the form
// of relstore zone bounds (the implementation may ignore them), and
// the executor runs the morsels with borrow=true, so rows may alias
// the implementation's internal (immutable) storage and callers must
// not mutate them or their cells. A serial read is the morsels drained
// in order by one worker.
type VirtualTable interface {
	Schema() relstore.Schema
	relstore.MorselSource
}

// ChangeType labels a DML trigger event.
type ChangeType uint8

const (
	ChangeInsert ChangeType = iota
	ChangeUpdate
	ChangeDelete
)

func (c ChangeType) String() string {
	switch c {
	case ChangeInsert:
		return "INSERT"
	case ChangeUpdate:
		return "UPDATE"
	default:
		return "DELETE"
	}
}

// TriggerEvent describes one row-level change.
type TriggerEvent struct {
	Type  ChangeType
	Table string
	Old   relstore.Row // nil for INSERT
	New   relstore.Row // nil for DELETE
}

// Trigger is a row-level after-trigger. This is how ArchIS-DB2-style
// change capture archives current-database updates into H-tables.
type Trigger func(ev TriggerEvent) error

// Engine executes SQL against a relstore database.
type Engine struct {
	DB *relstore.Database

	// now is the engine clock at day granularity — the value of
	// CURRENT_DATE and the instantiation of "now" (Section 4.3).
	// Atomic because snapshot readers evaluate CURRENT_DATE/TSPAN/RTEND
	// while a writer (log replay, ingest) moves the clock.
	now atomic.Int64

	// Workers caps intra-query morsel parallelism: the reads that
	// fanWorkers lets fan out use up to this many workers. 0 means
	// GOMAXPROCS; 1 drains every read with one worker; values < 0
	// are treated as 1. Writers stay exclusive regardless — only read
	// paths fan out.
	Workers int

	// Columnar enables the vectorized single-table path over storage
	// that streams column batches (DESIGN.md §13; New sets it). False
	// falls back to the row-at-a-time executor on the same storage —
	// kept for columnar-on/off differential testing; results are
	// identical either way.
	Columnar bool

	scalarFuncs map[string]ScalarFunc
	aggFuncs    map[string]AggFunc
	virtMu      sync.RWMutex
	virtual     map[string]VirtualTable
	triggers    map[string][]Trigger
}

// Now returns the engine clock (CURRENT_DATE).
func (en *Engine) Now() temporal.Date { return temporal.Date(en.now.Load()) }

// SetNow moves the engine clock.
func (en *Engine) SetNow(d temporal.Date) { en.now.Store(int64(d)) }

// scanWorkers resolves the configured Workers value to an effective
// worker count.
func (en *Engine) scanWorkers() int {
	switch {
	case en.Workers == 0:
		return runtime.GOMAXPROCS(0)
	case en.Workers < 1:
		return 1
	}
	return en.Workers
}

// New creates an engine over db with the built-in function library.
func New(db *relstore.Database) *Engine {
	en := &Engine{
		DB:          db,
		Columnar:    true,
		scalarFuncs: map[string]ScalarFunc{},
		aggFuncs:    map[string]AggFunc{},
		virtual:     map[string]VirtualTable{},
		triggers:    map[string][]Trigger{},
	}
	en.SetNow(temporal.FromTime(time.Now()))
	en.registerBuiltins()
	return en
}

// RegisterVirtual exposes a virtual table under the given name.
func (en *Engine) RegisterVirtual(name string, vt VirtualTable) {
	en.virtMu.Lock()
	en.virtual[strings.ToLower(name)] = vt
	en.virtMu.Unlock()
}

// UnregisterVirtual removes a virtual table.
func (en *Engine) UnregisterVirtual(name string) {
	en.virtMu.Lock()
	delete(en.virtual, strings.ToLower(name))
	en.virtMu.Unlock()
}

// lookupVirtual resolves a registered virtual table under the read
// lock (registration happens on the writer while readers plan).
func (en *Engine) lookupVirtual(name string) (VirtualTable, bool) {
	en.virtMu.RLock()
	vt, ok := en.virtual[strings.ToLower(name)]
	en.virtMu.RUnlock()
	return vt, ok
}

// AddTrigger attaches a row-level after-trigger to a table.
func (en *Engine) AddTrigger(table string, tr Trigger) {
	key := strings.ToLower(table)
	en.triggers[key] = append(en.triggers[key], tr)
}

// DropTriggers removes all triggers from a table.
func (en *Engine) DropTriggers(table string) {
	delete(en.triggers, strings.ToLower(table))
}

func (en *Engine) fire(ev TriggerEvent) error {
	for _, tr := range en.triggers[strings.ToLower(ev.Table)] {
		if err := tr(ev); err != nil {
			return fmt.Errorf("sql: trigger on %s: %w", ev.Table, err)
		}
	}
	return nil
}

// Result is the outcome of a statement.
type Result struct {
	Columns      []string
	Rows         []relstore.Row
	RowsAffected int
}

// Exec parses and executes one SQL statement.
func (en *Engine) Exec(sql string) (*Result, error) {
	return en.Run(context.TODO(), sql, nil, nil)
}

// MustExec is Exec for statements that must succeed (setup code).
func (en *Engine) MustExec(sql string) *Result {
	res, err := en.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

// ExecStmt executes a parsed statement.
func (en *Engine) ExecStmt(stmt Statement) (*Result, error) {
	return en.run(context.TODO(), stmt, nil, nil)
}

// Run parses and executes one SQL statement: the engine's one entry
// point with every knob. Execution-stage spans are recorded as
// children of sp (nil disables tracing at the cost of one pointer
// check per hook, the DESIGN.md §11 contract). SELECT and EXPLAIN run
// against sn, a snapshot the caller pinned and releases (nil pins the
// current version for the statement), so they never block on, or
// observe a torn write from, a concurrent writer; they poll ctx at row
// granularity in every drain loop and return a wrapped ctx error
// promptly when it fires. DML and DDL always target the live tables
// and are not interruptible once started (cancelling mid-mutation
// would leave partial state), so ctx is checked once before they run.
func (en *Engine) Run(ctx context.Context, sql string, sp *obs.Span, sn *relstore.Snapshot) (*Result, error) {
	ps := sp.Child("parse")
	stmt, err := Parse(sql)
	ps.End()
	if err != nil {
		return nil, err
	}
	return en.run(ctx, stmt, sp, sn)
}

// snapshotFor resolves the snapshot a read statement runs under: the
// caller-supplied one (kept alive by the caller) or a freshly pinned
// current version released when the statement finishes.
func (en *Engine) snapshotFor(sn *relstore.Snapshot) (*relstore.Snapshot, func()) {
	if sn != nil {
		return sn, func() {}
	}
	own := en.DB.Snapshot()
	return own, own.Release
}

// run executes a parsed statement under Run's contract.
func (en *Engine) run(ctx context.Context, stmt Statement, sp *obs.Span, sn *relstore.Snapshot) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		sn, release := en.snapshotFor(sn)
		defer release()
		return en.execSelect(ctx, s, sp, sn, planned)
	case *ExplainStmt:
		sn, release := en.snapshotFor(sn)
		defer release()
		return en.execExplain(ctx, s, sn)
	}
	// Mutations are not interruptible mid-statement; honor a context
	// that fired before the statement started.
	if cc := newCancelProbe(ctx); cc.check() {
		return nil, cc.err()
	}
	switch s := stmt.(type) {
	case *InsertStmt:
		return en.execInsert(s)
	case *UpdateStmt:
		return en.execUpdate(s)
	case *DeleteStmt:
		return en.execDelete(s)
	case *CreateTableStmt:
		if _, err := en.DB.CreateTable(relstore.NewSchema(s.Name, s.Columns...)); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		if _, err := en.DB.CreateIndex(s.Name, s.Table, s.Columns...); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropTableStmt:
		if err := en.DB.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

// coerce converts v to the column type where a safe conversion exists.
func coerce(v relstore.Value, t relstore.Type) (relstore.Value, error) {
	if v.IsNull() || v.Kind == t {
		return v, nil
	}
	switch t {
	case relstore.TypeDate:
		d, err := argDate("coerce", v)
		if err != nil {
			return relstore.Null, err
		}
		return relstore.DateV(d), nil
	case relstore.TypeInt:
		n, ok := v.AsInt()
		if !ok {
			return relstore.Null, fmt.Errorf("sql: cannot convert %s to INT", v.Kind)
		}
		return relstore.Int(n), nil
	case relstore.TypeFloat:
		f, ok := v.AsFloat()
		if !ok {
			return relstore.Null, fmt.Errorf("sql: cannot convert %s to FLOAT", v.Kind)
		}
		return relstore.Float(f), nil
	case relstore.TypeString:
		return relstore.String_(v.Text()), nil
	case relstore.TypeBool:
		return relstore.Bool(v.AsBool()), nil
	}
	return relstore.Null, fmt.Errorf("sql: cannot convert %s to %s", v.Kind, t)
}

func (en *Engine) execInsert(s *InsertStmt) (*Result, error) {
	tbl, err := en.DB.MustTable(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	colPos := make([]int, 0, len(schema.Columns))
	if len(s.Columns) == 0 {
		for i := range schema.Columns {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range s.Columns {
			pos := schema.ColumnIndex(c)
			if pos < 0 {
				return nil, fmt.Errorf("sql: table %s has no column %s", s.Table, c)
			}
			colPos = append(colPos, pos)
		}
	}
	empty := &rowLayout{}
	n := 0
	for _, exprs := range s.Rows {
		if len(exprs) != len(colPos) {
			return nil, fmt.Errorf("sql: INSERT row has %d values, expected %d", len(exprs), len(colPos))
		}
		row := make(relstore.Row, len(schema.Columns))
		for i := range row {
			row[i] = relstore.Null
		}
		for i, e := range exprs {
			fn, err := en.compileExpr(e, empty)
			if err != nil {
				return nil, err
			}
			v, err := fn(nil)
			if err != nil {
				return nil, err
			}
			if row[colPos[i]], err = coerce(v, schema.Columns[colPos[i]].Type); err != nil {
				return nil, err
			}
		}
		if err := en.InsertRow(s.Table, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{RowsAffected: n}, nil
}

// InsertRow inserts a pre-built row and fires triggers.
func (en *Engine) InsertRow(table string, row relstore.Row) error {
	tbl, err := en.DB.MustTable(table)
	if err != nil {
		return err
	}
	if _, err := tbl.Insert(row); err != nil {
		return err
	}
	return en.fire(TriggerEvent{Type: ChangeInsert, Table: tbl.Name(), New: row})
}

func (en *Engine) execUpdate(s *UpdateStmt) (*Result, error) {
	tbl, err := en.DB.MustTable(s.Table)
	if err != nil {
		return nil, err
	}
	layout := layoutFor(s.Table, tbl.Schema())
	type setOp struct {
		pos int
		fn  evalFunc
	}
	sets := make([]setOp, len(s.Set))
	for i, a := range s.Set {
		pos := tbl.Schema().ColumnIndex(a.Column)
		if pos < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %s", s.Table, a.Column)
		}
		fn, err := en.compileExpr(a.Expr, layout)
		if err != nil {
			return nil, err
		}
		sets[i] = setOp{pos: pos, fn: fn}
	}
	// Materialize targets first: mutating while scanning would skew
	// the scan.
	targets, err := en.findTargets(tbl, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		newRow := tg.old.Clone()
		for _, op := range sets {
			v, err := op.fn(tg.old)
			if err != nil {
				return nil, err
			}
			if newRow[op.pos], err = coerce(v, tbl.Schema().Columns[op.pos].Type); err != nil {
				return nil, err
			}
		}
		if err := tbl.Update(tg.rid, newRow); err != nil {
			return nil, err
		}
		if err := en.fire(TriggerEvent{Type: ChangeUpdate, Table: tbl.Name(), Old: tg.old, New: newRow}); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(targets)}, nil
}

func (en *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	tbl, err := en.DB.MustTable(s.Table)
	if err != nil {
		return nil, err
	}
	targets, err := en.findTargets(tbl, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		if err := tbl.Delete(tg.rid); err != nil {
			return nil, err
		}
		if err := en.fire(TriggerEvent{Type: ChangeDelete, Table: tbl.Name(), Old: tg.old}); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(targets)}, nil
}

// dmlTarget is one row selected for UPDATE/DELETE.
type dmlTarget struct {
	rid relstore.RID
	old relstore.Row
}

// findTargets locates the rows matching a DML WHERE clause through the
// planner's access path (planScan): an eq-index probe or a zone-pruned
// scan, then the full WHERE filter.
func (en *Engine) findTargets(tbl *relstore.Table, alias string, where Expr) ([]dmlTarget, error) {
	src := &source{alias: alias, schema: tbl.Schema(), base: tbl}
	var conjuncts []Expr
	if where != nil {
		conjuncts = splitAnd(where, nil)
	}
	p, err := en.planScan(src, conjuncts, []*source{src})
	if err != nil {
		return nil, err
	}
	var targets []dmlTarget
	keep := func(rid relstore.RID, row relstore.Row) error {
		if p.filter != nil {
			if v, err := p.filter(row); err != nil || !v.AsBool() {
				return err
			}
		}
		targets = append(targets, dmlTarget{rid, row.Clone()})
		return nil
	}
	if p.eqIndex != nil {
		for _, rid := range p.eqIndex.Lookup([]relstore.Value{p.eqVal}) {
			row, live, err := tbl.GetBorrow(rid)
			if err == nil && live {
				err = keep(rid, row)
			}
			if err != nil {
				return nil, err
			}
		}
		return targets, nil
	}
	var keepErr error
	err = tbl.ScanBorrow(p.bounds, func(rid relstore.RID, row relstore.Row) bool {
		keepErr = keep(rid, row)
		return keepErr == nil
	})
	if err == nil {
		err = keepErr
	}
	return targets, err
}

func layoutFor(alias string, s relstore.Schema) *rowLayout {
	l := &rowLayout{cols: make([]colBinding, len(s.Columns))}
	for i, c := range s.Columns {
		l.cols[i] = colBinding{qual: alias, name: c.Name, typ: c.Type}
	}
	return l
}
