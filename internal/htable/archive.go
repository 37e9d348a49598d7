package htable

import (
	"fmt"
	"strings"

	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// CaptureMode selects how current-database changes reach the H-tables.
type CaptureMode uint8

const (
	// CaptureTrigger archives every change synchronously via row-level
	// triggers — the ArchIS-DB2 configuration.
	CaptureTrigger CaptureMode = iota
	// CaptureLog records changes in an update log that is applied in
	// batch by FlushLog — the ArchIS-ATLaS configuration.
	CaptureLog
)

// StoreFactory creates the physical store for one attribute-history
// table. The default builds plain heap tables; segment/blockzip
// provide clustered and compressed layouts.
type StoreFactory func(db *relstore.Database, schema relstore.Schema) (AttrStore, error)

type archivedTable struct {
	spec     TableSpec
	keyTable *relstore.Table
	attrs    map[string]AttrStore // keyed by lowercase attribute name
	attrCols []relstore.Column
	keyIdx   []int // positions of key columns in the current schema

	surrogates map[string]int64         // key-string → id, stable across reinsertion
	liveKeys   map[int64]relstore.RID   // id → live key-table row
	liveStarts map[int64]temporal.Date  // id → tstart of the live key row
	attrStarts map[string]temporal.Date // attr\x00id → tstart of live attr version
	nextID     int64
}

// Op is one captured current-database change: the logical unit the
// update log stores and the WAL makes durable. Table is the lowercase
// table name; At is the archive clock when the change was captured.
// VStart/VEnd carry the valid-time interval asserted by the writer;
// the zero pair means "unset" and resolves to the default
// [At, Forever] at apply time, which keeps ops from pre-bitemporal
// logs (and zero-valued literals) byte- and behavior-compatible.
type Op struct {
	Table  string
	Type   sqlengine.ChangeType
	Old    relstore.Row
	New    relstore.Row
	At     temporal.Date
	VStart temporal.Date
	VEnd   temporal.Date
}

// Valid resolves the op's valid-time interval, applying the default
// when unset.
func (op Op) Valid() temporal.Interval {
	if op.VStart == 0 && op.VEnd == 0 {
		return DefaultValid(op.At)
	}
	return temporal.Interval{Start: op.VStart, End: op.VEnd}
}

// Archive manages a current database plus its transaction-time history
// in H-tables.
type Archive struct {
	Engine *sqlengine.Engine
	DB     *relstore.Database

	mode      CaptureMode
	factory   StoreFactory
	tables    map[string]*archivedTable
	relations *relstore.Table
	log       []Op
	sink      func(Op) error
	clockSink func(temporal.Date)

	// pendingValid, when non-nil, stamps every captured op with an
	// explicit valid-time interval (core's WithValidTime write option;
	// set and cleared under the system write lock).
	pendingValid *temporal.Interval
}

// SetPendingValid installs (or, with nil, clears) the valid-time
// interval stamped onto subsequently captured ops.
func (a *Archive) SetPendingValid(iv *temporal.Interval) { a.pendingValid = iv }

// New creates an archive over en's database.
func New(en *sqlengine.Engine, mode CaptureMode) (*Archive, error) {
	a := &Archive{
		Engine:  en,
		DB:      en.DB,
		mode:    mode,
		factory: NewPlainStore,
		tables:  map[string]*archivedTable{},
	}
	if rel, ok := en.DB.Table(RelationsTable); ok {
		// Reopened persistent database: the relations table already
		// exists.
		a.relations = rel
		return a, nil
	}
	rel, err := en.DB.CreateTable(relstore.NewSchema(RelationsTable,
		relstore.Col("relationname", relstore.TypeString),
		relstore.Col("tstart", relstore.TypeDate),
		relstore.Col("tend", relstore.TypeDate)))
	if err != nil {
		return nil, err
	}
	a.relations = rel
	return a, nil
}

// SetStoreFactory replaces the attribute-store factory; it must be set
// before Register.
func (a *Archive) SetStoreFactory(f StoreFactory) { a.factory = f }

// Clock returns the archive's current timestamp (day granularity).
func (a *Archive) Clock() temporal.Date { return a.Engine.Now() }

// SetClock advances the archive clock. Changes applied afterwards are
// stamped with the new date. Every effective move is reported to the
// clock sink (the WAL); a same-value set is a no-op. An earlier date is
// accepted too: a segment store archiving after such a move ends the
// frozen segment no earlier than the rows it freezes (segment.Store's
// archiveNow), so time-restricted reads still find them.
func (a *Archive) SetClock(d temporal.Date) {
	if a.Engine.Now() == d {
		return
	}
	a.Engine.SetNow(d)
	if a.clockSink != nil {
		a.clockSink(d)
	}
}

// SetClockSink registers fn to observe every effective clock move,
// through whichever entry point it happens.
func (a *Archive) SetClockSink(fn func(temporal.Date)) { a.clockSink = fn }

// Mode returns the capture mode.
func (a *Archive) Mode() CaptureMode { return a.mode }

// Spec returns the registered spec for a table.
func (a *Archive) Spec(table string) (TableSpec, bool) {
	at, ok := a.tables[strings.ToLower(table)]
	if !ok {
		return TableSpec{}, false
	}
	return at.spec, true
}

// Tables lists the archived table names.
func (a *Archive) Tables() []string {
	var out []string
	for _, at := range a.tables {
		out = append(out, at.spec.Name)
	}
	return out
}

// AttrStore exposes the store behind one attribute's history table.
func (a *Archive) AttrStore(table, attr string) (AttrStore, bool) {
	at, ok := a.tables[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	st, ok := at.attrs[strings.ToLower(attr)]
	return st, ok
}

// Register creates the current table, its H-tables and the capture
// trigger, and records the relation in the global relations table.
func (a *Archive) Register(spec TableSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	key := strings.ToLower(spec.Name)
	if _, dup := a.tables[key]; dup {
		return fmt.Errorf("htable: table %s already registered", spec.Name)
	}
	if _, err := a.DB.CreateTable(relstore.NewSchema(spec.Name, spec.Columns...)); err != nil {
		return err
	}
	keyTable, err := a.DB.CreateTable(spec.KeyTableSchema())
	if err != nil {
		return err
	}
	at := &archivedTable{
		spec:       spec,
		keyTable:   keyTable,
		attrs:      map[string]AttrStore{},
		attrCols:   spec.AttrColumns(),
		surrogates: map[string]int64{},
		liveKeys:   map[int64]relstore.RID{},
		liveStarts: map[int64]temporal.Date{},
		attrStarts: map[string]temporal.Date{},
		nextID:     1,
	}
	for _, k := range spec.Key {
		at.keyIdx = append(at.keyIdx, spec.columnIndex(k))
	}
	for _, c := range at.attrCols {
		st, err := a.factory(a.DB, spec.AttrTableSchema(c))
		if err != nil {
			return err
		}
		at.attrs[strings.ToLower(c.Name)] = st
	}
	if _, err := a.relations.Insert(relstore.Row{
		relstore.String_(spec.Name), relstore.DateV(a.Clock()), relstore.DateV(forever)}); err != nil {
		return err
	}
	a.tables[key] = at

	a.Engine.AddTrigger(spec.Name, a.captureTrigger(at))
	return nil
}

// SetOpSink registers fn to observe every captured op before it is
// buffered or applied to the H-tables; an error from the sink aborts
// the originating statement. The durable WAL hangs off this hook.
func (a *Archive) SetOpSink(fn func(Op) error) { a.sink = fn }

// captureTrigger builds the row-level capture trigger shared by
// Register and Attach: hand the op to the sink (durability), then
// buffer it (log capture) or apply it synchronously (trigger capture).
func (a *Archive) captureTrigger(at *archivedTable) sqlengine.Trigger {
	key := strings.ToLower(at.spec.Name)
	return func(ev sqlengine.TriggerEvent) error {
		op := Op{Table: key, Type: ev.Type, Old: ev.Old, New: ev.New, At: a.Clock()}
		if a.pendingValid != nil {
			op.VStart, op.VEnd = a.pendingValid.Start, a.pendingValid.End
		}
		if a.sink != nil {
			if err := a.sink(op); err != nil {
				return err
			}
		}
		return a.ingest(at, op)
	}
}

// ingest routes one captured op according to the capture mode.
func (a *Archive) ingest(at *archivedTable, op Op) error {
	if a.mode == CaptureLog {
		a.log = append(a.log, op)
		return nil
	}
	return a.applyOp(at, op)
}

// Ingest feeds one op through the capture path as if its trigger had
// just fired — recovery replays WAL records with it. The op does NOT
// go to the sink: replay must not re-append to the log being replayed.
func (a *Archive) Ingest(op Op) error {
	at, ok := a.tables[strings.ToLower(op.Table)]
	if !ok {
		return fmt.Errorf("htable: ingest into unknown table %s", op.Table)
	}
	return a.ingest(at, op)
}

func (a *Archive) applyOp(at *archivedTable, op Op) error {
	ev := sqlengine.TriggerEvent{Type: op.Type, Table: at.spec.Name, Old: op.Old, New: op.New}
	return a.applyChange(at, ev, op.At, op.Valid())
}

// PendingLogRecords reports the size of the unapplied update log.
func (a *Archive) PendingLogRecords() int { return len(a.log) }

// PendingOps returns the unapplied update log (log-capture mode).
func (a *Archive) PendingOps() []Op { return a.log }

// FlushLog applies the pending update log to the H-tables (log-capture
// mode only; a no-op otherwise). Replay runs under each record's
// original timestamp so time-dependent machinery below the stores
// (e.g. segment-boundary recording) observes the logical time of the
// change, not the flush time.
func (a *Archive) FlushLog() error {
	// The replay-time clock juggling moves the engine clock directly:
	// these are not logical clock moves, so they bypass the clock sink.
	saved := a.Clock()
	defer func() { a.Engine.SetNow(saved) }()
	for _, op := range a.log {
		at := a.tables[op.Table]
		a.Engine.SetNow(op.At)
		if err := a.applyOp(at, op); err != nil {
			return err
		}
	}
	a.log = nil
	return nil
}

func (at *archivedTable) keyString(row relstore.Row) string {
	var sb strings.Builder
	for _, i := range at.keyIdx {
		sb.WriteString(row[i].Text())
		sb.WriteByte(0)
	}
	return sb.String()
}

func (at *archivedTable) surrogateFor(row relstore.Row) int64 {
	ks := at.keyString(row)
	if id, ok := at.surrogates[ks]; ok {
		return id
	}
	var id int64
	if at.spec.SingleIntKey() {
		id, _ = row[at.keyIdx[0]].AsInt()
	} else {
		id = at.nextID
		at.nextID++
	}
	at.surrogates[ks] = id
	return id
}

func (a *Archive) applyChange(at *archivedTable, ev sqlengine.TriggerEvent, now temporal.Date, valid temporal.Interval) error {
	switch ev.Type {
	case sqlengine.ChangeInsert:
		return a.applyInsert(at, ev.New, now, valid)
	case sqlengine.ChangeUpdate:
		return a.applyUpdate(at, ev.Old, ev.New, now, valid)
	case sqlengine.ChangeDelete:
		return a.applyDelete(at, ev.Old, now)
	}
	return fmt.Errorf("htable: unknown change type %v", ev.Type)
}

func (a *Archive) applyInsert(at *archivedTable, row relstore.Row, now temporal.Date, valid temporal.Interval) error {
	id := at.surrogateFor(row)
	if _, alive := at.liveKeys[id]; alive {
		return fmt.Errorf("htable: %s: duplicate live key %s", at.spec.Name, at.keyString(row))
	}
	keyRow := relstore.Row{relstore.Int(id)}
	if !at.spec.SingleIntKey() {
		for _, i := range at.keyIdx {
			keyRow = append(keyRow, row[i])
		}
	}
	keyRow = append(keyRow, relstore.DateV(now), relstore.DateV(forever))
	rid, err := at.keyTable.Insert(keyRow)
	if err != nil {
		return err
	}
	at.liveKeys[id] = rid
	at.liveStarts[id] = now
	for _, c := range at.attrCols {
		v := row[at.spec.columnIndex(c.Name)]
		if v.IsNull() {
			continue
		}
		if err := at.attrs[strings.ToLower(c.Name)].Append(id, v, now, valid); err != nil {
			return err
		}
		at.attrStarts[attrKey(c.Name, id)] = now
	}
	return nil
}

func attrKey(attr string, id int64) string {
	return fmt.Sprintf("%s\x00%d", strings.ToLower(attr), id)
}

func (a *Archive) applyUpdate(at *archivedTable, old, new_ relstore.Row, now temporal.Date, valid temporal.Interval) error {
	if at.keyString(old) != at.keyString(new_) {
		// Keys are invariant over history (paper Section 3 fn. 1); a
		// key change is modeled as delete + insert.
		if err := a.applyDelete(at, old, now); err != nil {
			return err
		}
		return a.applyInsert(at, new_, now, valid)
	}
	id := at.surrogateFor(old)
	for _, c := range at.attrCols {
		pos := at.spec.columnIndex(c.Name)
		ov, nv := old[pos], new_[pos]
		if relstore.Compare(ov, nv) == 0 && ov.IsNull() == nv.IsNull() {
			continue
		}
		st := at.attrs[strings.ToLower(c.Name)]
		ak := attrKey(c.Name, id)
		switch {
		case nv.IsNull():
			if err := a.closeAttr(at, st, id, ak, now); err != nil {
				return err
			}
		case ov.IsNull():
			if err := st.Append(id, nv, now, valid); err != nil {
				return err
			}
			at.attrStarts[ak] = now
		default:
			// The live version started today: collapse the two
			// same-day changes into one by rewriting in place.
			if start, ok := at.attrStarts[ak]; ok && start == now {
				if err := st.Rewrite(id, nv, valid); err != nil {
					return err
				}
				continue
			}
			if err := a.closeAttr(at, st, id, ak, now); err != nil {
				return err
			}
			if err := st.Append(id, nv, now, valid); err != nil {
				return err
			}
			at.attrStarts[ak] = now
		}
	}
	return nil
}

// closeAttr ends the live attribute version the day before now (the
// new value holds from now on); a version opened today collapses to a
// single-day interval.
func (a *Archive) closeAttr(at *archivedTable, st AttrStore, id int64, ak string, now temporal.Date) error {
	if err := st.Close(id, now.AddDays(-1)); err != nil {
		return err
	}
	delete(at.attrStarts, ak)
	return nil
}

func (a *Archive) applyDelete(at *archivedTable, old relstore.Row, now temporal.Date) error {
	id := at.surrogateFor(old)
	rid, alive := at.liveKeys[id]
	if !alive {
		return fmt.Errorf("htable: %s: delete of unknown key %s", at.spec.Name, at.keyString(old))
	}
	end := now.AddDays(-1)
	if start := at.liveStarts[id]; end < start {
		end = start
	}
	keyRow, _, err := at.keyTable.Get(rid)
	if err != nil {
		return err
	}
	updated := keyRow.Clone()
	updated[len(updated)-1] = relstore.DateV(end)
	if err := at.keyTable.Update(rid, updated); err != nil {
		return err
	}
	delete(at.liveKeys, id)
	delete(at.liveStarts, id)
	for _, c := range at.attrCols {
		st := at.attrs[strings.ToLower(c.Name)]
		if err := a.closeAttr(at, st, id, attrKey(c.Name, id), now); err != nil {
			return err
		}
	}
	return nil
}
