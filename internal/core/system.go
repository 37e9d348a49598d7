// Package core assembles the ArchIS system (paper Figure 5): a
// relational engine with SQL/XML publishing functions, the H-table
// archival layer with trigger- or log-based change capture, XML
// H-views published from the H-tables, the XQuery→SQL/XML translator
// with segment-restriction rewriting, usefulness-based clustering and
// optional BlockZIP compression of frozen segments.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"archis/internal/blockzip"
	"archis/internal/htable"
	"archis/internal/obs"
	"archis/internal/relstore"
	"archis/internal/segment"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
	"archis/internal/translator"
	"archis/internal/wal"
	"archis/internal/xmltree"
)

// Layout selects the physical layout of attribute-history tables.
type Layout uint8

const (
	// LayoutPlain stores attribute histories as append-only heap
	// tables (the paper's unclustered configuration, Figure 9's "no
	// clustering" side).
	LayoutPlain Layout = iota
	// LayoutClustered applies usefulness-based segment clustering
	// (Section 6).
	LayoutClustered
	// LayoutCompressed clusters and BlockZIP-compresses frozen
	// segments (Section 8).
	LayoutCompressed
)

// ColumnarMode toggles columnar frozen-segment encoding and the
// vectorized batch executor (DESIGN.md §13).
type ColumnarMode uint8

const (
	// ColumnarOn is the default: frozen blocks are written in the
	// columnar format and single-table scans over compressed storage
	// run batch-at-a-time. Reads accept both block formats either way.
	ColumnarOn ColumnarMode = iota
	// ColumnarOff restores the legacy row-in-blob writes bit for bit
	// and the row-at-a-time executor — kept for differential testing.
	ColumnarOff
)

// Options configure a System.
type Options struct {
	// Capture selects trigger-based (ArchIS-DB2) or log-based
	// (ArchIS-ATLaS) change capture.
	Capture htable.CaptureMode
	// Layout selects the attribute-table layout.
	Layout Layout
	// Umin is the minimum tolerable usefulness for clustering;
	// defaults to 0.4 (the paper's experimental setting).
	Umin float64
	// MinSegmentRows gates archiving (segment.DefaultMinSegmentRows
	// if zero).
	MinSegmentRows int
	// BlockSize for BlockZIP (blockzip.DefaultBlockSize if zero).
	BlockSize int
	// WholeSegmentCompression is the ablation mode: compress whole
	// segments as single streams instead of blocks.
	WholeSegmentCompression bool
	// Workers caps intra-query morsel parallelism for single-table
	// scan/aggregate SELECTs (0 = GOMAXPROCS, 1 = serial). See
	// sqlengine.Engine.Workers.
	Workers int
	// Columnar toggles columnar frozen-block encoding plus vectorized
	// batch execution (the ColumnarOn zero value enables it;
	// ColumnarOff restores legacy row-in-blob writes and the
	// row-at-a-time executor). Only meaningful with LayoutCompressed;
	// stores read both block formats regardless, so archives written
	// under either setting reopen under the other.
	Columnar ColumnarMode
	// BlockCacheBytes is the byte budget of the decoded-block cache for
	// BlockZIP reads (0 = off). Only meaningful with LayoutCompressed;
	// DropCaches/cold runs still discard it, so cold numbers are
	// unaffected (DESIGN.md §8.3).
	BlockCacheBytes int
	// WALDir enables the durable write-ahead op log: captured ops,
	// clock ticks and DDL are logged there and snapshots written by
	// Checkpoint. New requires a fresh directory; Open on the
	// directory recovers (DESIGN.md §10).
	WALDir string
	// WALFS overrides the log's file layer — fault-injection tests;
	// nil uses the real file system. Snapshots always use the OS.
	WALFS wal.FS
	// WALSync is the commit durability policy (wal.SyncAlways zero
	// default; wal.SyncBatch adds a group-commit coalescing window;
	// wal.SyncNone defers durability to checkpoint/close).
	WALSync wal.SyncMode
	// WALBatchWindow is the SyncBatch coalescing window
	// (wal.DefaultBatchWindow if zero).
	WALBatchWindow time.Duration
	// WALSegmentBytes is the log segment roll threshold
	// (wal.DefaultSegmentBytes if zero).
	WALSegmentBytes int
	// SlowQueryThreshold, when positive, logs every statement Do runs
	// (and so every method over it) that takes at least this long as
	// one structured line through SlowQueryLog (DESIGN.md §11).
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query records; nil discards them.
	SlowQueryLog func(record string)
}

// System is the assembled ArchIS instance. Do (do.go) runs every
// statement; the other methods register tables, move the clock and
// run maintenance.
type System struct {
	DB      *relstore.Database
	Engine  *sqlengine.Engine
	Archive *htable.Archive

	opts       Options
	catalog    *lockedCatalog
	translator *translator.Translator

	segStores  map[string]*segment.Store            // attr table → store
	compStores map[string]*blockzip.CompressedStore // attr table → store

	// pubMu guards pubCache and dirty: the published-view cache is
	// filled lazily on the query (read) path, so concurrent queries
	// touch it at the same time.
	pubMu    sync.RWMutex
	pubCache map[string]*xmltree.Node // table → published H-doc
	dirty    map[string]bool

	// Observability (metrics.go, DESIGN.md §11): the registry surfaces
	// the storage and WAL counters plus the per-path query-latency
	// histograms below. Always non-nil.
	metrics *obs.Registry
	qhSQL   *obs.Histogram // query.sql_ns: direct SQL
	qhTrans *obs.Histogram // query.sqlxml_ns: translated XQuery
	qhXML   *obs.Histogram // query.xml_ns: XQuery on published H-docs

	// Durability (durable.go). writeMu serializes writers — statement
	// execution, DDL, clock moves, checkpoints — while their WAL
	// fsyncs overlap for group commit.
	writeMu  sync.Mutex
	wal      *wal.Log
	walFS    wal.FS
	walLSN   uint64        // LSN covered by the latest checkpoint snapshot
	replayed atomic.Int64  // records replayed by the last recovery
	applied  atomic.Uint64 // WAL position the current published version covers

	// Replication and point-in-time recovery (replica.go). Both flags
	// are set during construction, before the system is shared, so
	// plain reads are safe everywhere.
	replica  bool   // WAL-shipping follower: writes arrive only via ApplyReplicated
	readOnly string // non-empty: reason every mutating entry point is rejected
}

// New builds a System over a fresh in-memory database. With
// Options.WALDir set, the system is durable from birth: the directory
// must be fresh (Open recovers existing ones) and receives an initial
// checkpoint snapshot immediately.
func New(opts Options) (*System, error) {
	s, err := newWithDB(relstore.NewDatabase(), opts)
	if err != nil {
		return nil, err
	}
	if opts.WALDir != "" {
		if err := s.initWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func newWithDB(db *relstore.Database, opts Options) (*System, error) {
	if opts.Umin == 0 {
		opts.Umin = 0.4
	}
	en := sqlengine.New(db)
	en.Workers = opts.Workers
	en.Columnar = opts.Columnar == ColumnarOn
	db.SetBlockCacheBytes(opts.BlockCacheBytes)
	a, err := htable.New(en, opts.Capture)
	if err != nil {
		return nil, err
	}
	s := &System{
		DB:         db,
		Engine:     en,
		Archive:    a,
		opts:       opts,
		catalog:    newLockedCatalog(),
		segStores:  map[string]*segment.Store{},
		compStores: map[string]*blockzip.CompressedStore{},
		pubCache:   map[string]*xmltree.Node{},
		dirty:      map[string]bool{},
	}
	s.translator = &translator.Translator{Catalog: s.catalog}
	s.metrics = obs.NewRegistry()
	s.qhSQL = s.metrics.Histogram("query.sql_ns")
	s.qhTrans = s.metrics.Histogram("query.sqlxml_ns")
	s.qhXML = s.metrics.Histogram("query.xml_ns")
	s.registerMetrics()
	a.SetStoreFactory(s.makeStore)
	// The System publishes explicitly from its write paths (mvcc.go),
	// so readers never take the storage layer's publish lock.
	db.SetAutoPublish(false)
	db.Publish(0)
	return s, nil
}

func (s *System) makeStore(db *relstore.Database, schema relstore.Schema) (htable.AttrStore, error) {
	switch s.opts.Layout {
	case LayoutPlain:
		return htable.NewPlainStore(db, schema)
	case LayoutClustered, LayoutCompressed:
		seg, err := segment.NewStore(db, schema, segment.Config{
			Umin:           s.opts.Umin,
			MinSegmentRows: s.opts.MinSegmentRows,
			Clock:          func() temporal.Date { return s.Engine.Now() },
		})
		if err != nil {
			return nil, err
		}
		s.segStores[strings.ToLower(schema.Name)] = seg
		if s.opts.Layout == LayoutClustered {
			// Logical-version semantics for SQL queries.
			s.Engine.RegisterVirtual(schema.Name, seg)
			return seg, nil
		}
		cs, err := blockzip.NewCompressedStore(db, seg, blockzip.Options{
			BlockSize:     s.opts.BlockSize,
			WholeSegments: s.opts.WholeSegmentCompression,
			Columnar:      s.opts.Columnar == ColumnarOn,
		})
		if err != nil {
			return nil, err
		}
		s.compStores[strings.ToLower(schema.Name)] = cs
		s.Engine.RegisterVirtual(schema.Name, cs)
		return cs, nil
	}
	return nil, fmt.Errorf("core: unknown layout %d", s.opts.Layout)
}

// Register archives a table: current table, H-tables, capture trigger,
// id indexes, and the catalog entry that makes its H-view queryable.
// On a durable system the registration is logged and made durable
// before returning. The log record is appended while writeMu is still
// held so it precedes any op record a concurrent ExecDurable writes to
// the new table — log order must match apply order or replay fails;
// only the fsync wait happens outside the lock.
func (s *System) Register(spec htable.TableSpec) error {
	if s.readOnly != "" {
		return s.readOnlyErr()
	}
	s.writeMu.Lock()
	err := s.registerInternal(spec)
	var lsn uint64
	if err == nil {
		lsn, err = s.appendDDLLocked(encodeRegisterRecord(spec))
	}
	if err == nil {
		// The new tables must be in the published version before any
		// reader can be told about them.
		s.publishLocked()
	}
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	return s.commitDDL(lsn)
}

// registerInternal is Register without logging — recovery replays
// registrations through it.
func (s *System) registerInternal(spec htable.TableSpec) error {
	if err := s.Archive.Register(spec); err != nil {
		return err
	}
	// Id indexes on the key table and every attribute table — the
	// joins of translated queries run on them.
	keyTable := spec.KeyTableName()
	if _, err := s.DB.CreateIndex("ix_"+keyTable+"_id", keyTable, "id"); err != nil {
		return err
	}
	for _, c := range spec.AttrColumns() {
		at := spec.AttrTableName(c.Name)
		if _, err := s.DB.CreateIndex("ix_"+at+"_id", at, "id"); err != nil {
			return err
		}
	}
	return s.finishRegister(spec)
}

// finishRegister builds the catalog entry and the view-invalidation
// trigger for a registered or attached table.
func (s *System) finishRegister(spec htable.TableSpec) error {
	keyTable := spec.KeyTableName()
	attrTables := map[string]string{}
	for _, c := range spec.AttrColumns() {
		attrTables[strings.ToLower(c.Name)] = spec.AttrTableName(c.Name)
	}
	keyLeaf, keyColumn := "id", "id"
	if len(spec.Key) == 1 {
		keyLeaf = strings.ToLower(spec.Key[0])
		if !spec.SingleIntKey() {
			keyColumn = keyLeaf
		}
	}
	view := &translator.ViewInfo{
		DocName:    spec.DocName(),
		RootName:   spec.RootName(),
		EntityName: spec.Name,
		KeyTable:   keyTable,
		KeyLeaf:    keyLeaf,
		KeyColumn:  keyColumn,
		AttrTables: attrTables,
		// Valid-time query shapes translate only against tables that
		// store the pair; legacy archives take the XML bypass instead.
		HasValid: func(attrTable string) bool {
			t, ok := s.DB.Table(attrTable)
			return ok && t.Schema().ColumnIndex("vstart") >= 0 && t.Schema().ColumnIndex("vend") >= 0
		},
	}
	if s.opts.Layout != LayoutPlain {
		view.Segmented = func(attrTable string) bool {
			_, ok := s.segStores[strings.ToLower(attrTable)]
			return ok
		}
		view.SegmentsFor = func(attrTable string, lo, hi temporal.Date) (int64, int64, bool) {
			st, ok := s.segStores[strings.ToLower(attrTable)]
			if !ok {
				return 0, 0, false
			}
			segs, err := st.SegmentsFor(lo, hi)
			if err != nil || len(segs) == 0 {
				return 0, 0, false
			}
			min, max := segs[0], segs[0]
			for _, sg := range segs[1:] {
				if sg < min {
					min = sg
				}
				if sg > max {
					max = sg
				}
			}
			return min, max, true
		}
	}
	s.catalog.set(spec.DocName(), view)
	s.markDirty(spec.Name)

	// Invalidate the published H-doc on every change.
	table := spec.Name
	s.Engine.AddTrigger(table, func(sqlengine.TriggerEvent) error {
		s.markDirty(table)
		return nil
	})
	return nil
}

func (s *System) markDirty(table string) {
	s.pubMu.Lock()
	s.dirty[strings.ToLower(table)] = true
	s.pubMu.Unlock()
}

// AliasDoc makes the H-view of a table reachable under an extra doc()
// name (the paper refers to the same view as employees.xml and
// emp.xml). On a durable system the alias is logged, appended under
// writeMu for the same ordering reason as Register.
func (s *System) AliasDoc(alias, table string) error {
	if s.readOnly != "" {
		return s.readOnlyErr()
	}
	s.writeMu.Lock()
	err := s.aliasInternal(alias, table)
	var lsn uint64
	if err == nil {
		lsn, err = s.appendDDLLocked(encodeAliasRecord(alias, table))
	}
	s.writeMu.Unlock()
	if err != nil {
		return err
	}
	return s.commitDDL(lsn)
}

func (s *System) aliasInternal(alias, table string) error {
	spec, ok := s.Archive.Spec(table)
	if !ok {
		return fmt.Errorf("core: table %s not registered", table)
	}
	v, ok := s.catalog.get(spec.DocName())
	if !ok {
		return fmt.Errorf("core: no view for %s", table)
	}
	s.catalog.set(alias, v)
	return nil
}

// Clock and SetClock expose the archive clock. On a durable system
// every effective clock move is logged via the archive's clock sink
// (not individually fsynced — a tick becomes durable with the next
// commit or checkpoint, and the log's prefix property keeps recovery
// consistent either way).
func (s *System) Clock() temporal.Date { return s.Archive.Clock() }

func (s *System) SetClock(d temporal.Date) {
	if s.readOnly != "" {
		return
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.Archive.SetClock(d)
}

// Translate shows the SQL/XML a temporal query maps to.
func (s *System) Translate(query string) (string, error) {
	return s.translator.Translate(query)
}

func (s *System) resolveDoc(name string) (*xmltree.Node, error) {
	view, ok := s.catalog.get(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown document %q", name)
	}
	table := view.EntityName
	key := strings.ToLower(table)
	s.pubMu.RLock()
	doc := s.pubCache[key]
	if s.dirty[key] {
		doc = nil
	}
	s.pubMu.RUnlock()
	if doc != nil {
		return doc, nil
	}
	// Publishing scans the live H-tables, which must not race a
	// concurrent writer, so a stale-cache miss briefly joins the writer
	// queue. Cached-document hits above stay lock-free — the XML bypass
	// path's common case under mixed load.
	s.writeMu.Lock()
	doc, err := s.Archive.PublishHDoc(table)
	s.writeMu.Unlock()
	if err != nil {
		return nil, err
	}
	s.pubMu.Lock()
	s.pubCache[key] = doc
	s.dirty[key] = false
	s.pubMu.Unlock()
	return doc, nil
}

// PublishHDoc returns the H-document of a table.
func (s *System) PublishHDoc(table string) (*xmltree.Node, error) {
	return s.Archive.PublishHDoc(table)
}

// FlushLog applies pending log-captured changes (log mode only) and
// publishes the result as a new version.
func (s *System) FlushLog() error {
	if s.readOnly != "" && !s.replica {
		return s.readOnlyErr()
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.Archive.FlushLog(); err != nil {
		return err
	}
	s.publishLocked()
	return nil
}

// CompressFrozen compresses all frozen segments (LayoutCompressed
// only), publishing one new version when any segment was compressed.
// Stores with nothing pending are probed without entering the write
// path, so a call on a fully-compressed system leaves the snapshot
// epoch untouched. Runs as an online background writer: concurrent
// readers keep serving their pinned versions throughout.
func (s *System) CompressFrozen() error {
	if s.opts.Layout != LayoutCompressed {
		return fmt.Errorf("core: compression requires LayoutCompressed")
	}
	if s.readOnly != "" && !s.replica {
		return s.readOnlyErr()
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	did := false
	for _, cs := range s.compStores {
		n, err := cs.PendingFrozen()
		if err != nil {
			return err
		}
		if n == 0 {
			continue
		}
		if err := cs.CompressFrozen(); err != nil {
			return err
		}
		did = true
	}
	if did {
		s.publishLocked()
	}
	return nil
}

// SegmentStore exposes the clustering store of one attribute table.
func (s *System) SegmentStore(attrTable string) (*segment.Store, bool) {
	st, ok := s.segStores[strings.ToLower(attrTable)]
	return st, ok
}

// CompressedStore exposes the compression store of one attribute
// table.
func (s *System) CompressedStore(attrTable string) (*blockzip.CompressedStore, bool) {
	st, ok := s.compStores[strings.ToLower(attrTable)]
	return st, ok
}

// StorageBytes reports the physical footprint of all H-tables (key,
// attribute, directory, blob) excluding the current tables.
func (s *System) StorageBytes() int {
	total := 0
	for _, name := range s.DB.TableNames() {
		lower := strings.ToLower(name)
		if s.isCurrentTable(lower) || strings.HasPrefix(lower, "archis_") {
			continue
		}
		if t, ok := s.DB.Table(name); ok {
			total += t.ByteSize()
		}
	}
	return total
}

func (s *System) isCurrentTable(lower string) bool {
	for _, t := range s.Archive.Tables() {
		if strings.ToLower(t) == lower {
			return true
		}
	}
	return false
}
