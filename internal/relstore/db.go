package relstore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Stats counts physical activity; the deterministic analogue of the
// paper's cold-cache timing methodology.
type Stats struct {
	BlockReads   int64 // sealed pages decoded (cache misses)
	BytesRead    int64 // physical bytes of those blocks
	CacheHits    int64
	PagesSkipped int64 // pages pruned by zone maps
	Morsels      int64 // morsel work units dispatched
	RowsBorrowed int64 // rows handed out zero-copy (ScanBorrow / borrow morsels)
	RowsCopied   int64 // rows defensively copied (Scan / copy morsels)

	// Decoded-block cache (BlockZIP warm path; see blockcache.go).
	BlockCacheHits   int64
	BlockCacheMisses int64
	BlockCacheBytes  int64 // bytes currently cached (gauge, not a counter)

	// Join executor row accounting: probe-side rows processed zero-copy
	// vs combined output rows materialized.
	JoinRowsBorrowed int64
	JoinRowsCopied   int64

	// Vectorized scan accounting: column batches emitted by columnar
	// stores and the selected rows they carried.
	ColBatches   int64
	ColBatchRows int64

	// MVCC snapshot publication (version.go): published versions so
	// far, reader handles currently pinned (a gauge), and superseded
	// versions trimmed from the retained ring.
	Epoch             int64
	PinnedReaders     int64
	ReclaimedVersions int64
}

// Sub returns the counter deltas s−prev. BlockCacheBytes is a gauge,
// not a counter, so the current value is kept rather than differenced.
// This is how per-query and per-benchmark-iteration storage activity
// is attributed without touching the scan hot path.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		BlockReads:        s.BlockReads - prev.BlockReads,
		BytesRead:         s.BytesRead - prev.BytesRead,
		CacheHits:         s.CacheHits - prev.CacheHits,
		PagesSkipped:      s.PagesSkipped - prev.PagesSkipped,
		Morsels:           s.Morsels - prev.Morsels,
		RowsBorrowed:      s.RowsBorrowed - prev.RowsBorrowed,
		RowsCopied:        s.RowsCopied - prev.RowsCopied,
		BlockCacheHits:    s.BlockCacheHits - prev.BlockCacheHits,
		BlockCacheMisses:  s.BlockCacheMisses - prev.BlockCacheMisses,
		BlockCacheBytes:   s.BlockCacheBytes,
		JoinRowsBorrowed:  s.JoinRowsBorrowed - prev.JoinRowsBorrowed,
		JoinRowsCopied:    s.JoinRowsCopied - prev.JoinRowsCopied,
		ColBatches:        s.ColBatches - prev.ColBatches,
		ColBatchRows:      s.ColBatchRows - prev.ColBatchRows,
		Epoch:             s.Epoch - prev.Epoch,
		PinnedReaders:     s.PinnedReaders, // gauge
		ReclaimedVersions: s.ReclaimedVersions - prev.ReclaimedVersions,
	}
}

// Database is a catalog of tables and indexes plus a shared page
// cache.
//
// Concurrency model (MVCC, version.go): writers are serialized among
// themselves (one writer at a time), but readers never block on them.
// A reader pins an immutable published version via Snapshot() /
// SnapshotAt() and scans its frozen tables; the writer mutates the
// live tables copy-on-write and makes the result visible atomically
// with Publish(lsn). Reads against live tables (DML target lookup,
// legacy callers) still require the old writers-exclusive discipline.
// The page cache and the stats counters are internally synchronized.
type Database struct {
	mu          sync.RWMutex // guards tables, names, nextTableID
	tables      map[string]*Table
	names       []string // insertion order, for deterministic listings
	nextTableID uint64

	// Snapshot publication state. publishMu serializes Publish and the
	// retained ring; current is the latest published version (nil until
	// first publish); cowGen is the copy-on-write generation bumped at
	// each publish — a writer privatizes a shared slice or B+tree node
	// on first mutation per generation. anyDirty is the publish fast
	// path: set by every write, cleared when a version is published.
	publishMu  sync.Mutex
	current    atomic.Pointer[dbSnapshot]
	retained   []*dbSnapshot // guarded by publishMu; recent versions for SnapshotAt
	floor      func() uint64 // guarded by publishMu; the retention floor (SetVersionFloor), nil = the head
	cowGen     atomic.Uint64
	anyDirty   atomic.Bool
	autoPub    atomic.Bool
	epoch      atomic.Uint64
	pinned     atomic.Int64
	reclaimed  atomic.Int64
	nextPageID atomic.Uint64 // page identities for the page cache

	cache    atomic.Pointer[pageCache]
	cacheCap atomic.Int64 // configured capacity, for DropCaches rebuilds

	blockCache    atomic.Pointer[blockCache]
	blockCacheCap atomic.Int64 // configured byte budget, for DropCaches rebuilds

	stats struct {
		blockReads       atomic.Int64
		bytesRead        atomic.Int64
		cacheHits        atomic.Int64
		pagesSkipped     atomic.Int64
		morsels          atomic.Int64
		rowsBorrowed     atomic.Int64
		rowsCopied       atomic.Int64
		blockCacheHits   atomic.Int64
		blockCacheMisses atomic.Int64
		joinRowsBorrowed atomic.Int64
		joinRowsCopied   atomic.Int64
		colBatches       atomic.Int64
		colBatchRows     atomic.Int64
	}
}

// DefaultCachePages is the default page-cache capacity (~16 MiB of
// 4 KiB blocks).
const DefaultCachePages = 4096

// NewDatabase returns an empty database with the default cache size.
func NewDatabase() *Database {
	db := &Database{tables: map[string]*Table{}}
	db.cacheCap.Store(DefaultCachePages)
	db.cache.Store(newPageCache(DefaultCachePages))
	db.blockCache.Store(newBlockCache(0)) // off by default; see SetBlockCacheBytes
	db.autoPub.Store(true)                // legacy callers publish on demand at read time
	return db
}

// SetCacheCapacity sets the page-cache capacity in pages; 0 disables
// caching entirely (every read is physical).
func (db *Database) SetCacheCapacity(pages int) {
	db.cacheCap.Store(int64(pages))
	db.cache.Store(newPageCache(pages))
}

// Stats returns a snapshot of the physical counters.
func (db *Database) Stats() Stats {
	return Stats{
		BlockReads:        db.stats.blockReads.Load(),
		BytesRead:         db.stats.bytesRead.Load(),
		CacheHits:         db.stats.cacheHits.Load(),
		PagesSkipped:      db.stats.pagesSkipped.Load(),
		Morsels:           db.stats.morsels.Load(),
		RowsBorrowed:      db.stats.rowsBorrowed.Load(),
		RowsCopied:        db.stats.rowsCopied.Load(),
		BlockCacheHits:    db.stats.blockCacheHits.Load(),
		BlockCacheMisses:  db.stats.blockCacheMisses.Load(),
		BlockCacheBytes:   int64(db.BlockCacheBytes()),
		JoinRowsBorrowed:  db.stats.joinRowsBorrowed.Load(),
		JoinRowsCopied:    db.stats.joinRowsCopied.Load(),
		ColBatches:        db.stats.colBatches.Load(),
		ColBatchRows:      db.stats.colBatchRows.Load(),
		Epoch:             int64(db.epoch.Load()),
		PinnedReaders:     db.pinned.Load(),
		ReclaimedVersions: db.reclaimed.Load(),
	}
}

// ResetStats zeroes the counters.
func (db *Database) ResetStats() {
	db.stats.blockReads.Store(0)
	db.stats.bytesRead.Store(0)
	db.stats.cacheHits.Store(0)
	db.stats.pagesSkipped.Store(0)
	db.stats.morsels.Store(0)
	db.stats.rowsBorrowed.Store(0)
	db.stats.rowsCopied.Store(0)
	db.stats.blockCacheHits.Store(0)
	db.stats.blockCacheMisses.Store(0)
	db.stats.joinRowsBorrowed.Store(0)
	db.stats.joinRowsCopied.Store(0)
	db.stats.colBatches.Store(0)
	db.stats.colBatchRows.Store(0)
}

// AddJoinRows feeds the join executor's row accounting: borrowed
// counts probe-side rows processed zero-copy, copied counts combined
// output rows materialized.
func (db *Database) AddJoinRows(borrowed, copied int64) {
	if borrowed != 0 {
		db.stats.joinRowsBorrowed.Add(borrowed)
	}
	if copied != 0 {
		db.stats.joinRowsCopied.Add(copied)
	}
}

// CountColBatch feeds the vectorized-scan accounting: one column
// batch emitted with n selected rows.
func (db *Database) CountColBatch(n int64) {
	db.stats.colBatches.Add(1)
	db.stats.colBatchRows.Add(n)
}

// DropCaches empties the page cache and the decoded-block cache — the
// equivalent of the paper's unmount/remount between queries. Dropping
// both keeps cold-mode benchmark numbers honest even when a block
// cache is configured.
func (db *Database) DropCaches() {
	db.cache.Store(newPageCache(int(db.cacheCap.Load())))
	db.blockCache.Store(newBlockCache(int(db.blockCacheCap.Load())))
}

// CachedPages reports how many pages are currently cached.
func (db *Database) CachedPages() int { return db.cache.Load().len() }

// CreateTable registers a new table. Zone maps are maintained for all
// INT and DATE columns.
func (db *Database) CreateTable(s Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(s.Name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("relstore: table %s already exists", s.Name)
	}
	db.nextTableID++
	t := &Table{db: db, id: db.nextTableID, schema: s}
	for i, c := range s.Columns {
		if c.Type == TypeInt || c.Type == TypeDate {
			t.zoneCols = append(t.zoneCols, i)
		}
	}
	db.tables[key] = t
	db.names = append(db.names, s.Name)
	t.dirty = true
	db.anyDirty.Store(true)
	return t, nil
}

// Table looks a table up by name (case-insensitive).
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.RLock()
	t, ok := db.tables[strings.ToLower(name)]
	db.mu.RUnlock()
	return t, ok
}

// MustTable is Table that errors helpfully.
func (db *Database) MustTable(name string) (*Table, error) {
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("relstore: no such table %s", name)
	}
	return t, nil
}

// DropTable removes a table and its indexes.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	key := strings.ToLower(name)
	t, ok := db.tables[key]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("relstore: no such table %s", name)
	}
	delete(db.tables, key)
	for i, n := range db.names {
		if strings.EqualFold(n, name) {
			db.names = append(db.names[:i], db.names[i+1:]...)
			break
		}
	}
	db.mu.Unlock()
	t.Truncate()
	return nil
}

// TableNames lists tables in creation order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.names))
	copy(out, db.names)
	return out
}

// CreateIndex builds a secondary index over the named columns and
// backfills it from existing rows.
func (db *Database) CreateIndex(name, table string, columns ...string) (*Index, error) {
	t, err := db.MustTable(table)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(columns))
	for i, c := range columns {
		pos := t.schema.ColumnIndex(c)
		if pos < 0 {
			return nil, fmt.Errorf("relstore: index %s: no column %s in %s", name, c, table)
		}
		cols[i] = pos
	}
	ix := &Index{Name: name, Table: t, Cols: cols, tree: newBTree()}
	err = t.ScanBorrow(nil, func(rid RID, row Row) bool {
		ix.insertRow(row, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, ix)
	t.markDirty()
	return ix, nil
}

// IndexOn returns an index of the table whose leading key columns
// match the given column positions, or nil.
func (t *Table) IndexOn(cols ...int) *Index {
	for _, ix := range t.indexes {
		if len(ix.Cols) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if ix.Cols[i] != c {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// Indexes lists the table's indexes.
func (t *Table) Indexes() []*Index { return t.indexes }

// TotalBytes returns the physical footprint of all tables.
func (db *Database) TotalBytes() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.ByteSize()
	}
	return n
}

func (db *Database) cacheGet(p *page) ([]Row, []bool, bool) {
	rows, live, ok := db.cache.Load().get(cacheKey{p.id})
	if ok {
		db.stats.cacheHits.Add(1)
	}
	return rows, live, ok
}

func (db *Database) cachePut(p *page, rows []Row, live []bool) {
	db.cache.Load().put(cacheKey{p.id}, rows, live)
}

func (db *Database) cacheInvalidate(p *page) {
	db.cache.Load().invalidate(cacheKey{p.id})
}

// stampPage assigns a fresh database-global identity to a newly built
// page (the page-cache key; see page.id).
func (db *Database) stampPage(p *page) *page {
	p.id = db.nextPageID.Add(1)
	return p
}
