// Package segment implements the paper's usefulness-based temporal
// clustering (Section 6): each attribute-history table is partitioned
// into temporal segments. Updates hit the live segment; when its
// usefulness U = Nlive/Nall drops below Umin, all of its tuples are
// archived into a frozen segment sorted by id, live tuples are carried
// into a fresh live segment, and the old live segment is dropped.
//
// Frozen segments give (a) global temporal clustering — a snapshot
// query touches exactly one segment, pruned physically via the zone
// maps on the segno column — and (b) immutable units that BlockZIP can
// compress.
package segment

import (
	"fmt"
	"sort"
	"sync"

	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// DefaultMinSegmentRows is the minimum live-segment population before
// usefulness triggers archiving (prevents degenerate tiny segments).
const DefaultMinSegmentRows = 1024

// Config tunes a clustered store.
type Config struct {
	// Umin is the minimum tolerable usefulness (paper Section 6.1).
	Umin float64
	// MinSegmentRows gates archiving; DefaultMinSegmentRows if zero.
	MinSegmentRows int
	// Clock supplies the archive timestamp for segment boundaries.
	Clock func() temporal.Date
}

// Store is a usefulness-clustered attribute store. It satisfies
// htable.AttrStore.
//
// Reads (Scan, ScanHistory, Segments, SegmentsFor, Usefulness, …) may
// run concurrently; mu makes their view of the segment metadata
// consistent. Writes (Append, Close, Rewrite, ArchiveNow,
// RebuildLiveMap) take the write lock and additionally require that no
// other goroutine touches the underlying tables, per the relstore
// writer-exclusivity rule.
type Store struct {
	table *relstore.Table // (segno, id, value, tstart, tend[, vstart, vend])
	dir   *relstore.Table // (segno, segstart, segend)
	cfg   Config

	// hasValid reports whether the attribute table carries the
	// bitemporal vstart/vend pair; legacy tables opened without it
	// accept only default valid intervals and synthesize them on scans.
	hasValid bool

	mu        sync.RWMutex
	liveSeg   int64
	liveStart temporal.Date
	nall      int
	nlive     int
	live      map[int64]relstore.RID // id → live row in live segment

	archives int // count of archive operations, for tests/benches
}

// DirTableName names the segment directory for an attribute table.
func DirTableName(attrTable string) string { return attrTable + "_seg" }

// NewFactory returns an htable.StoreFactory producing clustered
// stores.
func NewFactory(cfg Config) htable.StoreFactory {
	return func(db *relstore.Database, schema relstore.Schema) (htable.AttrStore, error) {
		return NewStore(db, schema, cfg)
	}
}

// NewStore creates the segmented attribute table
// (segno, id, value, tstart, tend) plus its segment directory.
func NewStore(db *relstore.Database, schema relstore.Schema, cfg Config) (*Store, error) {
	if cfg.Umin <= 0 || cfg.Umin >= 1 {
		return nil, fmt.Errorf("segment: Umin must be in (0,1), got %v", cfg.Umin)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("segment: Config.Clock is required")
	}
	if cfg.MinSegmentRows == 0 {
		cfg.MinSegmentRows = DefaultMinSegmentRows
	}
	cols := append([]relstore.Column{relstore.Col("segno", relstore.TypeInt)}, schema.Columns...)
	t, err := db.CreateTable(relstore.NewSchema(schema.Name, cols...))
	if err != nil {
		return nil, err
	}
	hasValid := schema.ColumnIndex("vstart") >= 0 && schema.ColumnIndex("vend") >= 0
	dir, err := db.CreateTable(relstore.NewSchema(DirTableName(schema.Name),
		relstore.Col("segno", relstore.TypeInt),
		relstore.Col("segstart", relstore.TypeDate),
		relstore.Col("segend", relstore.TypeDate)))
	if err != nil {
		return nil, err
	}
	return &Store{
		table:     t,
		dir:       dir,
		cfg:       cfg,
		hasValid:  hasValid,
		liveSeg:   1,
		liveStart: cfg.Clock(),
		live:      map[int64]relstore.RID{},
	}, nil
}

// TableName returns the attribute table name.
func (s *Store) TableName() string { return s.table.Name() }

// Table exposes the underlying relational table (for compression and
// benchmarks).
func (s *Store) Table() *relstore.Table { return s.table }

// LiveSegment returns the live segment number.
func (s *Store) LiveSegment() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveSeg
}

// Archives returns how many archive operations have run.
func (s *Store) Archives() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.archives
}

// ArchivableRows reports how many dead (closed) rows the live segment
// holds — the rows an archive operation would move out of the live
// path. 0 means the live segment is all current versions (usefulness
// 1.0) and archiving would only churn carried copies: the early-exit
// probe core.Compact uses to skip the write path entirely.
func (s *Store) ArchivableRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nall - s.nlive
}

// Usefulness returns the live segment's current U = Nlive/Nall.
func (s *Store) Usefulness() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.usefulness()
}

func (s *Store) usefulness() float64 {
	if s.nall == 0 {
		return 1
	}
	return float64(s.nlive) / float64(s.nall)
}

// Append implements htable.AttrStore.
func (s *Store) Append(id int64, value relstore.Value, start temporal.Date, valid temporal.Interval) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.live[id]; exists {
		return fmt.Errorf("segment: %s: id %d already live", s.table.Name(), id)
	}
	// Until the first archive the segment interval must start at the
	// earliest data time, not at store-creation time — archives may be
	// loaded with a clock set in the past.
	if s.archives == 0 && start < s.liveStart {
		s.liveStart = start
	}
	row := relstore.Row{
		relstore.Int(s.liveSeg), relstore.Int(id), value,
		relstore.DateV(start), relstore.DateV(temporal.Forever)}
	if s.hasValid {
		row = append(row, relstore.DateV(valid.Start), relstore.DateV(valid.End))
	} else if valid != htable.DefaultValid(start) {
		return fmt.Errorf("segment: %s: legacy table has no valid-time columns; only the default valid interval is supported", s.table.Name())
	}
	rid, err := s.table.Insert(row)
	if err != nil {
		return err
	}
	s.live[id] = rid
	s.nall++
	s.nlive++
	return nil
}

// Close implements htable.AttrStore.
func (s *Store) Close(id int64, end temporal.Date) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rid, ok := s.live[id]
	if !ok {
		return nil
	}
	row, liveRow, err := s.table.Get(rid)
	if err != nil {
		return err
	}
	if !liveRow {
		return fmt.Errorf("segment: %s: live map points at dead row for id %d", s.table.Name(), id)
	}
	updated := row.Clone()
	if end < updated[3].Date() {
		end = updated[3].Date()
	}
	updated[4] = relstore.DateV(end)
	if err := s.table.Update(rid, updated); err != nil {
		return err
	}
	delete(s.live, id)
	s.nlive--
	return s.maybeArchive()
}

// Rewrite implements htable.AttrStore.
func (s *Store) Rewrite(id int64, value relstore.Value, valid temporal.Interval) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rid, ok := s.live[id]
	if !ok {
		return fmt.Errorf("segment: %s: no live version for id %d", s.table.Name(), id)
	}
	row, _, err := s.table.Get(rid)
	if err != nil {
		return err
	}
	updated := row.Clone()
	updated[2] = value
	if s.hasValid {
		updated[5] = relstore.DateV(valid.Start)
		updated[6] = relstore.DateV(valid.End)
	} else if valid != htable.DefaultValid(row[3].Date()) {
		return fmt.Errorf("segment: %s: legacy table has no valid-time columns; only the default valid interval is supported", s.table.Name())
	}
	return s.table.Update(rid, updated)
}

func (s *Store) maybeArchive() error {
	if s.nall < s.cfg.MinSegmentRows || s.usefulness() >= s.cfg.Umin {
		return nil
	}
	return s.archiveNow()
}

// ArchiveNow performs the Section 6.1 archive operation immediately:
// the live segment's tuples are frozen (sorted by id), live tuples are
// copied into a fresh live segment, and the old live segment is
// dropped.
func (s *Store) ArchiveNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.archiveNow()
}

// archiveNow is ArchiveNow with s.mu already held.
func (s *Store) archiveNow() error {
	now := s.cfg.Clock()

	// Collect the live segment.
	var all []relstore.Row
	err := s.table.ScanBorrow(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: s.liveSeg}},
		func(_ relstore.RID, row relstore.Row) bool {
			if row[0].I == s.liveSeg {
				all = append(all, row.Clone())
			}
			return true
		})
	if err != nil {
		return err
	}

	// Steps 1-2: allocate the frozen segment (it keeps the live
	// segment's number) and record its interval.
	if _, err := s.dir.Insert(relstore.Row{
		relstore.Int(s.liveSeg), relstore.DateV(s.liveStart), relstore.DateV(now)}); err != nil {
		return err
	}

	// Step 3: freeze all tuples sorted by id.
	sort.SliceStable(all, func(i, j int) bool { return all[i][1].I < all[j][1].I })

	// Drop the old live rows, then re-insert frozen + new live copies.
	oldLive := s.liveSeg
	newLive := s.liveSeg + 1
	for id := range s.live {
		delete(s.live, id)
	}
	// Tombstone every old live-segment row.
	var rids []relstore.RID
	err = s.table.ScanBorrow(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: oldLive}},
		func(rid relstore.RID, row relstore.Row) bool {
			if row[0].I == oldLive {
				rids = append(rids, rid)
			}
			return true
		})
	if err != nil {
		return err
	}
	for _, rid := range rids {
		if err := s.table.Delete(rid); err != nil {
			return err
		}
	}
	for _, row := range all {
		frozen := row.Clone()
		frozen[0] = relstore.Int(oldLive)
		if _, err := s.table.Insert(frozen); err != nil {
			return err
		}
	}
	// Step 4: carry live tuples into the new live segment.
	s.nall, s.nlive = 0, 0
	for _, row := range all {
		if !row[4].Date().IsForever() {
			continue
		}
		carried := row.Clone()
		carried[0] = relstore.Int(newLive)
		rid, err := s.table.Insert(carried)
		if err != nil {
			return err
		}
		s.live[row[1].I] = rid
		s.nall++
		s.nlive++
	}
	s.liveSeg = newLive
	s.liveStart = now.AddDays(1)
	s.archives++

	// Reclaim the dropped segment's space and re-cluster physically;
	// RIDs change, so rebuild the live map.
	if err := s.table.Compact(); err != nil {
		return err
	}
	s.live = map[int64]relstore.RID{}
	return s.table.ScanBorrow(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: s.liveSeg}},
		func(rid relstore.RID, row relstore.Row) bool {
			if row[0].I == s.liveSeg && row[4].Date().IsForever() {
				s.live[row[1].I] = rid
			}
			return true
		})
}

// RebuildLiveMap re-scans the live segment to refresh the id→RID map
// after an external pass (e.g. compression) compacted the table.
func (s *Store) RebuildLiveMap() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live = map[int64]relstore.RID{}
	return s.table.ScanBorrow(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: s.liveSeg}},
		func(rid relstore.RID, row relstore.Row) bool {
			if row[0].I == s.liveSeg && row[4].Date().IsForever() {
				s.live[row[1].I] = rid
			}
			return true
		})
}

// ScanHistory implements htable.AttrStore: logical versions are
// deduplicated across segment copies, preferring the most recent
// segment (whose tend is authoritative).
func (s *Store) ScanHistory(fn func(id int64, value relstore.Value, start, end temporal.Date, valid temporal.Interval) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type rec struct {
		segno int64
		id    int64
		value relstore.Value
		start temporal.Date
		end   temporal.Date
		valid temporal.Interval
	}
	var all []rec
	err := s.table.ScanBorrow(nil, func(_ relstore.RID, row relstore.Row) bool {
		valid := htable.DefaultValid(row[3].Date())
		if len(row) >= 7 {
			valid = temporal.Interval{Start: row[5].Date(), End: row[6].Date()}
		}
		all = append(all, rec{row[0].I, row[1].I, row[2], row[3].Date(), row[4].Date(), valid})
		return true
	})
	if err != nil {
		return err
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].segno > all[j].segno })
	type vkey struct {
		id    int64
		start temporal.Date
	}
	seen := map[vkey]bool{}
	for _, r := range all {
		k := vkey{r.id, r.start}
		if seen[k] {
			continue
		}
		seen[k] = true
		if !fn(r.id, r.value, r.start, r.end, r.valid) {
			return nil
		}
	}
	return nil
}

// SegmentInterval describes one frozen segment.
type SegmentInterval struct {
	SegNo int64
	Start temporal.Date
	End   temporal.Date
}

// Segments lists the frozen segments in order.
func (s *Store) Segments() ([]SegmentInterval, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.segments()
}

// segments is Segments with s.mu already held (read or write).
func (s *Store) segments() ([]SegmentInterval, error) {
	var out []SegmentInterval
	err := s.dir.ScanBorrow(nil, func(_ relstore.RID, row relstore.Row) bool {
		out = append(out, SegmentInterval{SegNo: row[0].I, Start: row[1].Date(), End: row[2].Date()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].SegNo < out[j].SegNo })
	return out, err
}

// SegmentsFor returns the segment numbers a query over [lo, hi] must
// touch — the Section 6.3 query-mapping step. Adjacent segments share
// the archive day: versions written on day A after the archive land
// in the next segment, so segment k answers for [End(k−1), End(k)]
// and the live segment for [End(last), ∞). The result stays a
// contiguous range, which Scan's dedup rule relies on.
func (s *Store) SegmentsFor(lo, hi temporal.Date) ([]int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs, err := s.segments()
	if err != nil {
		return nil, err
	}
	var out []int64
	for i, sg := range segs {
		start := sg.Start
		if i > 0 {
			start = segs[i-1].End
		}
		if lo <= sg.End && start <= hi {
			out = append(out, sg.SegNo)
		}
	}
	if len(segs) == 0 || hi >= segs[len(segs)-1].End {
		out = append(out, s.liveSeg)
	}
	return out, nil
}

// Schema implements sqlengine.VirtualTable.
func (s *Store) Schema() relstore.Schema { return s.table.Schema() }

// EstimateScan implements the sqlengine planner's ScanEstimator: the
// pushed-down segment range is rewritten into zone bounds exactly as
// Scan does, then the base table's zone-map estimate answers. Costs
// O(pages), no page decode.
func (s *Store) EstimateScan(bounds []relstore.ZoneBound) relstore.ScanEstimate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo, hi := int64(1), s.liveSeg
	for _, zb := range bounds {
		switch {
		case zb.Col == 0 && zb.Op == "=":
			lo, hi = zb.Bound, zb.Bound
		case zb.Col == 0 && zb.Op == ">=" && zb.Bound > lo:
			lo = zb.Bound
		case zb.Col == 0 && zb.Op == "<=" && zb.Bound < hi:
			hi = zb.Bound
		}
	}
	segBounds := bounds
	if lo > 1 || hi < s.liveSeg {
		segBounds = append([]relstore.ZoneBound{
			{Col: 0, Op: ">=", Bound: lo},
			{Col: 0, Op: "<=", Bound: hi},
		}, bounds...)
	}
	return s.table.EstimateScan(segBounds)
}

// Scan implements sqlengine.VirtualTable with logical-version
// semantics: segments are scanned newest-first and redundant copies of
// a version (same id and tstart, carried across archive operations)
// are suppressed, so the newest copy — whose tend is authoritative —
// wins. Pushed-down bounds on segno (col 0) restrict the segment range
// (Section 6.3 query mapping); an id equality bound (col 1) uses the
// base table's id index when one exists.
func (s *Store) Scan(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo, hi := int64(1), s.liveSeg
	var idEq *int64
	for _, zb := range bounds {
		switch {
		case zb.Col == 0 && zb.Op == "=":
			lo, hi = zb.Bound, zb.Bound
		case zb.Col == 0 && (zb.Op == ">=") && zb.Bound > lo:
			lo = zb.Bound
		case zb.Col == 0 && (zb.Op == "<=") && zb.Bound < hi:
			hi = zb.Bound
		case zb.Col == 1 && zb.Op == "=":
			v := zb.Bound
			idEq = &v
		}
	}
	// Deduplication rule (exact for the contiguous segment ranges this
	// store produces): a tuple that was live at archive time is copied
	// into the next segment, keeping tend = forever in the frozen one.
	// So within a scanned range [lo, hi], a forever-tend row in any
	// segment below hi is a stale copy whose authoritative version is
	// in a later scanned segment — skip it. No hashing needed.
	isStale := func(row relstore.Row) bool {
		return row[0].I < hi && row[4].Date().IsForever()
	}

	// Index fast path for single-object queries (the Q1/Q3 shape).
	// Rows are borrowed (VirtualTable contract), so the probe loop
	// allocates nothing per row.
	if idEq != nil {
		if ix := s.table.IndexOn(1); ix != nil {
			var rows []relstore.Row
			for _, rid := range ix.Lookup([]relstore.Value{relstore.Int(*idEq)}) {
				row, live, err := s.table.GetBorrow(rid)
				if err != nil {
					return err
				}
				if !live || row[0].I < lo || row[0].I > hi || isStale(row) {
					continue
				}
				rows = append(rows, row)
			}
			sort.SliceStable(rows, func(i, j int) bool { return rows[i][0].I > rows[j][0].I })
			for _, row := range rows {
				if !fn(row) {
					return nil
				}
			}
			return nil
		}
	}

	segBounds := bounds
	if lo > 1 || hi < s.liveSeg {
		segBounds = append([]relstore.ZoneBound{
			{Col: 0, Op: ">=", Bound: lo},
			{Col: 0, Op: "<=", Bound: hi},
		}, bounds...)
	}
	stopped := false
	err := s.table.ScanBorrow(segBounds, func(_ relstore.RID, row relstore.Row) bool {
		if row[0].I < lo || row[0].I > hi || isStale(row) {
			return true
		}
		if idEq != nil && row[1].I != *idEq {
			return true
		}
		if !fn(row) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	_ = stopped
	return nil
}

// ScanMorsels implements relstore.MorselSource with the same
// logical-version semantics as Scan: the segment range, id equality
// and staleness rule are captured under the read lock, then the base
// table's page morsels are wrapped with that filter, so a clustered
// table parallelizes across its archived segments. The morsels run
// after this call returns, which is safe under the
// readers-concurrent / writers-exclusive model: no writer may change
// the segment metadata while a query executes.
func (s *Store) ScanMorsels(bounds []relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo, hi := int64(1), s.liveSeg
	var idEq *int64
	for _, zb := range bounds {
		switch {
		case zb.Col == 0 && zb.Op == "=":
			lo, hi = zb.Bound, zb.Bound
		case zb.Col == 0 && (zb.Op == ">=") && zb.Bound > lo:
			lo = zb.Bound
		case zb.Col == 0 && (zb.Op == "<=") && zb.Bound < hi:
			hi = zb.Bound
		case zb.Col == 1 && zb.Op == "=":
			v := zb.Bound
			idEq = &v
		}
	}
	isStale := func(row relstore.Row) bool {
		return row[0].I < hi && row[4].Date().IsForever()
	}

	// Single-object shape: one morsel running the index probe — no
	// point fanning out a handful of versions.
	if idEq != nil {
		if ix := s.table.IndexOn(1); ix != nil {
			table := s.table
			id := *idEq
			return []relstore.MorselFunc{func(borrow bool, fn func(relstore.Row) bool) (bool, error) {
				var rows []relstore.Row
				for _, rid := range ix.Lookup([]relstore.Value{relstore.Int(id)}) {
					row, live, err := table.Get(rid)
					if err != nil {
						return false, err
					}
					if !live || row[0].I < lo || row[0].I > hi || isStale(row) {
						continue
					}
					rows = append(rows, row)
				}
				sort.SliceStable(rows, func(i, j int) bool { return rows[i][0].I > rows[j][0].I })
				for _, row := range rows {
					if !fn(row) {
						return true, nil
					}
				}
				return false, nil
			}}, nil
		}
	}

	segBounds := bounds
	if lo > 1 || hi < s.liveSeg {
		segBounds = append([]relstore.ZoneBound{
			{Col: 0, Op: ">=", Bound: lo},
			{Col: 0, Op: "<=", Bound: hi},
		}, bounds...)
	}
	base, err := s.table.ScanMorsels(segBounds)
	if err != nil {
		return nil, err
	}
	out := make([]relstore.MorselFunc, len(base))
	for i, m := range base {
		m := m
		out[i] = func(borrow bool, fn func(relstore.Row) bool) (bool, error) {
			return m(borrow, func(row relstore.Row) bool {
				if row[0].I < lo || row[0].I > hi || isStale(row) {
					return true
				}
				if idEq != nil && row[1].I != *idEq {
					return true
				}
				return fn(row)
			})
		}
	}
	return out, nil
}

// BindSnapshot implements sqlengine.SnapshotBinder: it returns a
// read-only view of this store over a pinned relstore snapshot. The
// view scans the snapshot's frozen copies of the attribute table and
// segment directory; the live-segment metadata is re-derived from the
// frozen directory (archiveNow keeps directory and live counter in
// lockstep inside one critical section, so the derivation is exact for
// any published version). Reader methods never consult the live map,
// which stays nil in the view.
func (s *Store) BindSnapshot(sn *relstore.Snapshot) sqlengine.VirtualTable {
	t, okT := sn.Table(s.table.Name())
	dir, okD := sn.Table(s.dir.Name())
	if !okT || !okD {
		// Tables created after the pinned version; the caller's query
		// would fail either way, so serve the live view.
		return s
	}
	b := &Store{table: t, dir: dir, cfg: s.cfg, hasValid: s.hasValid, liveSeg: 1}
	if segs, err := b.segments(); err == nil && len(segs) > 0 {
		last := segs[len(segs)-1]
		b.liveSeg = last.SegNo + 1
		b.liveStart = last.End.AddDays(1)
	}
	return b
}

// SegmentCount returns frozen segments + the live one.
func (s *Store) SegmentCount() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs, err := s.segments()
	if err != nil {
		return 0, err
	}
	return len(segs) + 1, nil
}
