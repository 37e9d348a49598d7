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
	"cmp"
	"fmt"
	"slices"
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
// Reads (ScanMorsels, ScanHistory, Segments, SegmentsFor,
// Usefulness, …) may run concurrently; mu makes their view of the
// segment metadata consistent. Writes (Append, Close, Rewrite, ArchiveNow,
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
// contiguous range, which Scope's stale-copy rule relies on.
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

// Scope is the paper's §6.3 logical-version rule for one read of a
// clustered attribute table, resolved from the read's pushed-down
// bounds: the segment range [Lo, Hi] (segno bounds on column 0) and an
// id equality (column 1) when HasID. A version live when its segment
// was archived is copied into the next segment and keeps tend =
// forever in the frozen one, so within a contiguous range a
// forever-tend row below Hi is a stale copy whose authoritative
// version lies in a later segment of the range: Keep drops it, and
// the newest copy, whose tend is authoritative, wins. No hashing is
// needed; the rule is exact for the contiguous ranges SegmentsFor
// produces. Every read of the segment and BlockZIP stores applies it.
type Scope struct {
	Lo, Hi int64
	ID     int64
	HasID  bool
}

// Admits reports whether a row with these raw segno, id and tend
// payloads belongs to the read: its segment lies in [Lo, Hi], it is
// not a stale carried copy, and it matches the id when one is set.
// Column-batch filters call it with vector payloads.
func (sc *Scope) Admits(segno, id, tend int64) bool {
	return segno >= sc.Lo && segno <= sc.Hi && !(segno < sc.Hi && tend == int64(temporal.Forever)) &&
		(!sc.HasID || id == sc.ID)
}

// Keep is Admits over a row of the attribute table.
func (sc *Scope) Keep(row relstore.Row) bool { return sc.Admits(row[0].I, row[1].I, row[4].I) }

// Scope resolves bounds against the live segment number under the
// read lock.
func (s *Store) Scope(bounds []relstore.ZoneBound) Scope {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scope(bounds)
}

// scope is Scope with s.mu already held.
func (s *Store) scope(bounds []relstore.ZoneBound) Scope {
	sc := Scope{Lo: 1, Hi: s.liveSeg}
	for _, zb := range bounds {
		switch {
		case zb.Col == 0 && zb.Op == "=":
			sc.Lo, sc.Hi = zb.Bound, zb.Bound
		case zb.Col == 0 && zb.Op == ">=" && zb.Bound > sc.Lo:
			sc.Lo = zb.Bound
		case zb.Col == 0 && zb.Op == "<=" && zb.Bound < sc.Hi:
			sc.Hi = zb.Bound
		case zb.Col == 1 && zb.Op == "=":
			sc.ID, sc.HasID = zb.Bound, true
		}
	}
	return sc
}

// segBounds prepends sc's segment range to bounds as zone bounds when
// it is narrower than [1, live], so the base table prunes pages by
// segno.
func (s *Store) segBounds(sc Scope, bounds []relstore.ZoneBound) []relstore.ZoneBound {
	if sc.Lo > 1 || sc.Hi < s.liveSeg {
		return append([]relstore.ZoneBound{
			{Col: 0, Op: ">=", Bound: sc.Lo},
			{Col: 0, Op: "<=", Bound: sc.Hi},
		}, bounds...)
	}
	return bounds
}

// EstimateScan implements the sqlengine planner's ScanEstimator: the
// pushed-down segment range is rewritten into zone bounds exactly as
// ScanMorsels does, then the base table's zone-map estimate answers.
// Costs O(pages), no page decode.
func (s *Store) EstimateScan(bounds []relstore.ZoneBound) relstore.ScanEstimate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.EstimateScan(s.segBounds(s.scope(bounds), bounds))
}

// Scan drains ScanMorsels in order with borrowed rows: the serial read
// for callers outside the engine.
func (s *Store) Scan(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	return relstore.DrainMorsels(s, bounds, fn)
}

// newestFirst orders index-probed rows by segno (column 0), newest
// first, stably: rows of one segment keep their order. A probe returns
// rows in RID order, which ascends by segno, so the usual case only
// reverses the runs of equal segno, in place and in O(n); any other
// order takes the stable sort.
func newestFirst(rows []relstore.Row) []relstore.Row {
	for i := 1; i < len(rows); i++ {
		if rows[i][0].I < rows[i-1][0].I {
			slices.SortStableFunc(rows, func(a, b relstore.Row) int { return cmp.Compare(b[0].I, a[0].I) })
			return rows
		}
	}
	slices.Reverse(rows)
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j][0].I == rows[i][0].I {
			j++
		}
		slices.Reverse(rows[i:j])
		i = j
	}
	return rows
}

// ScanMorsels implements relstore.MorselSource, the store's one read:
// the base table's page morsels filtered by the read's Scope, so a
// clustered table parallelizes across its archived segments.
func (s *Store) ScanMorsels(bounds []relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	_, out, err := s.ScopedMorsels(bounds)
	return out, err
}

// ScopedMorsels is ScanMorsels that also returns the Scope its morsels
// apply, resolved under the same read lock. With an id equality and an
// index on id the read is one morsel running the index probe, newest
// segment first — no point fanning out a handful of versions. The
// morsels run after this call returns, which is safe under the
// readers-concurrent / writers-exclusive model: no writer may change
// the segment metadata while a query executes.
func (s *Store) ScopedMorsels(bounds []relstore.ZoneBound) (Scope, []relstore.MorselFunc, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc := s.scope(bounds)
	var ix *relstore.Index
	if sc.HasID {
		ix = s.table.IndexOn(1)
	}
	if ix != nil {
		table := s.table
		return sc, []relstore.MorselFunc{func(borrow bool, fn func(relstore.Row) bool) (bool, error) {
			// Borrowed probes alias immutable page-cache storage, so
			// the loop allocates nothing per row.
			get := table.Get
			if borrow {
				get = table.GetBorrow
			}
			var rows []relstore.Row
			for _, rid := range ix.Lookup([]relstore.Value{relstore.Int(sc.ID)}) {
				row, live, err := get(rid)
				if err != nil {
					return false, err
				}
				if live && sc.Keep(row) {
					rows = append(rows, row)
				}
			}
			for _, row := range newestFirst(rows) {
				if !fn(row) {
					return true, nil
				}
			}
			return false, nil
		}}, nil
	}
	base, err := s.table.ScanMorsels(s.segBounds(sc, bounds))
	if err != nil {
		return sc, nil, err
	}
	for i, m := range base {
		base[i] = func(borrow bool, fn func(relstore.Row) bool) (bool, error) {
			return m(borrow, func(row relstore.Row) bool { return !sc.Keep(row) || fn(row) })
		}
	}
	return sc, base, nil
}

// BindSnapshot implements sqlengine.SnapshotBinder: it returns a
// read-only view of this store over a pinned relstore snapshot. The
// view scans the snapshot's frozen copies of the attribute table and
// segment directory; the live-segment metadata is re-derived from the
// frozen directory (archiveNow keeps directory and live counter in
// lockstep inside one critical section, so the derivation is exact for
// any published version). Reader methods never consult the live map,
// which stays nil in the view.
func (s *Store) BindSnapshot(sn *relstore.Snapshot) (sqlengine.VirtualTable, error) {
	// Tables created after the pinned version are not in it: the read
	// fails as the version says, never falling back to the live store.
	t, err := sn.MustTable(s.table.Name())
	if err != nil {
		return nil, err
	}
	dir, err := sn.MustTable(s.dir.Name())
	if err != nil {
		return nil, err
	}
	b := &Store{table: t, dir: dir, cfg: s.cfg, hasValid: s.hasValid, liveSeg: 1}
	if segs, err := b.segments(); err == nil && len(segs) > 0 {
		last := segs[len(segs)-1]
		b.liveSeg = last.SegNo + 1
		b.liveStart = last.End.AddDays(1)
	}
	return b, nil
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
