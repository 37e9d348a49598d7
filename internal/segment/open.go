package segment

import (
	"fmt"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// OpenStore attaches a Store to an existing segmented attribute table
// and its directory (a reopened persistent system), reconstructing the
// live-segment number, its interval start, the usefulness counters and
// the live-row map from the stored data.
func OpenStore(db *relstore.Database, attrTable string, cfg Config) (*Store, error) {
	if cfg.Umin <= 0 || cfg.Umin >= 1 {
		return nil, fmt.Errorf("segment: Umin must be in (0,1), got %v", cfg.Umin)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("segment: Config.Clock is required")
	}
	if cfg.MinSegmentRows == 0 {
		cfg.MinSegmentRows = DefaultMinSegmentRows
	}
	t, ok := db.Table(attrTable)
	if !ok {
		return nil, fmt.Errorf("segment: open: table %s missing", attrTable)
	}
	dir, ok := db.Table(DirTableName(attrTable))
	if !ok {
		return nil, fmt.Errorf("segment: open: directory %s missing", DirTableName(attrTable))
	}
	s := &Store{
		table: t,
		dir:   dir,
		cfg:   cfg,
		live:  map[int64]relstore.RID{},
		// Legacy tables without the valid-time pair reopen at their
		// true width and keep default-valid semantics.
		hasValid: t.Schema().ColumnIndex("vstart") >= 0 && t.Schema().ColumnIndex("vend") >= 0,
	}

	// Live segment number, start and segment ends from the directory.
	segs, err := s.segments()
	if err != nil {
		return nil, err
	}
	s.archives = len(segs)
	s.adoptDirectory(segs)
	if s.archives == 0 {
		s.liveStart = cfg.Clock()
	}

	// Counters and live map from the live segment; with no frozen
	// segments yet the earliest tstart fixes the segment start.
	minStart := temporal.Forever
	err = t.Scan(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: s.liveSeg}},
		func(rid relstore.RID, row relstore.Row) bool {
			if row[0].I != s.liveSeg {
				return true
			}
			s.nall++
			if row[4].Date().IsForever() {
				s.nlive++
				s.live[row[1].I] = rid
			}
			if s.archives == 0 && row[3].Date() < minStart {
				minStart = row[3].Date()
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	if s.archives == 0 && minStart < s.liveStart {
		s.liveStart = minStart
	}
	return s, nil
}
