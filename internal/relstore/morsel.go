package relstore

// Morsel-driven scans (Leis et al., "Morsel-Driven Parallelism"): a
// scan is broken into page-sized work units that a worker pool pulls
// from a shared counter. Each morsel is self-contained — it decodes
// (or cache-hits) exactly one sealed page, or the builder tail — so
// workers parallelize both the physical decode and the per-row
// filter/aggregate work above it.
//
// Concurrency contract: morsels snapshot the table's page list when
// created and assume the database's readers-concurrent /
// writers-exclusive model (DESIGN.md §8). Any number of morsels from
// the same ScanMorsels call may execute concurrently with each other
// and with other readers; no writer may run until all of them finish.
//
// Determinism contract: the morsel slice is ordered. Concatenating
// the rows emitted by morsel 0, 1, 2, … yields exactly the row
// sequence a serial Scan over the same bounds would produce, so
// callers that merge per-morsel results in index order get
// scheduling-independent answers.

// MorselFunc executes one unit of scan work, emitting live rows to fn
// until exhausted or fn returns false. With borrow=true rows alias
// shared immutable storage (see ScanBorrow for the lifetime rules);
// with borrow=false each row is a defensive copy. It reports whether
// fn stopped the morsel early.
type MorselFunc func(borrow bool, fn func(row Row) bool) (stopped bool, err error)

// MorselSource is implemented by storage that can split a bounded
// scan into independently executable morsels. bounds carry the same
// zone-map pruning semantics as Scan: they prune work units, they do
// not filter rows.
type MorselSource interface {
	ScanMorsels(bounds []ZoneBound) ([]MorselFunc, error)
}

// ScanMorsels splits a scan into one morsel per surviving sealed page
// (zone-map pruning applied up front) plus one morsel for the builder
// tail. The page list and builder slices are snapshotted at call
// time.
func (t *Table) ScanMorsels(bounds []ZoneBound) ([]MorselFunc, error) {
	pages := t.pages
	out := make([]MorselFunc, 0, len(pages)+1)
	for pn, p := range pages {
		skip := false
		for _, zb := range bounds {
			if p.zoneExcludes(zb.Col, zb.Op, zb.Bound) {
				skip = true
				break
			}
		}
		if skip {
			t.db.stats.pagesSkipped.Add(1)
			continue
		}
		pn := pn
		out = append(out, func(borrow bool, fn func(Row) bool) (bool, error) {
			t.db.stats.morsels.Add(1)
			rows, live, err := t.readPage(pn)
			if err != nil {
				return false, err
			}
			emitted := int64(0)
			for slot, row := range rows {
				if !live[slot] {
					continue
				}
				r := row
				if !borrow {
					r = copyRow(row)
				}
				emitted++
				if !fn(r) {
					t.db.countScanRows(borrow, emitted)
					return true, nil
				}
			}
			t.db.countScanRows(borrow, emitted)
			return false, nil
		})
	}
	if len(t.bRows) > 0 {
		bRows, bLive := t.bRows, t.bLive
		out = append(out, func(borrow bool, fn func(Row) bool) (bool, error) {
			t.db.stats.morsels.Add(1)
			emitted := int64(0)
			for slot, row := range bRows {
				if !bLive[slot] {
					continue
				}
				r := row
				if !borrow {
					r = copyRow(row)
				}
				emitted++
				if !fn(r) {
					t.db.countScanRows(borrow, emitted)
					return true, nil
				}
			}
			t.db.countScanRows(borrow, emitted)
			return false, nil
		})
	}
	return out, nil
}

// countScanRows batches the borrowed/copied row counters: one atomic
// add per page instead of one per row, so hot scans don't serialize
// on the stats cache line.
func (db *Database) countScanRows(borrow bool, n int64) {
	if n == 0 {
		return
	}
	if borrow {
		db.stats.rowsBorrowed.Add(n)
	} else {
		db.stats.rowsCopied.Add(n)
	}
}

// DrainMorsels is the serial read of a MorselSource: it runs the
// morsels of bounds in order with borrowed rows, until they are
// exhausted or fn returns false. Concatenated in order the morsels
// are the source's row sequence, so this is the scan a caller outside
// the engine's executor drains.
func DrainMorsels(ms MorselSource, bounds []ZoneBound, fn func(Row) bool) error {
	morsels, err := ms.ScanMorsels(bounds)
	if err != nil {
		return err
	}
	for _, m := range morsels {
		if stopped, err := m(true, fn); err != nil || stopped {
			return err
		}
	}
	return nil
}
