package relstore

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// MVCC snapshot publication (DESIGN.md §14). A writer mutates the live
// tables copy-on-write and calls Publish(lsn) to make the result
// visible: every dirty table is frozen into a lightweight immutable
// copy (slice headers, index-root pointers — no row data is copied)
// and the whole set swaps in atomically as the new current version,
// stamped with the WAL LSN that made it durable. Readers pin a version
// with Snapshot()/SnapshotAt() and scan it without ever observing a
// torn write or blocking on the writer.
//
// Reclamation is epoch-based and cooperative with the garbage
// collector: the database retains the retainedVersions newest versions
// at or below a floor, plus every version above it, up to
// maxRetainedVersions in all (the ReadAsOf horizon); older ones are
// dropped from the ring — counted in Stats.ReclaimedVersions — and
// free as soon as the last pinned reader releases its handle. The
// floor is the head unless SetVersionFloor installs one (DESIGN.md
// §14.3): a replication primary's slowest follower ack, a follower's
// applied LSN of a moment ago — the LSNs a reader may still ask for
// however many versions a burst of writes publishes meanwhile.

// retainedVersions is how many versions at or below the floor stay
// reachable for point-in-time reads; maxRetainedVersions caps the ring
// whatever the floor.
const (
	retainedVersions    = 64
	maxRetainedVersions = 1024
)

// ErrHorizonPassed marks a point-in-time read below the retention
// horizon: no retained version is at or before its LSN.
var ErrHorizonPassed = errors.New("retention horizon passed")

// dbSnapshot is one immutable published version of the database.
type dbSnapshot struct {
	epoch  uint64
	lsn    uint64
	tables map[string]*Table // lowercase name -> frozen copy
	names  []string          // creation order at publish time
}

// Snapshot is a pinned reader handle on one published version. It is
// safe for concurrent use; Release unpins it (idempotent). Frozen
// tables obtained from it support the whole reader surface — Scan,
// ScanBorrow, Get, index lookups, morsels, estimates — but reject
// writes.
type Snapshot struct {
	db       *Database
	s        *dbSnapshot
	released atomic.Bool
}

// Table looks up a frozen table by name (case-insensitive).
func (s *Snapshot) Table(name string) (*Table, bool) {
	t, ok := s.s.tables[strings.ToLower(name)]
	return t, ok
}

// MustTable is Table that errors helpfully.
func (s *Snapshot) MustTable(name string) (*Table, error) {
	t, ok := s.Table(name)
	if !ok {
		return nil, fmt.Errorf("relstore: no such table %s in snapshot", name)
	}
	return t, nil
}

// TableNames lists the snapshot's tables in creation order.
func (s *Snapshot) TableNames() []string {
	return append([]string(nil), s.s.names...)
}

// LSN is the WAL LSN the version was stamped with at publish.
func (s *Snapshot) LSN() uint64 { return s.s.lsn }

// Epoch is the version's publish sequence number.
func (s *Snapshot) Epoch() uint64 { return s.s.epoch }

// Release unpins the handle. Idempotent; a released handle's tables
// remain readable until garbage collected, but holding one past
// Release forfeits the pinned-reader accounting.
func (s *Snapshot) Release() {
	if s == nil {
		return
	}
	if s.released.CompareAndSwap(false, true) {
		s.db.pinned.Add(-1)
	}
}

func (db *Database) pin(v *dbSnapshot) *Snapshot {
	db.pinned.Add(1)
	return &Snapshot{db: db, s: v}
}

// SetAutoPublish controls publish-on-demand: when on (the default, for
// callers predating MVCC), Snapshot() publishes a dirty database
// before pinning, relying on the legacy writers-exclusive contract.
// Systems that publish explicitly after each write (core.System) turn
// it off so readers never take the publish lock.
func (db *Database) SetAutoPublish(on bool) { db.autoPub.Store(on) }

// Publish freezes all unpublished changes into a new immutable version
// stamped with lsn and makes it the current version. No-op when
// nothing changed since the last publish. Must not run concurrently
// with a writer (callers publish from the writer itself).
func (db *Database) Publish(lsn uint64) {
	db.publishMu.Lock()
	db.publishLocked(lsn)
	db.publishMu.Unlock()
}

func (db *Database) publishLocked(lsn uint64) *dbSnapshot {
	prev := db.current.Load()
	if prev != nil && !db.anyDirty.Load() {
		return prev
	}
	db.anyDirty.Store(false)
	db.mu.RLock()
	names := append([]string(nil), db.names...)
	tables := make(map[string]*Table, len(db.tables))
	for key, t := range db.tables {
		if !t.dirty && prev != nil {
			if pt, ok := prev.tables[key]; ok && pt.id == t.id {
				tables[key] = pt
				continue
			}
		}
		t.dirty = false
		tables[key] = t.freeze()
	}
	db.mu.RUnlock()
	v := &dbSnapshot{epoch: db.epoch.Add(1), lsn: lsn, tables: tables, names: names}
	// Bump the COW generation before the version becomes visible: the
	// writer's next in-place mutation must privatize shared arrays.
	db.cowGen.Add(1)
	db.current.Store(v)
	db.retained = append(db.retained, v)
	floor := lsn
	if db.floor != nil {
		floor = min(floor, db.floor())
	}
	keep := retainedVersions
	for i := len(db.retained) - 1; i >= 0 && db.retained[i].lsn > floor; i-- {
		keep++
	}
	if n := len(db.retained) - min(keep, maxRetainedVersions); n > 0 {
		db.retained = append([]*dbSnapshot(nil), db.retained[n:]...)
		db.reclaimed.Add(int64(n))
	}
	return v
}

// SetVersionFloor installs the retention floor: fn returns the lowest
// LSN a reader may still ask SnapshotAt for, and every version above it
// stays retained (up to maxRetainedVersions). nil restores the default
// floor, the head. fn runs under the publish lock, so it must not
// publish.
func (db *Database) SetVersionFloor(fn func() uint64) {
	db.publishMu.Lock()
	db.floor = fn
	db.publishMu.Unlock()
}

// Snapshot pins the current published version. In auto-publish mode a
// dirty database is published first (safe under the legacy
// writers-exclusive contract those callers follow).
func (db *Database) Snapshot() *Snapshot {
	if (db.autoPub.Load() && db.anyDirty.Load()) || db.current.Load() == nil {
		db.publishMu.Lock()
		db.publishLocked(db.lastLSNLocked())
		db.publishMu.Unlock()
	}
	return db.pin(db.current.Load())
}

// lastLSNLocked carries the previous version's LSN forward for
// publishes that have no WAL position of their own (auto-publish,
// non-durable systems). Caller holds publishMu.
func (db *Database) lastLSNLocked() uint64 {
	if v := db.current.Load(); v != nil {
		return v.lsn
	}
	return 0
}

// SnapshotAt pins the newest retained version with lsn <= the target —
// the point-in-time read primitive behind ReadAsOf. It errors when the
// target predates the retention horizon.
func (db *Database) SnapshotAt(lsn uint64) (*Snapshot, error) {
	db.publishMu.Lock()
	var found *dbSnapshot
	for i := len(db.retained) - 1; i >= 0; i-- {
		if db.retained[i].lsn <= lsn {
			found = db.retained[i]
			break
		}
	}
	db.publishMu.Unlock()
	if found == nil {
		return nil, fmt.Errorf("relstore: no retained version at or before lsn %d (%w)", lsn, ErrHorizonPassed)
	}
	return db.pin(found), nil
}

// freeze builds the immutable snapshot copy of a table: slice headers
// capped at their current length (so live-side appends can never land
// inside the captured window), private Index structs sharing the
// current B+tree roots, and the same page objects. O(indexes), not
// O(rows).
func (t *Table) freeze() *Table {
	ft := &Table{
		db:       t.db,
		id:       t.id,
		schema:   t.schema,
		pages:    t.pages[:len(t.pages):len(t.pages)],
		bRows:    t.bRows[:len(t.bRows):len(t.bRows)],
		bLive:    t.bLive[:len(t.bLive):len(t.bLive)],
		bSize:    t.bSize,
		zoneCols: t.zoneCols,
		liveRows: t.liveRows,
		frozen:   true,
	}
	if len(t.indexes) > 0 {
		ft.indexes = make([]*Index, len(t.indexes))
		for i, ix := range t.indexes {
			ft.indexes[i] = &Index{
				Name:   ix.Name,
				Table:  ft,
				Cols:   ix.Cols,
				Unique: ix.Unique,
				tree:   &btree{root: ix.tree.root, height: ix.tree.height, nkeys: ix.tree.nkeys},
			}
		}
	}
	return ft
}

// Frozen reports whether the table is an immutable snapshot copy.
func (t *Table) Frozen() bool { return t.frozen }
