package core

import (
	"sync"

	"archis/internal/translator"
)

// MVCC snapshot publication (DESIGN.md §14). The system disables the
// storage layer's publish-on-demand mode and publishes explicitly from
// every write path while writeMu is still held: statement execution
// (Do on DML/DDL), DDL (Register), log flushes, checkpoints,
// archive compaction and frozen-segment compression. Each published
// version is stamped with the WAL LSN that covers it, so readers pin a
// version without taking any lock and ReadAsOf maps an LSN back to the
// exact state that was durable at that point.

// publishLocked publishes the database's unpublished changes stamped
// with the WAL position that covers them (0 on a non-durable system —
// versions still supersede each other by epoch) and returns that
// position. Caller holds writeMu.
func (s *System) publishLocked() uint64 {
	var lsn uint64
	if s.wal != nil {
		lsn = s.wal.AppendedLSN()
	}
	s.publishAt(lsn)
	return lsn
}

// publishAt publishes the database's unpublished changes stamped with
// lsn, then advances AppliedLSN to it. A publish with nothing to
// freeze still advances it: the current version already covers lsn.
func (s *System) publishAt(lsn uint64) {
	s.DB.Publish(lsn)
	s.applied.Store(lsn)
}

// Publish makes writes that bypassed the System's statement paths
// visible to snapshot readers. Loaders that write through the archive
// directly (dataset generators, bulk imports) call it once after the
// load; the System's own write paths publish on their own.
func (s *System) Publish() {
	s.writeMu.Lock()
	s.publishLocked()
	s.writeMu.Unlock()
}

// Compact archives every clustered attribute table's live segment that
// has rows, publishing one new version when any work was done. Stores
// with an empty live segment are skipped without entering the write
// path at all, so a Compact on a quiescent system leaves the snapshot
// epoch untouched. Returns how many stores were archived. Runs as an
// online background writer: concurrent readers keep their pinned
// versions throughout.
func (s *System) Compact() (int, error) {
	if s.readOnly != "" && !s.replica {
		return 0, s.readOnlyErr()
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	n := 0
	for _, st := range s.segStores {
		if st.ArchivableRows() == 0 {
			continue
		}
		if err := st.ArchiveNow(); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		s.publishLocked()
	}
	return n, nil
}

// lockedCatalog is the translator catalog behind a read-write lock:
// queries resolve doc() names concurrently with Register/AliasDoc
// installing new views, which under MVCC no longer excludes readers.
type lockedCatalog struct {
	mu sync.RWMutex
	m  translator.MapCatalog
}

func newLockedCatalog() *lockedCatalog {
	return &lockedCatalog{m: translator.MapCatalog{}}
}

// ViewByDoc implements translator.Catalog.
func (c *lockedCatalog) ViewByDoc(doc string) (*translator.ViewInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.ViewByDoc(doc)
}

func (c *lockedCatalog) get(name string) (*translator.ViewInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.m[name]
	return v, ok
}

func (c *lockedCatalog) set(name string, v *translator.ViewInfo) {
	c.mu.Lock()
	c.m[name] = v
	c.mu.Unlock()
}

// items returns a point-in-time copy for iteration (writeMeta).
func (c *lockedCatalog) items() translator.MapCatalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(translator.MapCatalog, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}
