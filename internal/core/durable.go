package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
	"archis/internal/wal"
)

// Durability: when Options.WALDir is set, the system keeps a segmented
// write-ahead log of every captured op, clock tick and DDL statement in
// that directory, next to whole-system snapshots written by Checkpoint.
// Do under Durable() acknowledges a statement only after its log
// records are fsynced (group commit); Recover — reached through Open on
// a directory — loads the latest snapshot and replays the log tail.
// DESIGN.md §10 states the full contract.

// SnapshotFile is the name of the checkpoint snapshot inside a durable
// system's directory.
const SnapshotFile = "snapshot.archis"

// Stats combines the storage-engine counters with the durability
// subsystem's.
type Stats struct {
	relstore.Stats
	WALAppends         int64  // records appended to the log
	WALFsyncs          int64  // physical fsyncs issued by the log
	WALGroupedCommits  int64  // commits that shared another's fsync
	WALReplayedRecords int64  // records replayed by the last recovery
	WALSegments        int    // log segment files on disk
	WALAppendedLSN     uint64 // highest LSN written
	WALDurableLSN      uint64 // highest LSN fsynced
}

// Stats returns the system's counters, including the WAL's when one is
// configured. Every field is assembled from atomic loads, so Stats is
// safe to call concurrently with writers (see TestStatsRace).
func (s *System) Stats() Stats {
	st := Stats{Stats: s.DB.Stats(), WALReplayedRecords: s.replayed.Load()}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WALAppends = ws.Appends
		st.WALFsyncs = ws.Fsyncs
		st.WALGroupedCommits = ws.GroupedCommits
		st.WALSegments = ws.Segments
		st.WALAppendedLSN = ws.AppendedLSN
		st.WALDurableLSN = ws.DurableLSN
	}
	return st
}

// WALStats returns the raw log counters (zero when no WAL).
func (s *System) WALStats() wal.Stats {
	if s.wal == nil {
		return wal.Stats{}
	}
	return s.wal.Stats()
}

// Durable reports whether the system runs with a WAL.
func (s *System) Durable() bool { return s.wal != nil }

// walOptions maps the system knobs onto the log's.
func (s *System) walOptions(fsys wal.FS) wal.Options {
	return wal.Options{
		FS:           fsys,
		SegmentBytes: s.opts.WALSegmentBytes,
		Sync:         s.opts.WALSync,
		BatchWindow:  s.opts.WALBatchWindow,
		Metrics:      s.metrics,
	}
}

// initWAL starts a fresh durable system in opts.WALDir: the directory
// must not already hold one (Open recovers those). It ends with a
// birth checkpoint so recovery always finds a snapshot.
func (s *System) initWAL() error {
	dir := s.opts.WALDir
	fsys := s.opts.WALFS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	// Snapshots are written through the OS regardless of the log's
	// file layer, so the directory must exist for real too.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: wal dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err == nil {
		return fmt.Errorf("core: %s already holds a durable system; use Open to recover it", dir)
	}
	w, err := wal.Open(dir, s.walOptions(fsys))
	if err != nil {
		return err
	}
	if w.AppendedLSN() != 0 {
		w.Close()
		return fmt.Errorf("core: %s holds WAL records but no snapshot; refusing to start fresh", dir)
	}
	s.wal = w
	s.walFS = fsys
	s.attachWALSink()
	return s.checkpointLocked()
}

// attachWALSink routes every captured op into the log. The op record
// is appended before the archive buffers or applies it; durability is
// established by the Commit of a Durable() write. A failed append
// leaves the in-memory state ahead of the log — the log turns
// sticky-failed, so no later statement can be acknowledged past the
// divergence.
func (s *System) attachWALSink() {
	s.Archive.SetOpSink(func(op htable.Op) error {
		_, err := s.wal.Append(encodeOpRecord(op))
		return err
	})
	s.Archive.SetClockSink(func(d temporal.Date) {
		// An append failure turns the log sticky-failed; the next
		// commit surfaces it.
		_, _ = s.wal.Append(encodeClockRecord(d))
	})
}

// appendDDLLocked appends a DDL record while the caller holds writeMu,
// matching the op-sink guarantee that log order equals apply order: a
// concurrent ExecDurable against the just-registered table cannot slot
// its op record ahead of the registration. Returns 0 on a non-durable
// system.
func (s *System) appendDDLLocked(payload []byte) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.Append(payload)
}

// commitDDL waits for a DDL record's durability outside writeMu (DDL
// is rare; there is nothing to group with). lsn 0 means nothing was
// logged.
func (s *System) commitDDL(lsn uint64) error {
	if s.wal == nil || lsn == 0 {
		return nil
	}
	return s.wal.Commit(lsn)
}

// SyncWAL forces everything appended so far to disk, regardless of the
// sync policy.
func (s *System) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Checkpoint makes the entire system state durable as one snapshot and
// discards the log segments it covers: pending log-captured changes
// are flushed to the H-tables, the log is sealed, the snapshot written
// (fsynced, atomically renamed), and fully-covered segments removed.
func (s *System) Checkpoint() error {
	if s.wal == nil {
		return fmt.Errorf("core: Checkpoint requires a WAL (Options.WALDir)")
	}
	// Replicas may checkpoint (snapshotting applied state bounds their
	// local log); point-in-time systems must not truncate the log they
	// were carved from.
	if s.readOnly != "" && !s.replica {
		return s.readOnlyErr()
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.checkpointLocked()
}

func (s *System) checkpointLocked() error {
	// Flush pending log-capture ops first: the snapshot then contains
	// their H-table effects, so truncating their records can't lose
	// them.
	if err := s.Archive.FlushLog(); err != nil {
		return err
	}
	lsn := s.wal.AppendedLSN()
	if err := s.wal.Rotate(); err != nil {
		return err
	}
	s.walLSN = lsn
	if err := s.SaveFile(filepath.Join(s.opts.WALDir, SnapshotFile)); err != nil {
		return err
	}
	if err := s.wal.TruncateThrough(lsn); err != nil {
		return err
	}
	// Flushed log-capture ops and metadata upserts become reader-visible
	// with the checkpoint.
	s.publishLocked()
	return nil
}

// Close syncs and closes the WAL (a no-op for non-durable systems).
func (s *System) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// RecoverOptions tune Recover beyond its defaults. The zero value
// recovers with the real file system and the policies recorded in the
// snapshot metadata.
type RecoverOptions struct {
	// FS overrides the log's file layer (fault-injection tests); nil
	// uses the real file system.
	FS wal.FS
	// Sync, when non-nil, overrides the WAL commit policy recorded in
	// the snapshot metadata, letting a caller (e.g. the archis CLI's
	// -sync flag) change the durability policy of an existing
	// directory on reopen. The override is persisted by the next
	// checkpoint.
	Sync *wal.SyncMode
	// BatchWindow, when positive, overrides the recorded SyncBatch
	// coalescing window.
	BatchWindow time.Duration
	// SegmentBytes, when positive, overrides the recorded log segment
	// roll threshold.
	SegmentBytes int
	// MaxLSN, when non-zero, bounds replay at that LSN: records past
	// it are not applied, and the result is a read-only point-in-time
	// system (DESIGN.md §15.4). Recovery fails when the snapshot
	// already covers a higher LSN — the state before MaxLSN is gone.
	MaxLSN uint64
	// Replica opens the directory as a WAL-shipping follower: the
	// system rejects DML, does not route captured ops into the log
	// (records arrive pre-encoded via ApplyReplicated), and an empty
	// log continues LSN assignment from the snapshot's position so
	// shipped records keep their primary LSNs.
	Replica bool
}

// Recover rebuilds a durable system from its directory: load the
// snapshot, then replay every log record past the snapshot's LSN. A
// torn final record (the write the crash interrupted) is silently
// dropped — the log layer replays exactly the valid prefix. fsys
// overrides the log's file layer (fault-injection tests); nil uses the
// real file system. Use RecoverWithOptions to also override the
// recorded commit policy.
func Recover(dir string, fsys wal.FS) (*System, error) {
	return RecoverWithOptions(dir, RecoverOptions{FS: fsys})
}

// RecoverWithOptions is Recover with explicit overrides: snapshot
// metadata supplies defaults, non-zero fields in ropts win.
func RecoverWithOptions(dir string, ropts RecoverOptions) (*System, error) {
	fsys := ropts.FS
	if fsys == nil {
		fsys = wal.OSFS{}
	}
	db, err := relstore.LoadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		return nil, fmt.Errorf("core: recover %s: %w", dir, err)
	}
	s, meta, err := openSnapshotDB(db)
	if err != nil {
		return nil, err
	}
	snapLSN, _ := strconv.ParseUint(meta["wal_lsn"], 10, 64)
	if v, err := strconv.Atoi(meta["walsync"]); err == nil {
		s.opts.WALSync = wal.SyncMode(v)
	}
	if v, err := strconv.ParseInt(meta["walbatchns"], 10, 64); err == nil {
		s.opts.WALBatchWindow = time.Duration(v)
	}
	if v, err := strconv.Atoi(meta["walsegbytes"]); err == nil {
		s.opts.WALSegmentBytes = v
	}
	if ropts.Sync != nil {
		s.opts.WALSync = *ropts.Sync
	}
	if ropts.BatchWindow > 0 {
		s.opts.WALBatchWindow = ropts.BatchWindow
	}
	if ropts.SegmentBytes > 0 {
		s.opts.WALSegmentBytes = ropts.SegmentBytes
	}
	if ropts.MaxLSN > 0 && snapLSN > ropts.MaxLSN {
		return nil, fmt.Errorf("core: recover %s: snapshot covers lsn %d, past the requested as-of lsn %d (no earlier state retained)", dir, snapLSN, ropts.MaxLSN)
	}
	wo := s.walOptions(fsys)
	if ropts.Replica {
		// A fresh follower log continues from the snapshot position so
		// ApplyReplicated's appends land at the shipped primary LSNs.
		wo.FirstLSN = snapLSN + 1
	}
	w, err := wal.Open(dir, wo)
	if err != nil {
		return nil, err
	}
	// Replay before attaching the log to the system: replayed DDL and
	// ops must not append fresh records to the log being replayed.
	s.applied.Store(snapLSN)
	var replayed int64
	errReplayBound := errors.New("replay bound reached")
	rerr := w.Range(snapLSN+1, func(lsn uint64, payload []byte) error {
		if ropts.MaxLSN > 0 && lsn > ropts.MaxLSN {
			return errReplayBound
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return fmt.Errorf("core: recover %s: lsn %d: %w", dir, lsn, err)
		}
		if err := s.replay(rec); err != nil {
			return fmt.Errorf("core: recover %s: replay lsn %d: %w", dir, lsn, err)
		}
		// Publish per replayed record: the retained-version ring then
		// holds the most recent checkpointed LSNs, so ReadAsOf works
		// immediately after recovery for any of them.
		s.publishAt(lsn)
		replayed++
		return nil
	})
	if errors.Is(rerr, errReplayBound) {
		rerr = nil
	}
	if rerr != nil {
		w.Close()
		return nil, rerr
	}
	s.opts.WALDir = dir
	s.opts.WALFS = fsys
	s.wal = w
	s.walFS = fsys
	s.walLSN = snapLSN
	s.replayed.Store(replayed)
	switch {
	case ropts.MaxLSN > 0:
		// Point-in-time system: the log holds records past the replayed
		// prefix; any write or checkpoint would corrupt it.
		s.readOnly = fmt.Sprintf("opened as of lsn %d (point-in-time recovery)", ropts.MaxLSN)
	case ropts.Replica:
		// Follower: ops arrive pre-encoded through ApplyReplicated,
		// which appends them itself — no capture sink.
		s.replica = true
		s.readOnly = "replica follower (writes belong on the primary)"
	default:
		s.attachWALSink()
	}
	return s, nil
}

// replay applies one decoded WAL record to a recovering system.
func (s *System) replay(rec walRecord) error {
	switch rec.kind {
	case recClock:
		s.Archive.SetClock(rec.clock)
		return nil
	case recRegister:
		return s.registerInternal(rec.spec)
	case recAlias:
		return s.aliasInternal(rec.alias, rec.table)
	case recOp:
		// Restore the logical time of the change first: machinery
		// below the stores (segment boundaries) reads the clock.
		s.Archive.SetClock(rec.op.At)
		if err := s.applyToCurrent(rec.op); err != nil {
			return err
		}
		if err := s.Archive.Ingest(rec.op); err != nil {
			return err
		}
		s.markDirty(rec.op.Table)
		return nil
	}
	return fmt.Errorf("core: replay: unknown record kind %d", rec.kind)
}

// applyToCurrent redoes one op on the current table. Replay works at
// the storage layer, below the engine, so no triggers fire — the
// H-table side is replayed explicitly by Archive.Ingest.
func (s *System) applyToCurrent(op htable.Op) error {
	t, ok := s.DB.Table(op.Table)
	if !ok {
		return fmt.Errorf("core: replay: unknown table %s", op.Table)
	}
	switch op.Type {
	case sqlengine.ChangeInsert:
		_, err := t.Insert(op.New)
		return err
	case sqlengine.ChangeUpdate, sqlengine.ChangeDelete:
		rid, err := s.findCurrentRow(t, op.Table, op.Old)
		if err != nil {
			return err
		}
		if op.Type == sqlengine.ChangeUpdate {
			return t.Update(rid, op.New)
		}
		return t.Delete(rid)
	}
	return fmt.Errorf("core: replay: unknown op type %v", op.Type)
}

// findCurrentRow locates the live current-table row matching op.Old on
// the table's key columns (keys are unique among live rows).
func (s *System) findCurrentRow(t *relstore.Table, table string, old relstore.Row) (relstore.RID, error) {
	var zero relstore.RID
	spec, ok := s.Archive.Spec(table)
	if !ok {
		return zero, fmt.Errorf("core: replay: no spec for %s", table)
	}
	keyIdx, err := keyIndexes(spec)
	if err != nil {
		return zero, err
	}
	var found relstore.RID
	hit := false
	scanErr := t.Scan(nil, func(rid relstore.RID, row relstore.Row) bool {
		for _, i := range keyIdx {
			if relstore.Compare(row[i], old[i]) != 0 {
				return true
			}
		}
		found, hit = rid, true
		return false
	})
	if scanErr != nil {
		return zero, scanErr
	}
	if !hit {
		return zero, fmt.Errorf("core: replay: no current row in %s matches logged key", table)
	}
	return found, nil
}

// keyIndexes returns the positions of the key columns in the spec.
func keyIndexes(spec htable.TableSpec) ([]int, error) {
	out := make([]int, 0, len(spec.Key))
	for _, k := range spec.Key {
		idx := -1
		for i, c := range spec.Columns {
			if strings.EqualFold(c.Name, k) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("core: replay: key column %s missing from spec %s", k, spec.Name)
		}
		out = append(out, idx)
	}
	return out, nil
}
