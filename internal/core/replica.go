package core

import (
	"errors"
	"fmt"

	"archis/internal/wal"
)

// WAL-shipping replication, system side (DESIGN.md §15). A follower is
// a System recovered with RecoverOptions.Replica from a primary
// snapshot: its local log continues at the snapshot LSN, shipped
// records are applied through ApplyReplicated — the same replay path
// recovery uses — and every applied record publishes an MVCC version
// stamped with its primary LSN, so ReadAsOf answers on the follower
// exactly as on the primary for any LSN both retain. The transport
// lives in internal/repl; this file is the system contract it drives.

// ErrReadOnly marks mutations rejected by a replica or point-in-time
// system. Front ends match it with errors.Is to map the rejection to
// a protocol-level "not writable here" response.
var ErrReadOnly = errors.New("read-only system")

func (s *System) readOnlyErr() error {
	return fmt.Errorf("core: %s: %w", s.readOnly, ErrReadOnly)
}

// Replica reports whether the system is a WAL-shipping follower.
func (s *System) Replica() bool { return s.replica }

// ReadOnlyReason returns why mutations are rejected ("" when the
// system is writable).
func (s *System) ReadOnlyReason() string { return s.readOnly }

// ApplyReplicated applies one shipped WAL record to a follower: the
// record is appended to the local log (which must assign it exactly
// the shipped LSN — a mismatch means records were dropped, reordered
// or double-applied, and the follower must stop rather than diverge),
// replayed through the recovery path, and published as an MVCC
// version at its LSN. Durability of the local copy follows the
// follower's own sync policy; the primary already holds the record
// durably, so the follower may lag on fsync without risking the
// record's survival.
func (s *System) ApplyReplicated(lsn uint64, payload []byte) error {
	if !s.replica {
		return fmt.Errorf("core: ApplyReplicated on a non-replica system")
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	got, err := s.wal.Append(payload)
	if err != nil {
		return fmt.Errorf("core: replica apply lsn %d: %w", lsn, err)
	}
	if got != lsn {
		return fmt.Errorf("core: replication stream out of sequence: shipped lsn %d, local log assigned %d", lsn, got)
	}
	rec, err := decodeWALRecord(payload)
	if err != nil {
		return fmt.Errorf("core: replica apply lsn %d: %w", lsn, err)
	}
	if err := s.replay(rec); err != nil {
		return fmt.Errorf("core: replica apply lsn %d: %w", lsn, err)
	}
	s.publishAt(lsn)
	return nil
}

// AppliedLSN is the LSN the current published version covers: every
// record up to it is visible, so ReadAsOf(AppliedLSN()) reads all of
// them. It trails the log's appended LSN while a record is between its
// append and its publication (a follower's replay, a primary's
// statement).
func (s *System) AppliedLSN() uint64 { return s.applied.Load() }

// WAL exposes the log for the replication transport: the shipper
// reads records with Range/DurableLSN, the retention hook pins
// segments followers still need. Nil on a non-durable system.
func (s *System) WAL() *wal.Log { return s.wal }

// WALDirPath returns the durable directory ("" when non-durable); the
// snapshot served to bootstrapping followers lives there.
func (s *System) WALDirPath() string { return s.opts.WALDir }

// CheckpointLSN returns the LSN covered by the latest checkpoint
// snapshot — the position a follower registering right now would
// bootstrap from, so the shipper pins retention there until the
// follower's first ack.
func (s *System) CheckpointLSN() uint64 {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.walLSN
}

// SetWALRetention installs the replication retention floor: fn
// returns the minimum LSN any registered follower still needs, and
// TruncateThrough never deletes past it. nil removes the floor. A
// no-op on non-durable systems.
func (s *System) SetWALRetention(fn func() uint64) {
	if s.wal == nil {
		return
	}
	s.wal.SetRetention(fn)
}
