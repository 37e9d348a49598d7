// Package repl ships the write-ahead log from a primary System to
// read-only followers over HTTP (DESIGN.md §15). The wire format for
// records is the WAL's own CRC frame encoding — a pull response body
// is byte-compatible with a segment-file tail — so both ends reuse
// one codec and every shipped record is integrity-checked twice: once
// by the transport framing, once when the follower's local log
// re-appends it.
//
// Protocol (all under /repl/ on the primary):
//
//	POST /repl/register        → {"id": F, "snapshot_lsn": S}
//	GET  /repl/snapshot        → snapshot file bytes (X-Archis-Snapshot-LSN)
//	GET  /repl/pull?id=F&from=N&ack=A&max=B
//	                           → concatenated frames, LSNs N.. (X-Archis-Durable-LSN)
//
// Registration pins the log's retention floor at the current
// checkpoint LSN *before* the follower fetches the snapshot, closing
// the race where a checkpoint between snapshot download and first
// pull truncates the records the follower needs next. Each pull's ack
// advances that follower's floor; the log never drops a record past
// the minimum acked LSN across registered followers.
package repl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"archis/internal/core"
	"archis/internal/wal"
)

// DefaultMaxPullBytes bounds one pull response body.
const DefaultMaxPullBytes = 1 << 20

// staleAfter is how long a follower may go without a register or a
// pull before it stops holding the primary's MVCC versions. A live
// follower pulls again one poll interval after each pull returns or
// times out, and its default client gives up on a pull after 10 s; the
// longest gap between two pulls measured on served-replica was 3.4 s
// (DESIGN.md §14.3).
const staleAfter = 10 * time.Second

// Primary tracks registered followers and serves snapshot and log
// pulls for one durable System.
type Primary struct {
	sys *core.System

	mu         sync.Mutex
	followers  map[string]*follower // by id
	nextID     int
	staleAfter time.Duration
}

// follower is the primary's record of one registered follower.
type follower struct {
	acked uint64    // highest acked LSN
	seen  time.Time // last register or pull
}

// NewPrimary wires a shipper onto a durable system and installs the
// follower-aware retention floors: its log keeps every record a
// registered follower still needs, and its MVCC versions keep every
// version a live follower has acked, so a reader asking the primary
// for a follower's applied LSN finds it however far the follower lags.
func NewPrimary(sys *core.System) (*Primary, error) {
	if !sys.Durable() {
		return nil, fmt.Errorf("repl: primary requires a durable system (WALDir)")
	}
	p := &Primary{sys: sys, followers: map[string]*follower{}, staleAfter: staleAfter}
	sys.SetWALRetention(p.minAcked)
	sys.DB.SetVersionFloor(p.versionFloor)
	return p, nil
}

// minAcked is the log's retention floor: the lowest acked LSN across
// registered followers. With none registered, truncation is
// unconstrained.
func (p *Primary) minAcked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.minAckedLocked(time.Time{})
}

// versionFloor is the MVCC retention floor: the lowest acked LSN
// across the followers heard from within staleAfter. A follower that
// died or re-registered under a new id holds the versions, which live
// in memory, for no longer than that; it keeps holding the log, which
// lives on disk, until it is dropped.
func (p *Primary) versionFloor() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.minAckedLocked(time.Now().Add(-p.staleAfter))
}

// minAckedLocked is the lowest acked LSN across the followers seen
// after since (^0 when none). Caller holds p.mu.
func (p *Primary) minAckedLocked(since time.Time) uint64 {
	min := ^uint64(0)
	for _, f := range p.followers {
		if f.acked < min && f.seen.After(since) {
			min = f.acked
		}
	}
	return min
}

// Followers returns the registered follower count and the minimum
// acked LSN (^0 when none).
func (p *Primary) Followers() (int, uint64) {
	p.mu.Lock()
	n := len(p.followers)
	p.mu.Unlock()
	return n, p.minAcked()
}

// Attach registers the replication endpoints on mux.
func (p *Primary) Attach(mux *http.ServeMux) {
	mux.HandleFunc("/repl/register", p.handleRegister)
	mux.HandleFunc("/repl/snapshot", p.handleSnapshot)
	mux.HandleFunc("/repl/pull", p.handlePull)
}

// registerReply is the register response body.
type registerReply struct {
	ID          string `json:"id"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
}

func (p *Primary) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Pin retention at the checkpoint the follower will bootstrap
	// from, before it downloads anything: a checkpoint racing the
	// snapshot fetch can only move the snapshot forward, never drop
	// the records past the pinned floor.
	snapLSN := p.sys.CheckpointLSN()
	p.mu.Lock()
	p.nextID++
	id := fmt.Sprintf("f%d", p.nextID)
	p.followers[id] = &follower{acked: snapLSN, seen: time.Now()}
	p.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(registerReply{ID: id, SnapshotLSN: snapLSN})
}

func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	path := filepath.Join(p.sys.WALDirPath(), core.SnapshotFile)
	// The snapshot is replaced atomically by rename, so a plain read
	// always sees one complete checkpoint. The header is advisory —
	// the follower trusts the LSN recorded inside the file.
	data, err := os.ReadFile(path)
	if err != nil {
		http.Error(w, fmt.Sprintf("snapshot: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Archis-Snapshot-LSN", strconv.FormatUint(p.sys.CheckpointLSN(), 10))
	w.Write(data)
}

func (p *Primary) handlePull(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	maxBytes := DefaultMaxPullBytes
	if v, err := strconv.Atoi(q.Get("max")); err == nil && v > 0 {
		maxBytes = v
	}
	p.mu.Lock()
	f := p.followers[id]
	if f != nil {
		f.seen = time.Now()
		if v, err := strconv.ParseUint(q.Get("ack"), 10, 64); err == nil && v > f.acked {
			f.acked = v
		}
	}
	p.mu.Unlock()
	if f == nil {
		// Unknown followers get no retention guarantee; make them
		// re-register rather than read a log that may truncate under
		// them.
		http.Error(w, "unknown follower id; re-register", http.StatusNotFound)
		return
	}

	// Ship only durable records: an unsynced tail could still be lost
	// in a primary crash, and a follower must never be ahead of what
	// the primary guarantees to keep.
	durable := p.sys.WAL().DurableLSN()
	var body []byte
	next := from
	errStop := fmt.Errorf("pull window full")
	rerr := p.sys.WAL().Range(from, func(lsn uint64, payload []byte) error {
		if lsn > durable || len(body) >= maxBytes {
			return errStop
		}
		if lsn != next {
			return fmt.Errorf("log starts at %d, not %d", lsn, from)
		}
		next = lsn + 1
		body = wal.EncodeFrame(body, lsn, payload)
		return nil
	})
	if rerr != nil && rerr != errStop {
		// The requested position predates retention (possible only for
		// followers that stopped acking and were manually dropped) or
		// the log is damaged; either way this follower must rebootstrap.
		http.Error(w, fmt.Sprintf("pull from %d: %v", from, rerr), http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Archis-Durable-LSN", strconv.FormatUint(durable, 10))
	w.Write(body)
}
