package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"archis/internal/core"
	"archis/internal/wal"
)

// DefaultPollInterval is how long a caught-up follower waits before
// asking the primary for more log.
const DefaultPollInterval = 25 * time.Millisecond

// floorLag is how far a follower's version floor trails its applied
// LSN: a reader that took AppliedLSN() less than floorLag ago still
// finds that version, however many records the follower applied since.
// The window it covers runs from that read to the server pinning the
// version, which happens before the request queues for a slot. On the
// served-replica benchmark that window (measured as the time since the
// follower applied past the requested LSN) was at most 46 ms over
// 30 902 reads, p99.9 7 ms (DESIGN.md §14.3); the 64 versions kept at
// or below the floor cover what runs past it.
const floorLag = 100 * time.Millisecond

// FollowerOptions tune Bootstrap and the apply loop.
type FollowerOptions struct {
	// Recover configures the local replica system (sync policy, fault
	// FS, segment size). Replica is forced on.
	Recover core.RecoverOptions
	// PollInterval between pulls when caught up (DefaultPollInterval
	// if zero).
	PollInterval time.Duration
	// MaxPullBytes per pull request (DefaultMaxPullBytes if zero).
	MaxPullBytes int
	// Client overrides the HTTP client (nil uses a 10s-timeout one).
	Client *http.Client
}

// Follower is a read-only replica: a local System bootstrapped from a
// primary snapshot, advanced by continuously pulling and applying WAL
// records. Reads (including ReadAsOf) are served from the local
// system; DML is rejected by the system itself.
type Follower struct {
	Sys *core.System

	primary string
	id      string
	client  *http.Client
	poll    time.Duration
	maxPull int

	primaryDurable atomic.Uint64 // from the last pull's header
	behindSince    atomic.Int64  // unix nanos when lag became non-zero; 0 = caught up
	applyErr       atomic.Value  // error that stopped the loop, if any

	mu      sync.Mutex
	applied []appliedAt // AppliedLSN after each pull, oldest first, back to floorLag ago
}

// appliedAt is the follower's applied LSN at one moment.
type appliedAt struct {
	at  time.Time
	lsn uint64
}

// Bootstrap registers with the primary, downloads its snapshot when
// dir does not already hold one (a restarted follower reuses its
// local copy and replays its local log tail first), and opens the
// local replica system. The registration happens before the snapshot
// fetch — see the package comment for why that order is load-bearing.
func Bootstrap(primaryURL, dir string, opts FollowerOptions) (*Follower, error) {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	f := &Follower{
		primary: primaryURL,
		client:  client,
		poll:    opts.PollInterval,
		maxPull: opts.MaxPullBytes,
	}
	if f.poll <= 0 {
		f.poll = DefaultPollInterval
	}
	if f.maxPull <= 0 {
		f.maxPull = DefaultMaxPullBytes
	}

	resp, err := client.Post(primaryURL+"/repl/register", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("repl: register: %w", err)
	}
	var reg registerReply
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("repl: register: %w", err)
	}
	f.id = reg.ID

	snapPath := filepath.Join(dir, core.SnapshotFile)
	if _, err := os.Stat(snapPath); err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("repl: bootstrap: %w", err)
		}
		if err := f.fetchSnapshot(snapPath); err != nil {
			return nil, err
		}
	}

	ropts := opts.Recover
	ropts.Replica = true
	sys, err := core.RecoverWithOptions(dir, ropts)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap %s: %w", dir, err)
	}
	f.Sys = sys
	f.noteApplied()
	sys.DB.SetVersionFloor(f.versionFloor)
	r := sys.Metrics()
	r.GaugeFunc("repl.lag_lsns", func() int64 {
		d, a := f.primaryDurable.Load(), sys.AppliedLSN()
		if a >= d {
			return 0
		}
		return int64(d - a)
	})
	r.GaugeFunc("repl.lag_ns", func() int64 { return f.lagNanos() })
	return f, nil
}

// fetchSnapshot downloads the primary snapshot to path, atomically.
func (f *Follower) fetchSnapshot(path string) error {
	resp, err := f.client.Get(f.primary + "/repl/snapshot")
	if err != nil {
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: snapshot: %s", resp.Status)
	}
	tmp := path + ".tmp"
	g, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := io.Copy(g, resp.Body); err != nil {
		g.Close()
		return fmt.Errorf("repl: snapshot: %w", err)
	}
	if err := g.Sync(); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Run pulls and applies log records until ctx is cancelled. Transport
// errors are retried after the poll interval (the primary may be
// restarting); apply errors are fatal — they mean the local state
// can no longer be trusted to match the stream.
func (f *Follower) Run(ctx context.Context) error {
	for {
		n, err := f.PullOnce(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if _, fatal := err.(*applyError); fatal {
				f.applyErr.Store(err)
				return err
			}
			// Transient transport failure: back off one interval.
			n = 0
		}
		if n == 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(f.poll):
			}
		}
	}
}

// applyError marks a fatal divergence between stream and local state.
type applyError struct{ err error }

func (e *applyError) Error() string { return e.err.Error() }
func (e *applyError) Unwrap() error { return e.err }

// PullOnce performs one pull round-trip and applies every shipped
// record, returning how many were applied. Exposed for tests and for
// crash-harness style drivers that stop the applier at exact record
// boundaries.
func (f *Follower) PullOnce(ctx context.Context) (int, error) {
	applied := f.Sys.AppliedLSN()
	u := fmt.Sprintf("%s/repl/pull?%s", f.primary, url.Values{
		"id":   {f.id},
		"from": {strconv.FormatUint(applied+1, 10)},
		"ack":  {strconv.FormatUint(applied, 10)},
		"max":  {strconv.Itoa(f.maxPull)},
	}.Encode())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("repl: pull: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("repl: pull: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("repl: pull: %s: %s", resp.Status, body)
	}
	if d, err := strconv.ParseUint(resp.Header.Get("X-Archis-Durable-LSN"), 10, 64); err == nil {
		f.primaryDurable.Store(d)
	}

	n := 0
	for len(body) > 0 {
		lsn, payload, adv, ok := wal.DecodeFrame(body)
		if !ok {
			return n, &applyError{fmt.Errorf("repl: pull: torn frame after %d records", n)}
		}
		if err := f.Sys.ApplyReplicated(lsn, payload); err != nil {
			return n, &applyError{err}
		}
		body = body[adv:]
		n++
	}
	f.noteApplied()
	f.noteProgress()
	return n, nil
}

// noteApplied records the applied LSN now, dropping the samples
// older than the one the floor reads.
func (f *Follower) noteApplied() {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applied = append(f.applied, appliedAt{now, f.Sys.AppliedLSN()})
	cut, i := now.Add(-floorLag), 0
	for i+1 < len(f.applied) && !f.applied[i+1].at.After(cut) {
		i++
	}
	f.applied = f.applied[i:]
}

// versionFloor is the follower's retention floor: the LSN it had
// applied floorLag ago, or its first sample while it is younger than
// that.
func (f *Follower) versionFloor() uint64 {
	cut := time.Now().Add(-floorLag)
	f.mu.Lock()
	defer f.mu.Unlock()
	floor := f.applied[0].lsn
	for _, s := range f.applied[1:] {
		if s.at.After(cut) {
			break
		}
		floor = s.lsn
	}
	return floor
}

// noteProgress updates the lag clock after a pull: caught up resets
// it, falling behind starts it.
func (f *Follower) noteProgress() {
	if f.Sys.AppliedLSN() >= f.primaryDurable.Load() {
		f.behindSince.Store(0)
	} else if f.behindSince.Load() == 0 {
		f.behindSince.Store(time.Now().UnixNano())
	}
}

func (f *Follower) lagNanos() int64 {
	b := f.behindSince.Load()
	if b == 0 {
		return 0
	}
	return time.Since(time.Unix(0, b)).Nanoseconds()
}

// Lag reports the follower's replication lag: LSN delta behind the
// primary's durable position and how long it has been behind.
func (f *Follower) Lag() (lsns uint64, behind time.Duration) {
	d, a := f.primaryDurable.Load(), f.Sys.AppliedLSN()
	if d > a {
		lsns = d - a
	}
	return lsns, time.Duration(f.lagNanos())
}

// Err returns the fatal apply error that stopped Run, if any.
func (f *Follower) Err() error {
	if v := f.applyErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}
