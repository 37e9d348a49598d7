package core

import (
	"context"

	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// Bitemporal execution options (DESIGN.md §16). ArchIS stores two
// orthogonal timelines per attribute version: transaction time
// (tstart/tend, system-assigned, queried by LSN through the MVCC
// retained-version ring) and valid time (vstart/vend, application-
// asserted at write time, immutable, defaulting to [now, Forever]).
// The options below scope a Do call (do.go) on either timeline; a call
// that passes none reads the current version and writes [now, Forever].

// WithValidTime asserts the valid interval recorded for every
// attribute version the statement creates: the mutation states "this
// value holds in the modeled world over iv", independent of when the
// database learned it. Write statements only; without this option
// writes record the default [clock, Forever]. The assertion rides the
// captured op into the WAL, so replay, replicas and point-in-time
// recovery reproduce it exactly.
func WithValidTime(iv temporal.Interval) ExecOpt {
	return func(o *execOptions) { o.valid = &iv }
}

// AsOfValidTime restricts a SELECT/EXPLAIN to versions whose valid
// interval covers d: the query answers from what the database
// currently believes was true at valid date d. Composes with
// AsOfTransactionTime for full bitemporal reads ("what did we believe
// at LSN n about valid date d").
func AsOfValidTime(d temporal.Date) ExecOpt {
	return func(o *execOptions) { o.validAsOf = &d }
}

// AsOfTransactionTime runs a SELECT/EXPLAIN on the retained MVCC
// version published at the newest LSN at or below lsn, 0 included (the
// same snapshot ReadAsOf serves), pinned for the duration of the
// statement.
func AsOfTransactionTime(lsn uint64) ExecOpt {
	return func(o *execOptions) { o.asOfLSN = &lsn }
}

// AtSnapshot runs a SELECT/EXPLAIN on a version the caller pinned with
// DB.SnapshotAt; the caller releases it. The server resolves as_of_lsn
// this way before it queues a request, so time spent waiting for an
// execution slot cannot carry the version past the retention horizon.
func AtSnapshot(sn *relstore.Snapshot) ExecOpt {
	return func(o *execOptions) { o.asOf = sn }
}

// readCtx threads the valid-time predicate to the engine, which pushes
// vstart<=d AND vend>=d into every scan of a valid-capable source.
func (o execOptions) readCtx(ctx context.Context) context.Context {
	if o.validAsOf != nil {
		return sqlengine.WithValidAsOf(ctx, *o.validAsOf)
	}
	return ctx
}

// withPendingValid installs the write-side valid interval on the
// archive for the duration of fn. Caller holds writeMu — the pending
// interval is writer state, never seen by lock-free readers.
func (s *System) withPendingValid(o execOptions, fn func() (*sqlengine.Result, error)) (*sqlengine.Result, error) {
	if o.valid != nil {
		s.Archive.SetPendingValid(o.valid)
		defer s.Archive.SetPendingValid(nil)
	}
	return fn()
}
