package core

import (
	"context"
	"fmt"

	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// Bitemporal execution options (DESIGN.md §16). ArchIS stores two
// orthogonal timelines per attribute version: transaction time
// (tstart/tend, system-assigned, queried by LSN through the MVCC
// retained-version ring) and valid time (vstart/vend, application-
// asserted at write time, immutable, defaulting to [now, Forever]).
// The options below thread both through the existing Exec entry
// points without changing any call site that doesn't care.

// ExecOpt modifies one Exec/ExecCtx/ExecDurable/ExecDurableCtx call.
type ExecOpt func(*execOptions)

type execOptions struct {
	valid     *temporal.Interval // write: assert this valid interval
	validAsOf *temporal.Date     // read: valid-time point predicate
	asOfLSN   uint64             // read: transaction-time snapshot
	asOf      *relstore.Snapshot // read: a transaction-time version the caller pinned
}

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
// version published at the given LSN (the same snapshot ReadAsOf
// serves), pinned for the duration of the statement.
func AsOfTransactionTime(lsn uint64) ExecOpt {
	return func(o *execOptions) { o.asOfLSN = lsn }
}

// AtSnapshot runs a SELECT/EXPLAIN on a version the caller pinned with
// DB.SnapshotAt; the caller releases it. The server resolves as_of_lsn
// this way before it queues a request, so time spent waiting for an
// execution slot cannot carry the version past the retention horizon.
func AtSnapshot(sn *relstore.Snapshot) ExecOpt {
	return func(o *execOptions) { o.asOf = sn }
}

// resolveExecOpts folds the option list and validates the combination
// against the statement class (isRead = select/explain).
func resolveExecOpts(opts []ExecOpt, isRead bool) (execOptions, error) {
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.valid != nil {
		if isRead {
			return o, fmt.Errorf("core: WithValidTime applies to mutations; use AsOfValidTime to query")
		}
		if !o.valid.Valid() {
			return o, fmt.Errorf("core: WithValidTime: empty interval %s", *o.valid)
		}
	}
	if !isRead && (o.validAsOf != nil || o.asOfLSN != 0 || o.asOf != nil) {
		return o, fmt.Errorf("core: AsOfValidTime/AsOfTransactionTime apply to SELECT/EXPLAIN only")
	}
	return o, nil
}

// readCtx threads the valid-time predicate to the engine, which pushes
// vstart<=d AND vend>=d into every scan of a valid-capable source.
func (o execOptions) readCtx(ctx context.Context) context.Context {
	if o.validAsOf != nil {
		return sqlengine.WithValidAsOf(ctx, *o.validAsOf)
	}
	return ctx
}

// execRead runs the SELECT/EXPLAIN side of an optioned Exec call:
// transaction-time option pins a retained version, valid-time option
// rides the context into the scan layer.
func (s *System) execRead(ctx context.Context, sql string, o execOptions) (*sqlengine.Result, error) {
	ctx = o.readCtx(ctx)
	sn := o.asOf
	if sn == nil && o.asOfLSN != 0 {
		var err error
		if sn, err = s.DB.SnapshotAt(o.asOfLSN); err != nil {
			return nil, err
		}
		defer sn.Release()
	}
	if sn != nil {
		return s.Engine.ExecTracedAtCtx(ctx, sql, nil, sn)
	}
	return s.Engine.ExecCtx(ctx, sql)
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
