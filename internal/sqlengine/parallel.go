package sqlengine

import (
	"context"
	"sync"
	"sync/atomic"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// Morsel-parallel single-table execution (execSingleMorsels; a batch
// read also drains here when it stays serial). A statement fans out
// when:
//
//   - it reads exactly one source whose storage provides morsels,
//   - the planner found no equality-index probe (point lookups beat
//     parallel scans), and
//   - it is a pure scan+filter, or a scan+aggregate whose aggregates
//     all support partial-result merging (MergeableAggState).
//
// Workers pull morsels from a shared counter; per-morsel results are
// combined in morsel order, which reproduces the serial row order and
// serial group order exactly, so ORDER BY / DISTINCT / LIMIT /
// GROUP BY / HAVING all run unchanged on top and results are
// identical to Workers=1 (for float SUM/AVG, identical up to the
// addition reassociation noted on sumState.Merge).

// fanOut is the morsel loop every drain shares. With workers > 1, up
// to that many goroutines pull morsel indexes [0, n) from one counter
// and each morsel fills its own part; with workers <= 1 the calling
// goroutine runs the morsels in order into a single part (none when
// n == 0). Either way, the parts concatenated in order reproduce the
// serial drain, so results are identical at any worker count. sink
// opens a part and returns where its rows go.
// newWorker runs once per worker and returns its morsel runner, so
// per-worker scratch (batch buffers) lives in that closure; each
// worker owns its cancellation probe, whose row counter is
// unsynchronized. The error returned is the earliest failing morsel's
// — what a serial drain would have hit first.
func fanOut[P any](ctx context.Context, n, workers int, sink func(*P) rowSink,
	newWorker func() func(i int, cc *cancelProbe, out rowSink) error) ([]P, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		parts := make([]P, min(n, 1))
		if n == 0 {
			return parts, nil
		}
		cc := newCancelProbe(ctx)
		run, out := newWorker(), sink(&parts[0])
		for i := 0; i < n; i++ {
			if cc.check() {
				return nil, cc.err()
			}
			if err := run(i, cc, out); err != nil {
				return nil, err
			}
		}
		return parts, nil
	}
	parts := make([]P, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := newCancelProbe(ctx)
			run := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if cc.check() {
					errs[i] = cc.err()
					failed.Store(true)
					return
				}
				if err := run(i, cc, sink(&parts[i])); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// execSingleMorsels runs a single-source SELECT over its storage's
// morsels: column batches when the read is a batch read (any worker
// count), else row morsels when Workers > 1 and the storage provides
// them. handled=false means the caller should run the serial plan. A
// batch read that stays serial drains under a "scan" span into one
// consumer part (any aggregate works); a fan-out runs under a
// "morsel-fanout" span with one part per morsel, merged in morsel
// order, so results are identical to the serial drain. A row read
// whose aggregate cannot merge partials is left to the serial plan.
func (en *Engine) execSingleMorsels(ctx context.Context, stmt *SelectStmt, s *source, conjuncts []Expr, sources []*source, sp *obs.Span) (*Result, bool, error) {
	workers := en.scanWorkers()
	ms, rowMorsels := s.morselSource()
	_, batchSource := s.virtual.(BatchSource)
	if !(batchSource && en.Columnar) && (workers <= 1 || !rowMorsels) {
		return nil, false, nil
	}
	rd, err := en.compileRead(s, conjuncts, sources)
	if err != nil {
		return nil, true, err
	}
	if rd.batch == nil && (workers <= 1 || !rowMorsels || rd.plan.eqIndex != nil) {
		return nil, false, nil
	}
	c, err := en.compileConsumer(stmt, nil, layoutFor(s.alias, s.schema), sources)
	if err != nil {
		return nil, true, err
	}
	if c.serial {
		if rd.batch == nil {
			return nil, false, nil
		}
		workers = 1
	}

	est := rd.plan.est
	access := ""
	if est.Planned {
		access = est.Access
	}
	var n int
	var worker func() func(int, *cancelProbe, rowSink) error
	if rd.batch != nil {
		morsels, err := rd.batch.ScanBatches(rd.plan.bounds, s.needed)
		if err != nil {
			return nil, true, err
		}
		n, worker, access = len(morsels), rd.batchWorker(morsels), "colscan"
	} else {
		morsels, err := ms.ScanMorsels(rd.plan.bounds)
		if err != nil {
			return nil, true, err
		}
		// Rows are borrowed (zero-copy): the consumer copies what it
		// keeps.
		n, worker = len(morsels), func() func(int, *cancelProbe, rowSink) error {
			return func(i int, cc *cancelProbe, out rowSink) error {
				return runMorsel(morsels[i], rd.plan, cc, out)
			}
		}
	}
	workers = min(workers, n)
	fan := rd.batch == nil || workers > 1
	name, agg := "morsel-fanout", "agg-merge"
	if !fan {
		name, agg = "scan", ""
	}
	ds := sp.Child(name)
	ds.SetAttr("table", s.alias)
	if access != "" {
		ds.SetAttr("access", access)
	}
	if fan {
		ds.SetInt("morsels", int64(n))
	}
	if est.Planned {
		ds.SetInt("est_rows", int64(est.OutRows))
	}
	if fan {
		ds.SetInt("workers", int64(workers))
	}
	parts, err := fanOut(ctx, n, workers, c.sink, worker)
	ds.End()
	if err != nil {
		return nil, true, err
	}
	if c.gplan == nil {
		ds.AddRows(0, offered(parts))
	}
	res, err := en.finish(c, parts, agg, sp)
	return res, true, err
}

// runMorsel drains one row morsel through the plan's residual filter
// into out. Rows are borrowed. cc is the calling worker's
// cancellation probe (nil when the query is uncancellable).
func runMorsel(m relstore.MorselFunc, plan *scanPlan, cc *cancelProbe, out rowSink) error {
	var rowErr error
	_, err := m(true, func(row relstore.Row) bool {
		if cc.tick() {
			rowErr = cc.err()
			return false
		}
		if plan.filter != nil {
			v, err := plan.filter(row)
			if err != nil {
				rowErr = err
				return false
			}
			if !v.AsBool() {
				return true
			}
		}
		if err := out.put(row); err != nil {
			rowErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = rowErr
	}
	return err
}
