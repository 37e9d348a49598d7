package sqlengine

import (
	"context"
	"sync"
	"sync/atomic"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// Morsel-parallel single-table execution. A statement qualifies when:
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

// execSingleParallel attempts the parallel path for a single-source
// SELECT. handled=false means the caller should run the serial plan.
func (en *Engine) execSingleParallel(ctx context.Context, stmt *SelectStmt, s *source, conjuncts []Expr, sources []*source, sp *obs.Span) (*Result, bool, error) {
	workers := en.scanWorkers()
	if workers <= 1 {
		return nil, false, nil
	}
	ms, ok := s.morselSource()
	if !ok {
		return nil, false, nil
	}
	plan, err := en.planScan(s, conjuncts, sources)
	if err != nil {
		return nil, true, err
	}
	if plan.eqIndex != nil {
		return nil, false, nil
	}
	layout := layoutFor(s.alias, s.schema)

	var gplan *groupPlan
	if en.isGrouped(stmt) {
		gplan, err = en.compileGrouping(stmt, layout)
		if err != nil {
			return nil, true, err
		}
		if !gplan.mergeable() {
			return nil, false, nil
		}
	}

	morsels, err := ms.ScanMorsels(plan.bounds)
	if err != nil {
		return nil, true, err
	}

	fanout := sp.Child("morsel-fanout")
	fanout.SetAttr("table", s.alias)
	fanout.SetInt("morsels", int64(len(morsels)))
	if plan.est.Planned {
		fanout.SetAttr("access", plan.est.Access)
		fanout.SetInt("est_rows", int64(plan.est.OutRows))
	}
	if workers > len(morsels) {
		workers = len(morsels)
	}
	fanout.SetInt("workers", int64(workers))

	// Rows are borrowed (zero-copy) because everything downstream
	// treats them as read-only.
	outs, err := fanOut(ctx, len(morsels), workers, func(o *morselOut) rowSink {
		return o.sink(gplan, false)
	}, func() func(int, *cancelProbe, rowSink) error {
		return func(i int, cc *cancelProbe, out rowSink) error {
			return runMorsel(morsels[i], plan, cc, out)
		}
	})
	fanout.End()
	if err != nil {
		return nil, true, err
	}
	res, err := en.finishMorsels(stmt, gplan, outs, true, layout, sources, fanout, sp)
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
