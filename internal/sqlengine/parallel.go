package sqlengine

import (
	"context"
	"sync"
	"sync/atomic"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// Morsel-driven reads (Leis et al., "Morsel-Driven Parallelism"):
// every read of a source — a single-source SELECT's scan, a join's
// leading scan, build side, probe or nested-loop inner — is one
// compiled read (sourceRead) drained by readParts over its storage's
// morsels: column batches for a batch read, row morsels otherwise, or
// one unit running an equality-index probe. fanWorkers decides, in one
// place that EXPLAIN shares, how many workers drain them; one worker
// is the serial read.
//
// Workers pull morsels from a shared counter; per-morsel results are
// combined in morsel order, which reproduces the serial row order and
// serial group order exactly, so ORDER BY / DISTINCT / LIMIT /
// GROUP BY / HAVING all run unchanged on top and results are
// identical to Workers=1 (for float SUM/AVG, identical up to the
// addition reassociation noted on sumState.Merge).

// fanOut is the morsel loop every drain shares. With workers > 1, up
// to that many goroutines pull morsel indexes [0, n) from one counter
// and each morsel fills its own part of pl; with workers <= 1 the
// calling goroutine runs the morsels in order into a single part (none
// when n == 0). Either way, the parts concatenated in order reproduce
// the serial drain, so results are identical at any worker count.
// newWorker runs once per worker and returns its morsel runner, so
// per-worker scratch (batch buffers) lives in that closure; each
// worker owns its cancellation probe, whose row counter is
// unsynchronized. The error returned is the earliest failing morsel's
// — what a serial drain would have hit first.
func fanOut(ctx context.Context, n, workers int, pl *pipeline,
	newWorker func() func(i int, cc *cancelProbe, out *pipePart) error) ([]pipePart, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		parts := make([]pipePart, min(n, 1))
		if n == 0 {
			return parts, nil
		}
		cc := newCancelProbe(ctx)
		run := newWorker()
		pl.open(&parts[0])
		for i := 0; i < n; i++ {
			if cc.check() {
				return nil, cc.err()
			}
			if err := run(i, cc, &parts[0]); err != nil {
				return nil, err
			}
		}
		return parts, nil
	}
	parts := make([]pipePart, n)
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
				pl.open(&parts[i])
				if err := run(i, cc, &parts[i]); err != nil {
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

// morsels lists the read's work units and the fanOut worker that
// drains them: one unit running the equality-index probe, the batch
// morsels of a batch read, or the storage's row morsels. Row morsels
// run borrowed (zero-copy): the sink copies what it keeps. Listing
// them decodes nothing.
func (rd *sourceRead) morsels() (int, func() func(int, *cancelProbe, *pipePart) error, error) {
	if rd.plan.eqIndex != nil {
		return 1, func() func(int, *cancelProbe, *pipePart) error {
			return func(_ int, cc *cancelProbe, out *pipePart) error { return rd.probeIndex(cc, out) }
		}, nil
	}
	if rd.batch != nil {
		morsels, err := rd.batch.ScanBatches(rd.plan.bounds, rd.s.needed)
		return len(morsels), rd.batchWorker(morsels), err
	}
	var storage relstore.MorselSource = rd.s.virtual
	if rd.s.base != nil {
		storage = rd.s.base
	}
	morsels, err := storage.ScanMorsels(rd.plan.bounds)
	return len(morsels), func() func(int, *cancelProbe, *pipePart) error {
		return func(i int, cc *cancelProbe, out *pipePart) error {
			return runMorsel(morsels[i], rd.plan, cc, out)
		}
	}, err
}

// fanWorkers is the one fan-out rule, shared by readParts and
// EXPLAIN: how many workers drain the read's n morsels. A batch read
// fans out at any worker count. A row read fans out only when rows is
// set (it streams into probe stages or the statement's consumer, not
// just into kept rows), it runs no index probe and it has at least two
// morsels. merge=false — the consumer's aggregate cannot merge partial
// results — keeps one worker.
func (rd *sourceRead) fanWorkers(n int, rows, merge bool) int {
	if !merge || rd.batch == nil && (!rows || rd.plan.eqIndex != nil || n < 2) {
		return 1
	}
	return max(1, min(rd.s.workers, n))
}

// readParts drains rd through pipeline pl and returns its parts in
// morsel order: concatenated, they reproduce the serial read at any
// worker count. rows and merge feed fanWorkers. A fan-out is noted on
// sp as workers/morsels. On the batch path a row put into pl is
// scratch, valid only during the call: what keeps it copies it.
func readParts(ctx context.Context, rd *sourceRead, rows, merge bool, sp *obs.Span, pl *pipeline) ([]pipePart, error) {
	n, worker, err := rd.morsels()
	if err != nil {
		return nil, err
	}
	w := rd.fanWorkers(n, rows, merge)
	if w > 1 {
		sp.SetInt("workers", int64(w))
		sp.SetInt("morsels", int64(n))
	}
	return fanOut(ctx, n, w, pl, worker)
}

// runMorsel drains one row morsel through the plan's residual filter
// into out. Rows are borrowed. cc is the calling worker's
// cancellation probe (nil when the query is uncancellable).
func runMorsel(m relstore.MorselFunc, plan *scanPlan, cc *cancelProbe, out *pipePart) error {
	var rowErr error
	_, err := m(true, func(row relstore.Row) bool {
		if cc.tick() {
			rowErr = cc.err()
			return false
		}
		if ok, err := plan.filter.holds(row); !ok {
			rowErr = err
			return err == nil
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
