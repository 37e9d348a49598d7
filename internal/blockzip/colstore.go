package blockzip

import (
	"sync"
	"sync/atomic"

	"archis/internal/relstore"
	"archis/internal/segment"
)

// Batch-granular scanning: the columnar sibling of ScanMorsels. The
// engine's vectorized executor (sqlengine's BatchSource) asks for the
// columns it needs; each batch morsel streams column batches with this
// store's segno-range / staleness / id filter already applied through
// the selection vector. Concatenating the selected rows of every batch
// in morsel order reproduces exactly the ScanMorsels row sequence, the
// same determinism contract ScanMorsels gives the row executor.

// batchRows is the target batch size for row-backed batches (the live
// segment and legacy row-blob blocks). Columnar blocks emit one batch
// per block, whatever its row count.
const batchRows = 1024

// ScanBatches implements the engine's batch source: uncompressed
// morsels first (live segment plus not-yet-compressed frozen rows),
// adapted row-to-batch, then one batch morsel per compressed segment
// range, newest segment first. needed marks the columns the consumer
// reads (nil = all); the store adds the columns its own filter needs,
// and columnar blocks decode only that union.
func (cs *CompressedStore) ScanBatches(bounds []relstore.ZoneBound, needed []bool) ([]relstore.BatchFunc, error) {
	sc, segMorsels, err := cs.Seg.ScopedMorsels(bounds)
	if err != nil {
		return nil, err
	}
	ncols := len(cs.Schema().Columns)

	// The store filter reads segno (col 0) and tend (col 4), plus id
	// (col 1) under an id-equality bound; widen the decode set so those
	// vectors are always present.
	storeNeeded := needed
	if needed != nil {
		storeNeeded = make([]bool, ncols)
		copy(storeNeeded, needed)
		storeNeeded[0] = true
		storeNeeded[4] = true
		if sc.HasID {
			storeNeeded[1] = true
		}
	}

	out := make([]relstore.BatchFunc, 0, len(segMorsels)+8)
	for _, m := range segMorsels {
		out = append(out, func(fn func(*relstore.ColBatch) bool) (bool, error) {
			return cs.rowMorselBatches(m, ncols, storeNeeded, fn)
		})
	}

	ranges, err := cs.ranges(sc.Lo, sc.Hi)
	if err != nil {
		return nil, err
	}
	for _, rg := range ranges {
		out = append(out, func(fn func(*relstore.ColBatch) bool) (bool, error) {
			return cs.rangeBatches(rg, &sc, storeNeeded, ncols, fn)
		})
	}
	return out, nil
}

// vecI reads the raw int payload of row i, mirroring the row filter's
// direct .I access: Int/Date/Bool carry it in the I vector, everything
// else (NULL included) reconstructs the Value and takes its I field.
func vecI(v *relstore.ColVec, i int) int64 {
	if !v.Present {
		return 0
	}
	switch v.KindAt(i) {
	case relstore.TypeInt, relstore.TypeDate, relstore.TypeBool:
		return v.I[i]
	default:
		return v.ValueAt(i).I
	}
}

// batchScratch is the working set one batch morsel reuses across all
// its batches and, through batchScratchPool, across morsels: the
// adapter's row buffer, the batch it fills (or a scratch decode
// target), the header copy that carries a selection, and the selection
// itself. A batch handed to fn is valid only inside the call, so
// nothing a consumer keeps aliases it.
type batchScratch struct {
	rows        []relstore.Row
	batch, view relstore.ColBatch
	sel         []int32
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{rows: make([]relstore.Row, 0, batchRows)}
}}

// putScratch returns sc to the pool without the rows it borrowed or
// the header copy of a cached batch; its own buffers stay for the next
// morsel.
func putScratch(sc *batchScratch) {
	clear(sc.rows)
	sc.rows = sc.rows[:0]
	sc.view = relstore.ColBatch{}
	batchScratchPool.Put(sc)
}

// rowMorselBatches adapts one row morsel of the segment store (the
// uncompressed side, already filtered by the read's Scope) into
// batches: its rows accumulate and flush as row-backed batches of up
// to batchRows. Borrowed rows stay valid for the whole read (storage
// is immutable during a query) and the batch takes their payloads at
// flush.
func (cs *CompressedStore) rowMorselBatches(m relstore.MorselFunc, ncols int, storeNeeded []bool,
	fn func(*relstore.ColBatch) bool) (bool, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer putScratch(sc)
	stopped := false
	flush := func() bool {
		if len(sc.rows) == 0 {
			return true
		}
		sc.batch.SetFromRows(sc.rows, ncols, storeNeeded)
		cs.db.CountColBatch(int64(len(sc.rows)))
		ok := fn(&sc.batch)
		clear(sc.rows)
		sc.rows = sc.rows[:0]
		return ok
	}
	_, err := m(true, func(row relstore.Row) bool {
		sc.rows = append(sc.rows, row)
		if len(sc.rows) >= batchRows {
			if !flush() {
				stopped = true
				return false
			}
		}
		return true
	})
	if err != nil {
		return stopped, err
	}
	if !stopped && !flush() {
		stopped = true
	}
	return stopped, nil
}

// rangeBatches streams one compressed segment range block by block,
// one batch per block, selecting the rows the read's Scope admits. The
// selection always lands on a header copy, so a shared cached batch is
// never written. Like the row filter, the selection reads the raw I
// payloads (vecI), so decoded NULLs behave identically on both paths.
func (cs *CompressedStore) rangeBatches(rg srange, sc *segment.Scope, storeNeeded []bool, ncols int,
	fn func(*relstore.ColBatch) bool) (bool, error) {
	scr := batchScratchPool.Get().(*batchScratch)
	defer putScratch(scr)
	stopped := false
	var blockErr error
	err := cs.eachBlock(rg, sc, func(blockNo int64, blob []byte) bool {
		b, err := cs.blockBatch(blockNo, blob, storeNeeded, ncols, &scr.batch)
		if err != nil {
			blockErr = err
			return false
		}
		view := &scr.view
		*view = *b
		segv, idv, tendv := &view.Cols[0], &view.Cols[1], &view.Cols[4]
		scr.sel = scr.sel[:0]
		for i := 0; i < view.N; i++ {
			if sc.Admits(vecI(segv, i), vecI(idv, i), vecI(tendv, i)) {
				scr.sel = append(scr.sel, int32(i))
			}
		}
		if len(scr.sel) == 0 {
			return true
		}
		view.Sel = scr.sel
		cs.db.CountColBatch(int64(len(scr.sel)))
		if !fn(view) {
			stopped = true
			return false
		}
		return true
	})
	if err == nil {
		err = blockErr
	}
	return stopped, err
}

// blockBatch returns one block as a batch holding at least the needed
// columns. A cached columnar block is its shared, fully decoded batch;
// with no cache configured a columnar block decodes only the needed
// columns into scratch; legacy row blobs go through a row-backed
// scratch batch. Callers must not write the result and must set any
// selection on a copy of its header.
func (cs *CompressedStore) blockBatch(blockNo int64, blob []byte, needed []bool, ncols int,
	scratch *relstore.ColBatch) (*relstore.ColBatch, error) {
	blk, cached, err := cs.db.LoadBlock(cs.blob, blockNo, func() (relstore.DecodedBlock, error) {
		return cs.decodeBlock(blob)
	})
	switch {
	case err != nil:
		return nil, err
	case blk.Batch != nil:
		return blk.Batch, nil
	case !cached && IsColumnarBlock(blob):
		if err := DecodeColumnarBatch(blob, needed, scratch); err != nil {
			return nil, err
		}
		atomic.AddInt64(cs.decompCounter(), 1)
		return scratch, nil
	case !cached:
		if blk, err = cs.decodeBlock(blob); err != nil {
			return nil, err
		}
	}
	scratch.SetFromRows(blk.Rows, ncols, needed)
	return scratch, nil
}
