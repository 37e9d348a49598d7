package blockzip

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"archis/internal/htable"
	"archis/internal/relstore"
	"archis/internal/segment"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// CompressedStore wraps a usefulness-clustered attribute store and
// moves its frozen segments into BlockZIP blocks stored as BLOBs
// (paper Section 8.2): blocks live in `<attr>_blob(blockno, startsid,
// endsid, blockblob)` and `<attr>_segrange(segno, startblock,
// endblock, segstart, segend)` maps segments to block ranges. The live
// segment stays uncompressed in the base table and keeps absorbing
// updates.
//
// CompressedStore implements both htable.AttrStore (updates delegate
// to the live segment) and sqlengine.VirtualTable (scans union
// decompressed blocks with live rows), so translated SQL/XML queries
// run unchanged over compressed storage.
type CompressedStore struct {
	Seg      *segment.Store
	db       *relstore.Database
	blob     *relstore.Table
	segrange *relstore.Table

	compressed map[int64]bool
	nextBlock  int64
	blockSize  int
	whole      bool // ablation: one stream per segment instead of blocks
	columnar   bool // write new blocks in the columnar (v2) encoding

	// mu guards colSegs and compRows: the compression writer mutates
	// them while concurrent readers consult them (EstimateScan on the
	// live store, BindSnapshot taking its copies). compressed and
	// nextBlock are writer-private and need no lock.
	mu sync.RWMutex

	// colSegs marks segments whose blocks are columnar-encoded, so
	// EstimateScan can report columnar stats per range without reading
	// any blob. Populated on compression and, for reopened stores, by
	// probing each range's first block (see OpenCompressedStore).
	colSegs map[int64]bool

	// compRows counts rows moved into blocks, giving the planner's
	// EstimateScan an observed rows-per-block average.
	compRows int64

	// parent is set on snapshot-bound read views (BindSnapshot): the
	// live store whose Decompressions counter absorbs this view's
	// decompression work.
	parent *CompressedStore

	// Decompressions counts block decompressions (the CPU side of the
	// paper's I/O-vs-CPU trade). Scans update it atomically; use
	// DecompressionCount to read it while scans may be in flight.
	Decompressions int64
}

// DecompressionCount reads the decompression counter; safe to call
// concurrently with scans.
func (cs *CompressedStore) DecompressionCount() int64 {
	return atomic.LoadInt64(cs.decompCounter())
}

// decompCounter resolves the decompression counter scans should bump:
// snapshot-bound views account against their live parent.
func (cs *CompressedStore) decompCounter() *int64 {
	if cs.parent != nil {
		return &cs.parent.Decompressions
	}
	return &cs.Decompressions
}

// BindSnapshot implements sqlengine.SnapshotBinder: the returned view
// reads the snapshot's frozen blob/segrange/base tables through a
// snapshot-bound segment store, with private copies of the fields the
// compression writer mutates. The decoded-block cache keys by table
// identity and block number — both stable across versions — so views
// share it with the live store.
func (cs *CompressedStore) BindSnapshot(sn *relstore.Snapshot) (sqlengine.VirtualTable, error) {
	seg, err := cs.Seg.BindSnapshot(sn)
	if err != nil {
		return nil, err
	}
	blob, err := sn.MustTable(cs.blob.Name())
	if err != nil {
		return nil, err
	}
	segrange, err := sn.MustTable(cs.segrange.Name())
	if err != nil {
		return nil, err
	}
	cs.mu.RLock()
	colSegs := make(map[int64]bool, len(cs.colSegs))
	for k, v := range cs.colSegs {
		colSegs[k] = v
	}
	compRows := cs.compRows
	cs.mu.RUnlock()
	return &CompressedStore{
		Seg:       seg.(*segment.Store),
		db:        cs.db,
		blob:      blob,
		segrange:  segrange,
		colSegs:   colSegs,
		compRows:  compRows,
		blockSize: cs.blockSize,
		whole:     cs.whole,
		columnar:  cs.columnar,
		parent:    cs,
	}, nil
}

// BlobTableName and SegRangeTableName name the side tables.
func BlobTableName(attrTable string) string     { return attrTable + "_blob" }
func SegRangeTableName(attrTable string) string { return attrTable + "_segrange" }

// Options tune a compressed store.
type Options struct {
	BlockSize     int  // DefaultBlockSize if zero
	WholeSegments bool // compress each segment as one stream (ablation)
	// Columnar writes newly frozen segments in the columnar block
	// encoding (format v2). Off restores the legacy row-blob encoding
	// bit for bit. Reads always accept both formats, per block.
	Columnar bool
}

// NewCompressedStore creates the blob and segrange tables for seg.
func NewCompressedStore(db *relstore.Database, seg *segment.Store, opts Options) (*CompressedStore, error) {
	if opts.BlockSize == 0 {
		opts.BlockSize = DefaultBlockSize
	}
	name := seg.TableName()
	blob, err := db.CreateTable(relstore.NewSchema(BlobTableName(name),
		relstore.Col("blockno", relstore.TypeInt),
		relstore.Col("startsid", relstore.TypeInt),
		relstore.Col("endsid", relstore.TypeInt),
		relstore.Col("blockblob", relstore.TypeBytes)))
	if err != nil {
		return nil, err
	}
	segrange, err := db.CreateTable(relstore.NewSchema(SegRangeTableName(name),
		relstore.Col("segno", relstore.TypeInt),
		relstore.Col("startblock", relstore.TypeInt),
		relstore.Col("endblock", relstore.TypeInt),
		relstore.Col("segstart", relstore.TypeDate),
		relstore.Col("segend", relstore.TypeDate)))
	if err != nil {
		return nil, err
	}
	return &CompressedStore{
		Seg:        seg,
		db:         db,
		blob:       blob,
		segrange:   segrange,
		compressed: map[int64]bool{},
		colSegs:    map[int64]bool{},
		nextBlock:  1,
		blockSize:  opts.BlockSize,
		whole:      opts.WholeSegments,
		columnar:   opts.Columnar && !opts.WholeSegments,
	}, nil
}

// sid gives the (segno, id) clustering key used for block ranges.
func sid(segno, id int64) int64 { return segno<<32 | (id & 0xffffffff) }

// PendingFrozen counts frozen segments not yet compressed — the probe
// core.CompressFrozen uses to early-exit without entering the write
// path. Like CompressFrozen itself it must run from the writer (the
// compressed set is writer-private).
func (cs *CompressedStore) PendingFrozen() (int, error) {
	segs, err := cs.Seg.Segments()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sg := range segs {
		if !cs.compressed[sg.SegNo] {
			n++
		}
	}
	return n, nil
}

// CompressFrozen compresses every frozen segment that has not been
// compressed yet, removing its rows from the base table.
func (cs *CompressedStore) CompressFrozen() error {
	segs, err := cs.Seg.Segments()
	if err != nil {
		return err
	}
	for _, sg := range segs {
		if cs.compressed[sg.SegNo] {
			continue
		}
		if err := cs.compressSegment(sg); err != nil {
			return err
		}
	}
	return nil
}

func (cs *CompressedStore) compressSegment(sg segment.SegmentInterval) error {
	base := cs.Seg.Table()
	type rec struct {
		sid int64
		enc []byte
		rid relstore.RID
	}
	var recs []rec
	err := base.ScanBorrow(
		[]relstore.ZoneBound{{Col: 0, Op: "=", Bound: sg.SegNo}},
		func(rid relstore.RID, row relstore.Row) bool {
			if row[0].I != sg.SegNo {
				return true
			}
			recs = append(recs, rec{
				sid: sid(sg.SegNo, row[1].I),
				enc: relstore.EncodeRow(nil, row, true),
				rid: rid,
			})
			return true
		})
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		cs.compressed[sg.SegNo] = true
		return nil
	}
	// Rows were frozen sorted by id; keep sid order stable anyway.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].sid < recs[j].sid })

	encoded := make([][]byte, len(recs))
	for i, r := range recs {
		encoded[i] = r.enc
	}
	var blocks []Block
	switch {
	case cs.whole:
		b, err := CompressWhole(encoded)
		if err != nil {
			return err
		}
		blocks = []Block{b}
	case cs.columnar:
		// Re-encode per attribute: the sorted rows decompose into
		// delta-friendly columns. The encoded blobs were built from
		// borrowed rows, so decode them back rather than retaining
		// aliases into scan storage.
		rows := make([]relstore.Row, len(recs))
		for i, r := range recs {
			row, _, _, derr := relstore.DecodeRow(r.enc)
			if derr != nil {
				return derr
			}
			rows[i] = row
		}
		if blocks, err = CompressColumnar(rows, cs.blockSize); err != nil {
			return err
		}
		cs.mu.Lock()
		cs.colSegs[sg.SegNo] = true
		cs.mu.Unlock()
	default:
		if blocks, err = Compress(encoded, cs.blockSize); err != nil {
			return err
		}
	}

	startBlock := cs.nextBlock
	idx := 0
	for _, b := range blocks {
		first := recs[idx].sid
		last := recs[idx+b.Records-1].sid
		if _, err := cs.blob.Insert(relstore.Row{
			relstore.Int(cs.nextBlock), relstore.Int(first), relstore.Int(last),
			relstore.Bytes(b.Data)}); err != nil {
			return err
		}
		cs.nextBlock++
		idx += b.Records
	}
	if _, err := cs.segrange.Insert(relstore.Row{
		relstore.Int(sg.SegNo), relstore.Int(startBlock), relstore.Int(cs.nextBlock - 1),
		relstore.DateV(sg.Start), relstore.DateV(sg.End)}); err != nil {
		return err
	}
	// Drop the frozen rows from the base table.
	for _, r := range recs {
		if err := base.Delete(r.rid); err != nil {
			return err
		}
	}
	if err := base.Compact(); err != nil {
		return err
	}
	if err := cs.reattachLiveMap(); err != nil {
		return err
	}
	cs.compressed[sg.SegNo] = true
	cs.mu.Lock()
	cs.compRows += int64(len(recs))
	cs.mu.Unlock()
	return nil
}

// reattachLiveMap rebuilds the segment store's live map after Compact
// shuffled RIDs (delegated via a fresh archive-less scan).
func (cs *CompressedStore) reattachLiveMap() error {
	return cs.Seg.RebuildLiveMap()
}

// ---- htable.AttrStore delegation (updates hit the live segment) ----

func (cs *CompressedStore) TableName() string { return cs.Seg.TableName() }

func (cs *CompressedStore) Append(id int64, value relstore.Value, start temporal.Date, valid temporal.Interval) error {
	return cs.Seg.Append(id, value, start, valid)
}

func (cs *CompressedStore) Close(id int64, end temporal.Date) error {
	return cs.Seg.Close(id, end)
}

func (cs *CompressedStore) Rewrite(id int64, value relstore.Value, valid temporal.Interval) error {
	return cs.Seg.Rewrite(id, value, valid)
}

// ScanHistory unions compressed and uncompressed versions; the read's
// Scope already yields each logical version once.
func (cs *CompressedStore) ScanHistory(fn func(id int64, value relstore.Value, start, end temporal.Date, valid temporal.Interval) bool) error {
	return cs.Scan(nil, func(row relstore.Row) bool {
		valid := htable.DefaultValid(row[3].Date())
		if len(row) >= 7 {
			valid = temporal.Interval{Start: row[5].Date(), End: row[6].Date()}
		}
		return fn(row[1].I, row[2], row[3].Date(), row[4].Date(), valid)
	})
}

// ---- sqlengine.VirtualTable ----

// Schema returns the segmented attribute schema.
func (cs *CompressedStore) Schema() relstore.Schema { return cs.Seg.Table().Schema() }

// defaultRowsPerBlock is the assumed block population when the store
// has no observed average (e.g. blocks restored from a snapshot).
const defaultRowsPerBlock = 32

// EstimateScan implements the sqlengine planner's ScanEstimator:
// uncompressed rows come from the clustered store's zone-map estimate
// and compressed rows from the block count of the segment ranges in
// the read's Scope (segno bounds and the time-derived lower end),
// scaled by the observed rows-per-block average. No block is
// decompressed.
func (cs *CompressedStore) EstimateScan(bounds []relstore.ZoneBound) relstore.ScanEstimate {
	est := cs.Seg.EstimateScan(bounds)
	sc := cs.Seg.Scope(bounds)
	cs.mu.RLock()
	compRows := cs.compRows
	perBlock := int64(defaultRowsPerBlock)
	totalBlocks := int64(cs.blob.LiveRows())
	if totalBlocks > 0 && compRows > 0 {
		perBlock = (compRows + totalBlocks - 1) / totalBlocks
	}
	ranges, err := cs.ranges(sc.Lo, sc.Hi)
	if err != nil {
		cs.mu.RUnlock()
		return est
	}
	var blocks, colBlocks int64
	for _, rg := range ranges {
		blocks += rg.endBlock - rg.startBlock + 1
		if cs.colSegs[rg.segno] {
			colBlocks += rg.endBlock - rg.startBlock + 1
		}
	}
	cs.mu.RUnlock()
	est.Rows += int(blocks * perBlock)
	est.Pages += int(blocks)
	est.ColumnarBlocks += int(colBlocks)
	est.TotalRows += int(totalBlocks * perBlock)
	est.TotalPages += int(totalBlocks)
	return est
}

// SegmentRange implements sqlengine.SegmentRanger: compressed and
// uncompressed rows share the segment store's Scope.
func (cs *CompressedStore) SegmentRange(bounds []relstore.ZoneBound) (lo, hi int64, narrowed bool) {
	return cs.Seg.SegmentRange(bounds)
}

// Scan drains ScanMorsels in order with borrowed rows: the serial read
// for callers outside the engine.
func (cs *CompressedStore) Scan(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	return relstore.DrainMorsels(cs, bounds, fn)
}

// ranges lists the compressed segment ranges intersecting
// [segLo, segHi], newest segment first.
func (cs *CompressedStore) ranges(segLo, segHi int64) ([]srange, error) {
	var ranges []srange
	err := cs.segrange.ScanBorrow(nil, func(_ relstore.RID, row relstore.Row) bool {
		if row[0].I < segLo || row[0].I > segHi {
			return true
		}
		ranges = append(ranges, srange{row[0].I, row[1].I, row[2].I})
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].segno > ranges[j].segno })
	return ranges, nil
}

// srange is one compressed segment's block range.
type srange struct {
	segno, startBlock, endBlock int64
}

// decodeBlock inflates and fully decodes one block: a columnar block
// into a batch with every column present, a legacy row blob into rows
// backed by one Value arena (one backing allocation per block, as
// page.decodeRows). Decoded Values own their string/byte payloads (the
// codecs copy), so the result never pins the inflate buffer.
func (cs *CompressedStore) decodeBlock(blob []byte) (relstore.DecodedBlock, error) {
	var blk relstore.DecodedBlock
	if IsColumnarBlock(blob) {
		blk.Batch = new(relstore.ColBatch)
		if err := DecodeColumnarBatch(blob, nil, blk.Batch); err != nil {
			return relstore.DecodedBlock{}, err
		}
	} else {
		recs, err := Decompress(blob)
		if err != nil {
			return relstore.DecodedBlock{}, err
		}
		arena := make([]relstore.Value, 0, 4*len(recs))
		bounds := make([]int32, len(recs)+1)
		for i, enc := range recs {
			if arena, _, _, err = relstore.DecodeRowInto(arena, enc); err != nil {
				return relstore.DecodedBlock{}, err
			}
			bounds[i+1] = int32(len(arena))
		}
		blk.Rows = make([]relstore.Row, len(recs))
		for i := range blk.Rows {
			blk.Rows[i] = relstore.Row(arena[bounds[i]:bounds[i+1]:bounds[i+1]])
		}
	}
	atomic.AddInt64(cs.decompCounter(), 1)
	return blk, nil
}

// blockRows returns the decoded rows of one block through the
// decoded-block cache (warm queries skip inflate and decode). A legacy
// block's rows are the shared cache entry; a columnar block's rows are
// built from its batch, per call. Either way callers must never mutate
// them. Blocks are append-only — a block number is never rewritten — so
// entries need no invalidation beyond DropCaches.
func (cs *CompressedStore) blockRows(blockNo int64, blob []byte) ([]relstore.Row, error) {
	blk, ok, err := cs.db.LoadBlock(cs.blob, blockNo, func() (relstore.DecodedBlock, error) {
		return cs.decodeBlock(blob)
	})
	if err == nil && !ok {
		blk, err = cs.decodeBlock(blob)
	}
	if err != nil {
		return nil, err
	}
	if blk.Batch != nil {
		return blk.Batch.Rows(), nil
	}
	return blk.Rows, nil
}

// eachBlock visits the blocks of one compressed segment range in
// block order — under an id equality only those whose [startsid,
// endsid] covers the id — until visit returns false.
func (cs *CompressedStore) eachBlock(rg srange, sc *segment.Scope, visit func(blockNo int64, blob []byte) bool) error {
	blobBounds := []relstore.ZoneBound{
		{Col: 0, Op: ">=", Bound: rg.startBlock},
		{Col: 0, Op: "<=", Bound: rg.endBlock},
	}
	target := sid(rg.segno, sc.ID)
	if sc.HasID {
		blobBounds = append(blobBounds,
			relstore.ZoneBound{Col: 1, Op: "<=", Bound: target},
			relstore.ZoneBound{Col: 2, Op: ">=", Bound: target})
	}
	return cs.blob.ScanBorrow(blobBounds, func(_ relstore.RID, row relstore.Row) bool {
		if row[0].I < rg.startBlock || row[0].I > rg.endBlock || sc.HasID && (row[1].I > target || row[2].I < target) {
			return true
		}
		return visit(row[0].I, row[3].B)
	})
}

// scanRange feeds the rows of one segment range that sc keeps to fn
// (decompressing on block-cache misses), reporting whether fn stopped
// the scan. With borrow=true emitted rows alias shared cache storage;
// with borrow=false each row is a defensive copy.
func (cs *CompressedStore) scanRange(rg srange, sc *segment.Scope, borrow bool, fn func(relstore.Row) bool) (bool, error) {
	stopped := false
	var blockErr error
	err := cs.eachBlock(rg, sc, func(blockNo int64, blob []byte) bool {
		rows, err := cs.blockRows(blockNo, blob)
		if err != nil {
			blockErr = err
			return false
		}
		for _, r := range rows {
			if !sc.Keep(r) {
				continue
			}
			if !borrow {
				r = r.Clone()
			}
			if !fn(r) {
				stopped = true
				return false
			}
		}
		return true
	})
	if err == nil {
		err = blockErr
	}
	return stopped, err
}

// ScanMorsels implements relstore.MorselSource, the store's one read:
// the segment store's morsels (live segment plus any not-yet-compressed
// frozen rows, already filtered by the read's Scope) come first,
// followed by one morsel per compressed segment range (newest first)
// that decompresses and decodes its blocks under the same Scope, so
// segment decompression parallelizes across workers.
func (cs *CompressedStore) ScanMorsels(bounds []relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	sc, out, err := cs.Seg.ScopedMorsels(bounds)
	if err != nil {
		return nil, err
	}
	ranges, err := cs.ranges(sc.Lo, sc.Hi)
	if err != nil {
		return nil, err
	}
	for _, rg := range ranges {
		out = append(out, func(borrow bool, fn func(relstore.Row) bool) (bool, error) {
			return cs.scanRange(rg, &sc, borrow, fn)
		})
	}
	return out, nil
}

// StorageBytes reports the physical footprint of the compressed
// representation: blob pages + segrange + remaining base rows.
func (cs *CompressedStore) StorageBytes() int {
	return cs.blob.ByteSize() + cs.segrange.ByteSize() + cs.Seg.Table().ByteSize()
}

// BlockCount returns the number of stored blocks.
func (cs *CompressedStore) BlockCount() (int, error) {
	n := cs.blob.LiveRows()
	if n < 0 {
		return 0, fmt.Errorf("blockzip: negative block count")
	}
	return n, nil
}
