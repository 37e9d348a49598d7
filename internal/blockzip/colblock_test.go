package blockzip

import (
	"bytes"
	"fmt"
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// mixedRows builds a row set exercising every columnar section shape:
// delta-friendly ints and dates (including Forever), a dictionary
// column with heavy repeats, floats, bools, an opaque bytes column and
// a mixed-kind column with NULLs.
func mixedRows(n int) []relstore.Row {
	day := temporal.MustParseDate("1990-01-01")
	rows := make([]relstore.Row, n)
	for i := 0; i < n; i++ {
		end := relstore.DateV(day.AddDays(i + 30))
		if i%7 == 0 {
			end = relstore.DateV(temporal.Forever)
		}
		var mixed relstore.Value
		switch i % 3 {
		case 0:
			mixed = relstore.Int(int64(i * 11))
		case 1:
			mixed = relstore.Null
		default:
			mixed = relstore.String_(fmt.Sprintf("m%d", i%5))
		}
		rows[i] = relstore.Row{
			relstore.Int(int64(100000 + i)),
			relstore.String_(fmt.Sprintf("title-%d", i%4)),
			relstore.Float(float64(i) * 1.5),
			relstore.Bool(i%2 == 0),
			relstore.DateV(day.AddDays(i)),
			end,
			relstore.Bytes([]byte{byte(i), 0x00, byte(i >> 8)}),
			mixed,
		}
	}
	return rows
}

func rowKey(r relstore.Row) string { return string(relstore.EncodeRow(nil, r, true)) }

func TestColumnarRoundTrip(t *testing.T) {
	rows := mixedRows(300)
	blocks, err := CompressColumnar(rows, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 2 {
		t.Fatalf("expected multiple blocks at this block size, got %d", len(blocks))
	}
	var got []relstore.Row
	total := 0
	for _, blk := range blocks {
		if !IsColumnarBlock(blk.Data) {
			t.Fatal("columnar block not recognized by IsColumnarBlock")
		}
		dec, err := decodeColumnarRows(blk.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != blk.Records {
			t.Fatalf("block decodes %d rows, header says %d", len(dec), blk.Records)
		}
		total += blk.Records
		got = append(got, dec...)
	}
	if total != len(rows) {
		t.Fatalf("blocks carry %d rows, want %d", total, len(rows))
	}
	for i := range rows {
		if rowKey(got[i]) != rowKey(rows[i]) {
			t.Fatalf("row %d differs after round trip:\n got %v\nwant %v", i, got[i], rows[i])
		}
	}
}

func TestColumnarBlocksAreBlockSized(t *testing.T) {
	blocks, err := CompressColumnar(mixedRows(300), 512)
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks {
		if len(blk.Data) != 512 {
			t.Errorf("block %d is %d bytes, want exactly 512", i, len(blk.Data))
		}
	}
}

func TestColumnarProjection(t *testing.T) {
	rows := mixedRows(64)
	blocks, err := CompressColumnar(rows, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 {
		t.Fatalf("want one block, got %d", len(blocks))
	}
	needed := []bool{true, false, false, false, true} // shorter than ncols: rest skipped
	var b relstore.ColBatch
	if err := DecodeColumnarBatch(blocks[0].Data, needed, &b); err != nil {
		t.Fatal(err)
	}
	if b.N != len(rows) || len(b.Cols) != len(rows[0]) {
		t.Fatalf("batch shape %dx%d, want %dx%d", b.N, len(b.Cols), len(rows), len(rows[0]))
	}
	for c := range b.Cols {
		want := c < len(needed) && needed[c]
		if b.Cols[c].Present != want {
			t.Fatalf("col %d Present=%v, want %v", c, b.Cols[c].Present, want)
		}
	}
	for i := range rows {
		if got := b.Cols[0].ValueAt(i); rowKey(relstore.Row{got}) != rowKey(relstore.Row{rows[i][0]}) {
			t.Fatalf("col 0 row %d = %v, want %v", i, got, rows[i][0])
		}
		if got := b.Cols[4].ValueAt(i); got.I != rows[i][4].I {
			t.Fatalf("col 4 row %d = %v, want %v", i, got, rows[i][4])
		}
	}
}

// TestColumnarLegacyInterop pins the format-detection contract: legacy
// row blobs are never mistaken for columnar blocks (the zlib CMF byte
// can't be 0xC1), and the columnar decoder rejects them with an error
// rather than misreading.
func TestColumnarLegacyInterop(t *testing.T) {
	records := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	legacy, err := Compress(records, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if IsColumnarBlock(legacy[0].Data) {
		t.Fatal("legacy row blob misdetected as columnar")
	}
	var b relstore.ColBatch
	if err := DecodeColumnarBatch(legacy[0].Data, nil, &b); err == nil {
		t.Fatal("decoding a legacy blob as columnar should fail")
	}

	blocks, err := CompressColumnar(mixedRows(8), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(blocks[0].Data)
	bad[1] = colVersion + 1
	if err := DecodeColumnarBatch(bad, nil, &b); err == nil {
		t.Fatal("unknown columnar version should fail")
	}
	if _, err := decodeColumnarRows([]byte{colMagic, colVersion, 0xff, 0xee}); err == nil {
		t.Fatal("garbage after the header should fail")
	}
}

// TestColumnarEstimateScan pins the planner-visible stats: a columnar
// store attributes its compressed blocks to ColumnarBlocks, zone
// bounds prune the count, and the legacy encoding reports zero.
func TestColumnarEstimateScan(t *testing.T) {
	cs, _, _ := newCompressed(t, Options{BlockSize: 512, Columnar: true})
	est := cs.EstimateScan(nil)
	if est.ColumnarBlocks == 0 {
		t.Fatal("columnar store reports no columnar blocks")
	}
	if est.ColumnarBlocks > est.Pages {
		t.Fatalf("ColumnarBlocks %d exceeds Pages %d", est.ColumnarBlocks, est.Pages)
	}
	pruned := cs.EstimateScan([]relstore.ZoneBound{{Col: 0, Op: "=", Bound: 1}})
	if pruned.ColumnarBlocks >= est.ColumnarBlocks {
		t.Fatalf("segno bound did not prune columnar blocks: %d vs %d", pruned.ColumnarBlocks, est.ColumnarBlocks)
	}
	if pruned.ColumnarBlocks == 0 {
		t.Fatal("segment 1 should still hold columnar blocks")
	}

	legacy, _, _ := newCompressed(t, Options{BlockSize: 512, Columnar: false})
	if got := legacy.EstimateScan(nil).ColumnarBlocks; got != 0 {
		t.Fatalf("row-blob store reports %d columnar blocks, want 0", got)
	}
}

// TestColumnarReopenDetectsEncoding reopens a store and checks the
// per-segment encoding is re-derived from the block bytes themselves:
// a columnar archive keeps its ColumnarBlocks estimate (and decodes)
// even when reopened with the option off, and a legacy archive opened
// with the option on stays readable as row blobs.
func TestColumnarReopenDetectsEncoding(t *testing.T) {
	for _, tc := range []struct {
		name       string
		written    bool // encoding the archive was written with
		reopenWith bool // option at reopen
	}{
		{"columnar-reopened-off", true, false},
		{"rowblob-reopened-on", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs, db, _ := newCompressed(t, Options{BlockSize: 512, Columnar: tc.written})
			var want []string
			if err := cs.Scan(nil, func(r relstore.Row) bool {
				want = append(want, rowKey(r))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			re, err := OpenCompressedStore(db, cs.Seg, Options{BlockSize: 512, Columnar: tc.reopenWith})
			if err != nil {
				t.Fatal(err)
			}
			if got := re.EstimateScan(nil).ColumnarBlocks > 0; got != tc.written {
				t.Fatalf("reopened store columnar-blocks>0 = %v, want %v (written encoding)", got, tc.written)
			}
			var got []string
			if err := re.Scan(nil, func(r relstore.Row) bool {
				got = append(got, rowKey(r))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("reopened scan returns %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d differs after reopen", i)
				}
			}
		})
	}
}

// decodeColumnarRows decodes every column of a columnar block and
// materializes its rows.
func decodeColumnarRows(data []byte) ([]relstore.Row, error) {
	var b relstore.ColBatch
	if err := DecodeColumnarBatch(data, nil, &b); err != nil {
		return nil, err
	}
	return b.Rows(), nil
}
