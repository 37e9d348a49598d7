package blockzip

import (
	"bytes"
	"strings"
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// FuzzCompressRoundTrip ensures arbitrary record streams survive
// compression: framing, adaptive block fitting and padding must never
// lose or corrupt a record.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), 10, 512)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 3, 4000)
	f.Add(bytes.Repeat([]byte("abc"), 500), 7, 1024)
	f.Fuzz(func(t *testing.T, data []byte, nRecords, blockSize int) {
		if nRecords <= 0 || nRecords > 200 || len(data) == 0 {
			return
		}
		if blockSize < 128 || blockSize > 1<<16 {
			return
		}
		// Slice data into nRecords overlapping records.
		records := make([][]byte, nRecords)
		for i := range records {
			lo := (i * 13) % len(data)
			hi := lo + 1 + (i*31)%64
			if hi > len(data) {
				hi = len(data)
			}
			records[i] = data[lo:hi]
		}
		blocks, err := Compress(records, blockSize)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		var got [][]byte
		for _, b := range blocks {
			recs, err := Decompress(b.Data)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			got = append(got, recs...)
		}
		if len(got) != len(records) {
			t.Fatalf("%d records in, %d out", len(records), len(got))
		}
		for i := range records {
			if !bytes.Equal(records[i], got[i]) {
				t.Fatalf("record %d corrupted", i)
			}
		}
	})
}

// FuzzBlockCacheRoundTrip pushes arbitrary rows through both block
// encodings (legacy row blobs and columnar) and reads every block four
// ways: as rows and as a batch, each through a cache miss (inflate +
// decode) and then a hit (the shared decoded entry). Re-encoding what
// each read returns must reproduce the original values, and the hit
// must return exactly what the miss did, so a cache that returned
// stale, truncated, aliased or partially decoded blocks would fail.
// A zero budget disables the cache, and a block larger than a shard's
// budget is never cached: then both reads take the cold path.
func FuzzBlockCacheRoundTrip(f *testing.F) {
	f.Add([]byte("hello world block cache"), 5, 1<<20)
	f.Add(bytes.Repeat([]byte{0, 255, 1, 254}, 300), 40, 4096)
	f.Add([]byte("x"), 1, 0) // cache disabled: both calls take the miss path
	f.Fuzz(func(t *testing.T, data []byte, nRows, cacheBytes int) {
		if nRows <= 0 || nRows > 100 || len(data) == 0 {
			return
		}
		if cacheBytes < 0 || cacheBytes > 1<<24 {
			return
		}
		rows := make([]relstore.Row, nRows)
		records := make([][]byte, nRows)
		for i := range rows {
			lo := (i * 17) % len(data)
			hi := lo + 1 + (i*29)%48
			if hi > len(data) {
				hi = len(data)
			}
			rows[i] = relstore.Row{
				relstore.Int(int64(i)),
				relstore.String_(string(data[lo:hi])),
				relstore.Bytes(data[lo:hi]),
			}
			records[i] = relstore.EncodeRow(nil, rows[i], true)
		}
		legacy, err := Compress(records, 512)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		columnar, err := CompressColumnar(rows, 512)
		if err != nil {
			t.Fatalf("compress columnar: %v", err)
		}

		// cell encodes one value, or marks a column the read left out.
		cell := func(r relstore.Row, c int, needed []bool) string {
			if needed != nil && !needed[c] {
				return "-"
			}
			return string(relstore.EncodeRow(nil, relstore.Row{r[c]}, true))
		}
		for _, format := range []struct {
			name   string
			blocks []Block
		}{{"legacy", legacy}, {"columnar", columnar}} {
			db := relstore.NewDatabase()
			db.SetBlockCacheBytes(cacheBytes)
			blob, err := db.CreateTable(relstore.Schema{Name: "fuzz_blob", Columns: []relstore.Column{
				{Name: "blockno", Type: relstore.TypeInt},
			}})
			if err != nil {
				t.Fatal(err)
			}
			cs := &CompressedStore{db: db, blob: blob}

			next := 0
			for bi, blk := range format.blocks {
				blockNo := int64(bi + 1)
				want := rows[next : next+blk.Records]
				for _, needed := range [][]bool{nil, {true, false, true}} {
					var got [2][]string
					for pass := range got {
						if pass == 0 {
							db.DropCaches()
						}
						var scratch relstore.ColBatch
						b, err := cs.blockBatch(blockNo, blk.Data, needed, 3, &scratch)
						if err != nil {
							t.Fatalf("%s block %d pass %d: %v", format.name, bi, pass, err)
						}
						if b.N != blk.Records {
							t.Fatalf("%s block %d pass %d: batch of %d rows, block holds %d", format.name, bi, pass, b.N, blk.Records)
						}
						row := make(relstore.Row, 3)
						for i := 0; i < b.N; i++ {
							b.FillRow(row, i, needed)
							for c := range row {
								g, w := cell(row, c, needed), cell(want[i], c, needed)
								if g != w {
									t.Fatalf("%s block %d pass %d: batch row %d col %d corrupted", format.name, bi, pass, i, c)
								}
								got[pass] = append(got[pass], g)
							}
						}
					}
					if strings.Join(got[0], "|") != strings.Join(got[1], "|") {
						t.Fatalf("%s block %d: batch read through a hit differs from the miss", format.name, bi)
					}
				}
				var got [2][]relstore.Row
				for pass := range got {
					if pass == 0 {
						db.DropCaches()
					}
					if got[pass], err = cs.blockRows(blockNo, blk.Data); err != nil {
						t.Fatalf("%s block %d pass %d: blockRows: %v", format.name, bi, pass, err)
					}
					if len(got[pass]) != blk.Records {
						t.Fatalf("%s block %d pass %d: %d rows, block holds %d", format.name, bi, pass, len(got[pass]), blk.Records)
					}
					for i, r := range got[pass] {
						if !bytes.Equal(relstore.EncodeRow(nil, r, true), records[next+i]) {
							t.Fatalf("%s block %d pass %d: row %d corrupted", format.name, bi, pass, i)
						}
					}
				}
				next += blk.Records
			}
			if next != nRows {
				t.Fatalf("%s: blocks hold %d rows, want %d", format.name, next, nRows)
			}
		}
	})
}

// FuzzDecompress ensures corrupted blocks are rejected, not paniced on.
func FuzzDecompress(f *testing.F) {
	good, _ := CompressWhole([][]byte{[]byte("abc"), []byte("defg")})
	f.Add(good.Data)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress(data) // must not panic
	})
}

// FuzzColumnarRoundTrip drives arbitrary row shapes through the
// columnar codec: every kind the encoder accepts (ints, floats, bools,
// dates including Forever, dictionary strings — possibly all-empty —
// NULLs and opaque bytes), uniform and mixed columns, many block
// sizes. Encoded blocks must decode to identical rows, and a corrupted
// block must produce an error, never a panic.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), 10, 2, 512, false)
	f.Add([]byte{0xff, 0x00, 0x7f}, 50, 5, 256, true)
	f.Add([]byte("abcabcabc"), 3, 8, 4096, false)
	f.Fuzz(func(t *testing.T, data []byte, nrows, ncols, blockSize int, corrupt bool) {
		if nrows <= 0 || nrows > 300 || ncols <= 0 || ncols > 10 {
			return
		}
		if blockSize < 128 || blockSize > 1<<16 {
			return
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		at := func(i int) byte { return data[i%len(data)] }
		rows := make([]relstore.Row, nrows)
		for i := range rows {
			row := make(relstore.Row, ncols)
			for c := range row {
				b := at(i*7 + c*3)
				switch b % 8 {
				case 0:
					row[c] = relstore.Int(int64(at(i+c)) * int64(b))
				case 1:
					row[c] = relstore.Float(float64(int8(b)) / 3)
				case 2:
					row[c] = relstore.Bool(b&1 == 0)
				case 3:
					// Dates, sometimes the Forever sentinel.
					if b&2 == 0 {
						row[c] = relstore.DateV(temporal.Forever)
					} else {
						row[c] = relstore.DateV(temporal.Date(int64(b) * 97))
					}
				case 4:
					// Strings; b&2==0 keeps them all empty, exercising a
					// dictionary whose only entry is "".
					if b&2 == 0 {
						row[c] = relstore.String_("")
					} else {
						lo := int(b) % len(data)
						row[c] = relstore.String_(string(data[lo : lo+(len(data)-lo)%7]))
					}
				case 5:
					row[c] = relstore.Null
				case 6:
					lo := int(b) % len(data)
					row[c] = relstore.Bytes(data[lo:])
				default:
					row[c] = relstore.Int(-int64(b) << (b % 40))
				}
			}
			rows[i] = row
		}
		blocks, err := CompressColumnar(rows, blockSize)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		var got []relstore.Row
		for _, blk := range blocks {
			if !IsColumnarBlock(blk.Data) {
				t.Fatal("columnar block without columnar magic")
			}
			dec, err := decodeColumnarRows(blk.Data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			got = append(got, dec...)
		}
		if len(got) != len(rows) {
			t.Fatalf("%d rows in, %d out", len(rows), len(got))
		}
		for i := range rows {
			want := relstore.EncodeRow(nil, rows[i], true)
			have := relstore.EncodeRow(nil, got[i], true)
			if !bytes.Equal(want, have) {
				t.Fatalf("row %d corrupted by columnar round trip", i)
			}
		}
		if corrupt && len(blocks) > 0 {
			// Flip one byte inside the first block; the decoder must
			// reject or misdecode gracefully, never panic.
			bad := bytes.Clone(blocks[0].Data)
			pos := int(at(0)) % len(bad)
			bad[pos] ^= 0x55
			var cb relstore.ColBatch
			_ = DecodeColumnarBatch(bad, nil, &cb)
		}
	})
}
